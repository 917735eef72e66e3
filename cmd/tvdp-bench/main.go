// Command tvdp-bench regenerates the paper's evaluation figures (§VII)
// and the DESIGN.md ablation studies as text tables. Store, query and
// ingest speed are measured end to end by bench/ against a running
// tvdp-server, not here.
//
// Usage:
//
//	tvdp-bench -fig all                 # Fig. 6, 7, 8 at harness scale
//	tvdp-bench -fig 6 -n 2000 -folds 10 # bigger corpus, paper's 10-fold CV
//	tvdp-bench -ablations               # A1–A5, A7, A8
//	tvdp-bench -fig all -scale paper    # paper-scale corpus (slow)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/par"
)

func main() {
	var (
		fig       = flag.String("fig", "", "figure to regenerate: 6, 7, 8, or all")
		ablations = flag.Bool("ablations", false, "run the ablation studies (A1–A5, A7, A8)")
		n         = flag.Int("n", 0, "override corpus size")
		folds     = flag.Int("folds", 0, "cross-validation folds for Fig. 6 (0 = skip)")
		scaleName = flag.String("scale", "default", "corpus scale: smoke, default, or paper")
		seed      = flag.Int64("seed", 2, "experiment seed")
		workers   = flag.Int("workers", 0, "worker goroutines for parallel stages (0 = all CPUs); results are identical for any value")
	)
	flag.Parse()
	switch *fig {
	case "", "6", "7", "8", "all":
	default:
		fmt.Fprintf(os.Stderr, "tvdp-bench: unknown -fig %q (want 6, 7, 8 or all)\n", *fig)
		os.Exit(2)
	}
	switch *scaleName {
	case "smoke", "default", "paper":
	default:
		fmt.Fprintf(os.Stderr, "tvdp-bench: unknown -scale %q (want smoke|default|paper)\n", *scaleName)
		os.Exit(2)
	}
	if *fig == "" && !*ablations {
		flag.Usage()
		os.Exit(2)
	}
	log.SetFlags(0)

	if *workers > 0 {
		par.SetWorkers(*workers)
	}
	log.Printf("parallel stages: %d worker(s)", par.Workers())

	scale := experiments.DefaultScale()
	switch *scaleName {
	case "smoke":
		scale = experiments.SmokeScale()
	case "default":
	case "paper":
		scale = experiments.PaperScale()
		log.Printf("paper scale selected: N=%d, BoW vocab=%d — expect hours on one core", scale.N, scale.BoWVocab)
	}
	if *n > 0 {
		scale.N = *n
	}
	scale.Seed = *seed

	needCorpus := *fig == "6" || *fig == "7" || *fig == "all"
	var corpus *experiments.Corpus
	if needCorpus {
		log.Printf("building corpus: N=%d (seed %d)...", scale.N, scale.Seed)
		start := time.Now()
		var err error
		corpus, err = experiments.BuildCorpus(scale)
		if err != nil {
			log.Fatalf("building corpus: %v", err)
		}
		log.Printf("corpus ready in %s (features: colour, SIFT-BoW, CNN)", time.Since(start).Round(time.Millisecond))
	}

	if *fig == "6" || *fig == "all" {
		start := time.Now()
		r, err := experiments.RunFig6(corpus, *folds)
		if err != nil {
			log.Fatalf("fig 6: %v", err)
		}
		fmt.Println(r.Render())
		for _, kind := range experiments.FeatureNames {
			name, f1 := r.Best(kind)
			fmt.Printf("  best for %-12s %-14s F1=%.3f\n", kind, name, f1)
		}
		fmt.Printf("  (elapsed %s, %d worker(s))\n\n", time.Since(start).Round(time.Millisecond), par.Workers())
	}
	if *fig == "7" || *fig == "all" {
		start := time.Now()
		r, err := experiments.RunFig7(corpus)
		if err != nil {
			log.Fatalf("fig 7: %v", err)
		}
		fmt.Println(r.Render())
		best, worst := r.CNNBestWorst()
		fmt.Printf("  CNN best category: %s, worst: %s\n", best, worst)
		fmt.Printf("  (elapsed %s, %d worker(s))\n\n", time.Since(start).Round(time.Millisecond), par.Workers())
	}
	if *fig == "8" || *fig == "all" {
		start := time.Now()
		r := experiments.RunFig8(*seed, 50)
		fmt.Println(r.Render())
		fmt.Printf("  (elapsed %s, %d worker(s))\n\n", time.Since(start).Round(time.Millisecond), par.Workers())
	}

	if *ablations {
		runAblations(*seed)
	}
}

func runAblations(seed int64) {
	if r, err := experiments.RunA1SpatialIndexes(20000, 200, seed); err != nil {
		log.Fatalf("A1: %v", err)
	} else {
		fmt.Println(r.Render())
	}
	if r, err := experiments.RunA2LSHvsExact(20000, 32, 10, 100, seed); err != nil {
		log.Fatalf("A2: %v", err)
	} else {
		fmt.Println(r.Render())
	}
	if r, err := experiments.RunA3Hybrid(3000, 50, seed); err != nil {
		log.Fatalf("A3: %v", err)
	} else {
		fmt.Println(r.Render())
	}
	if r, err := experiments.RunA4Crowd(seed); err != nil {
		log.Fatalf("A4: %v", err)
	} else {
		fmt.Println(r.Render())
	}
	if r, err := experiments.RunA5EdgeSelection(seed); err != nil {
		log.Fatalf("A5: %v", err)
	} else {
		fmt.Println(r.Render())
	}
	if r, err := experiments.RunA7Text(50000, 500, seed); err != nil {
		log.Fatalf("A7: %v", err)
	} else {
		fmt.Println(r.Render())
	}
	if r, err := experiments.RunA8Augmentation(300, seed); err != nil {
		log.Fatalf("A8: %v", err)
	} else {
		fmt.Println(r.Render())
	}
}
