package experiments

import (
	"strings"
	"testing"

	"repro/internal/synth"
)

// buildSmoke caches one smoke-scale corpus across tests in this package
// (CNN training dominates; build it once).
var smokeCorpus *Corpus

func smoke(t *testing.T) *Corpus {
	t.Helper()
	if smokeCorpus == nil {
		c, err := BuildCorpus(SmokeScale())
		if err != nil {
			t.Fatal(err)
		}
		smokeCorpus = c
	}
	return smokeCorpus
}

func TestBuildCorpusShape(t *testing.T) {
	c := smoke(t)
	if len(c.Records) != 150 || len(c.TrainIdx)+len(c.TestIdx) != 150 {
		t.Fatalf("corpus sizes: %d records, %d/%d split", len(c.Records), len(c.TrainIdx), len(c.TestIdx))
	}
	// 80/20 split.
	if len(c.TestIdx) != 30 {
		t.Fatalf("test size = %d", len(c.TestIdx))
	}
	// Stratified: every class appears in both splits.
	count := func(idx []int) []int {
		out := make([]int, synth.NumClasses)
		for _, i := range idx {
			out[c.Labels[i]]++
		}
		return out
	}
	for cls, n := range count(c.TestIdx) {
		if n != 6 {
			t.Fatalf("test class %d count = %d", cls, n)
		}
	}
	for _, kind := range FeatureNames {
		feats, ok := c.Features[kind]
		if !ok || len(feats) != 150 {
			t.Fatalf("features %s: %d", kind, len(feats))
		}
	}
	if _, err := BuildCorpus(Scale{N: 10}); err == nil {
		t.Fatal("tiny corpus accepted")
	}
}

func TestFig6SmokeShape(t *testing.T) {
	c := smoke(t)
	r, err := RunFig6(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range FeatureNames {
		for _, clf := range ClassifierNames {
			f1, ok := r.F1[kind][clf]
			if !ok {
				t.Fatalf("missing cell %s/%s", kind, clf)
			}
			if f1 < 0 || f1 > 1 {
				t.Fatalf("F1 out of range: %s/%s = %v", kind, clf, f1)
			}
		}
	}
	// The headline ordering must hold even at smoke scale for the best
	// classifier per feature: CNN > colour.
	_, bestCNN := r.Best(FeatureNames[2])
	_, bestColor := r.Best(FeatureNames[0])
	if bestCNN <= bestColor {
		t.Fatalf("CNN best (%.3f) not above colour best (%.3f)", bestCNN, bestColor)
	}
	if !strings.Contains(r.Render(), "Fig. 6") {
		t.Fatal("render missing header")
	}
}

func TestFig6CrossValidation(t *testing.T) {
	c := smoke(t)
	r, err := RunFig6(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v := r.CVMean[FeatureNames[0]]["SVM"]; v <= 0 || v > 1 {
		t.Fatalf("CV mean = %v", v)
	}
}

func TestFig7Smoke(t *testing.T) {
	c := smoke(t)
	r, err := RunFig7(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range FeatureNames {
		if len(r.F1[kind]) != synth.NumClasses {
			t.Fatalf("per-class F1 for %s = %v", kind, r.F1[kind])
		}
	}
	best, worst := r.CNNBestWorst()
	if best == worst {
		t.Fatal("best == worst category")
	}
	if !strings.Contains(r.Render(), "Overgrown Vegetation") {
		t.Fatal("render missing category names")
	}
}

func TestFig8Shape(t *testing.T) {
	r := RunFig8(1, 10)
	// Desktop under 200 ms at 224 for every model; RPI over 1 s for
	// InceptionV3.
	if v := r.MeanMs["MobileNetV2"]["Desktop"][3]; v > 50 {
		t.Fatalf("desktop MobileNetV2 = %v ms", v)
	}
	if v := r.MeanMs["InceptionV3"]["Raspberry PI 3 B+"][3]; v < 1000 {
		t.Fatalf("RPI InceptionV3 = %v ms", v)
	}
	// Latency grows with image size.
	series := r.MeanMs["MobileNetV1"]["Smartphone"]
	for i := 1; i < len(series); i++ {
		if series[i] <= series[i-1] {
			t.Fatalf("latency not increasing with size: %v", series)
		}
	}
	if !strings.Contains(r.Render(), "log10@224") {
		t.Fatal("render missing log column")
	}
}

func TestA1(t *testing.T) {
	r, err := RunA1SpatialIndexes(2000, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Index structures must beat the scan and agree on result counts.
	if r.QPS["rtree"] <= r.QPS["scan"] {
		t.Fatalf("rtree (%.0f q/s) not faster than scan (%.0f q/s)", r.QPS["rtree"], r.QPS["scan"])
	}
	if r.Hits["rtree"] != r.Hits["scan"] || r.Hits["grid"] != r.Hits["scan"] {
		t.Fatalf("hit counts disagree: %+v", r.Hits)
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestA2(t *testing.T) {
	r, err := RunA2LSHvsExact(3000, 16, 10, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Recall < 0.6 {
		t.Fatalf("LSH recall = %v", r.Recall)
	}
	if r.LSHQPS <= r.ExactQPS {
		t.Fatalf("LSH (%.0f q/s) not faster than exact (%.0f q/s)", r.LSHQPS, r.ExactQPS)
	}
}

func TestA3(t *testing.T) {
	r, err := RunA3Hybrid(600, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Agreement < 0.999 {
		t.Fatalf("hybrid vs two-phase agreement = %v", r.Agreement)
	}
	if r.HybridQPS <= 0 || r.TwoQPS <= 0 {
		t.Fatalf("throughputs: %+v", r)
	}
}

func TestA4(t *testing.T) {
	r, err := RunA4Crowd(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"greedy", "entropy", "random"} {
		if r.Final[s] <= 0 {
			t.Fatalf("%s achieved no coverage", s)
		}
	}
	// The informed strategies should not be worse than random.
	if r.Final["greedy"] < r.Final["random"]-0.05 {
		t.Fatalf("greedy (%.3f) clearly worse than random (%.3f)", r.Final["greedy"], r.Final["random"])
	}
}

func TestA5(t *testing.T) {
	r, err := RunA5EdgeSelection(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"uncertainty", "random"} {
		accs := r.AccuracyByRound[s]
		if len(accs) < 2 {
			t.Fatalf("%s rounds = %d", s, len(accs))
		}
		if accs[len(accs)-1] < accs[0] {
			t.Fatalf("%s accuracy fell: %v", s, accs)
		}
	}
	// Uncertainty selection recovers the server's missing classes in the
	// first round; random needs several.
	u, rd := r.AccuracyByRound["uncertainty"], r.AccuracyByRound["random"]
	if u[1] <= rd[1] {
		t.Fatalf("uncertainty round-1 accuracy %.3f not above random %.3f", u[1], rd[1])
	}
	if r.BytesPerRound >= r.RawBytesPerRound {
		t.Fatalf("feature bytes %d not below raw %d", r.BytesPerRound, r.RawBytesPerRound)
	}
}

func TestA7(t *testing.T) {
	r, err := RunA7Text(5000, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.InvertedQPS <= r.ScanQPS {
		t.Fatalf("inverted (%.0f q/s) not faster than scan (%.0f q/s)", r.InvertedQPS, r.ScanQPS)
	}
}

func TestA8Augmentation(t *testing.T) {
	r, err := RunA8Augmentation(150, 1)
	if err != nil {
		t.Fatal(err)
	}
	for aug, f1 := range r.F1ByAugment {
		if f1 <= 0 || f1 > 1 {
			t.Fatalf("aug=%d F1 = %v", aug, f1)
		}
	}
	if len(r.F1ByAugment) != 2 {
		t.Fatalf("levels = %v", r.F1ByAugment)
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}
