// Command bench is the repository's end-to-end benchmark: it builds
// ./cmd/tvdp-server, starts it as a child process on a loopback port, and
// drives it through api.Client with four workloads, checking answers against
// its own copy of the data. See README.md in this directory.
//
//	bash bench/run.sh --workload search_distinct --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh -seed 1                      # all four workloads, one after the other
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// result is the file format of bench/out/result.json and of -compare.
type result struct {
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Trace     int                 `json:"trace"`
	Workloads map[string]*outcome `json:"workloads"`
}

func main() {
	var (
		names   = flag.String("workload", "all", "workload to run, a comma-separated list in run order, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 12, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from the traced run")
		smoke   = flag.Bool("smoke", false, "tiny corpora and rates, for tests")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		outDir  = flag.String("out", "", "directory for result.json and traces (default bench/out)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("unexpected arguments %v (seconds %g, trace %d)", flag.Args(), *seconds, *trace))
	}
	p, err := findPaths(*outDir)
	if err != nil {
		fatal(err)
	}
	spec, err := loadSpec(filepath.Join(p.root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	var run []*workload
	if *names == "all" {
		run = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w := workloadByName(n)
			if w == nil {
				fatal(fmt.Errorf("unknown workload %q", n))
			}
			run = append(run, w)
		}
	}
	srvBin, err := buildServer(p)
	if err != nil {
		fatal(err)
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
	}
	res := result{Seed: *seed, Seconds: *seconds, Trace: *trace, Workloads: map[string]*outcome{}}
	ok := true
	var last *outcome
	for _, w := range run {
		out, err := runWorkload(w, sc, *seed, *seconds, *trace, p, srvBin)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		if err := spec.check(out, *trace); err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		report(w.name, out)
		res.Workloads[w.name] = out
		ok = ok && out.Correct
		last = out
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(p.out, "result.json"), append(raw, '\n'), 0o644); err != nil {
		fatal(err)
	}
	// The last line of standard output is the outcome of the (last)
	// workload as one JSON object.
	line, err := json.Marshal(last)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func runWorkload(w *workload, sc scale, seed int64, seconds float64, trace int, p paths, srvBin string) (*outcome, error) {
	e, err := newEnv(w, sc, seed, p, srvBin)
	if err != nil {
		return nil, err
	}
	defer e.close()
	if trace == 1 {
		return runTraced(e, seconds)
	}
	return runE2E(e, seconds)
}

// report prints every metric as "workload metric value unit", then the notes.
func report(name string, out *outcome) {
	keys := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s %s %.6g %s\n", name, k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
	fmt.Printf("%s attempted %d failed %d correct %v\n", name, out.Attempted, out.Failed, out.Correct)
	for _, n := range out.notes {
		fmt.Printf("# %s: %s\n", name, n)
	}
}

// benchSpec is the part of BENCHMARK.json the program checks itself against:
// a run must emit exactly the metrics the file names, with their units.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) check(out *outcome, trace int) error {
	want := s.EndToEnd
	if trace == 1 {
		want = s.PerLayer
	}
	if len(out.Metrics) != len(want) {
		return fmt.Errorf("run emitted %d metrics, BENCHMARK.json names %d", len(out.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := out.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s of BENCHMARK.json was not emitted", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s emitted in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		}
	}
	return nil
}
