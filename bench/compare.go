package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// runCompare prints, per workload and end-to-end metric, the value in each of
// two result files, the relative change and the bound of BENCHMARK.json. It
// returns 1 if b is worse than a by more than a bound on any metric or if the
// share of failed operations rose on any workload, 0 otherwise.
func runCompare(pathA, pathB string) int {
	a, err := readResult(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readResult(pathB)
	if err != nil {
		fatal(err)
	}
	p, err := findPaths("")
	if err != nil {
		fatal(err)
	}
	spec, err := loadSpec(filepath.Join(p.root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		if b.Workloads[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	bad := 0
	fmt.Printf("%-16s %-14s %12s %12s %8s %6s\n", "workload", "metric", "a", "b", "change", "bound")
	for _, n := range names {
		wa, wb := a.Workloads[n], b.Workloads[n]
		for _, m := range spec.EndToEnd {
			va, oka := wa.Metrics[m.Name]
			vb, okb := wb.Metrics[m.Name]
			if !oka || !okb {
				continue
			}
			worse, verdict := worsening(va.Value, vb.Value, m.Better), ""
			if worse > m.Bound {
				verdict = "  WORSE"
				bad++
			}
			fmt.Printf("%-16s %-14s %12.6g %12.6g %+7.1f%% %5.0f%%%s\n", n, m.Name, va.Value, vb.Value, 100*(vb.Value-va.Value)/va.Value, 100*m.Bound, verdict)
		}
		fa, fb := failShare(wa), failShare(wb)
		verdict := ""
		if fb > fa {
			verdict = "  WORSE"
			bad++
		}
		fmt.Printf("%-16s %-14s %12.6g %12.6g%s\n", n, "failed share", fa, fb, verdict)
	}
	if len(names) == 0 {
		fmt.Println("the two files share no workload")
		return 1
	}
	if bad > 0 {
		fmt.Printf("%d comparisons beyond their bound\n", bad)
		return 1
	}
	return 0
}

// worsening is how much worse b is than a, as a share of a (negative when b
// is better).
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func failShare(o *outcome) float64 {
	if o.Attempted == 0 {
		return 0
	}
	return float64(o.Failed) / float64(o.Attempted)
}

func readResult(path string) (*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
