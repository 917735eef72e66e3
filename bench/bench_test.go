package main

import (
	"path/filepath"
	"regexp"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {1, 1}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := quartile([]float64{4, 1, 3, 2}, 1); got != 1 {
		t.Errorf("first quartile = %v, want 1", got)
	}
	if got := quartile([]float64{4, 1, 3, 2}, 3); got != 3 {
		t.Errorf("third quartile = %v, want 3", got)
	}
}

// A target that stalls for 200 ms must cost every request that was due during
// the stall the rest of the stall, not just the one request that hit it.
func TestOpenLoopChargesStall(t *testing.T) {
	const rate, workers = 100.0, 2
	var calls atomic.Int64
	gen := func(i uint64) *op { return &op{idx: i} }
	exec := func(w int, o *op) bool {
		// Both connections stall once, at the same time, early in the run.
		if n := calls.Add(1); n == 11 || n == 12 {
			time.Sleep(200 * time.Millisecond)
		}
		return true
	}
	ss := runOpen(rate, time.Second, workers, gen, exec)
	if len(ss) != 100 {
		t.Fatalf("%d requests sent, want 100", len(ss))
	}
	charged := 0
	for _, s := range ss {
		if s.latency() > 50*time.Millisecond {
			charged++
		}
	}
	// About 20 arrivals fall into a 200 ms stall at 100/s; a generator that
	// timed from pick-up instead of from the due time would report 2.
	if charged < 12 {
		t.Errorf("%d requests were charged the stall, want the ~20 that were due during it", charged)
	}
	for i, s := range ss {
		if want := time.Duration(i) * 10 * time.Millisecond; s.due != want {
			t.Fatalf("request %d due at %v, want %v", i, s.due, want)
		}
		if s.start < s.due {
			t.Fatalf("request %d sent %v before it was due", i, s.due-s.start)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2: the union counts once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 3, Start: 25, End: 35},
		{ID: 6, Parent: 1, Start: 60}, // still open: ignored
	}
	self := selfTimes(spans)
	for id, want := range map[int32]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if _, ok := self[6]; ok {
		t.Error("an open span has a self time")
	}
}

func TestRouteOf(t *testing.T) {
	if got := routeOf("/api/v1/images/123/pixels"); got != "/api/v1/images/#/pixels" {
		t.Errorf("routeOf = %q", got)
	}
}

// TestSmoke runs all four workloads, with tracing off and on, at smoke scale
// against a real child server, and checks that each run is correct and emits
// exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers; skipped with -short")
	}
	p, err := findPaths(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(p.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
	}
	bin, err := buildServer(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			out, err := runWorkload(w, smokeScale, 7, 2, trace, p, bin)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if err := spec.check(out, trace); err != nil {
				t.Errorf("%s trace %d: %v", w.name, trace, err)
			}
			if out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace %d: %d of %d operations failed: %v", w.name, trace, out.Failed, out.Attempted, out.notes)
			}
			if trace == 0 {
				for _, m := range spec.EndToEnd {
					if out.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w.name, m.Name, out.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}
