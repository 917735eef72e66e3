package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Short smoke run of the serving benchmark: both modes complete, counters
// are sane, and the JSON report round-trips with the keys ci.sh checks.
func TestRunServingSmoke(t *testing.T) {
	cfg := ServingConfig{Clients: 4, ReadFrac: 0.5, Duration: 250 * time.Millisecond, Preload: 16, Sync: true, Seed: 1}
	r, err := RunServing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Figure != "serving" {
		t.Fatalf("figure = %q", r.Figure)
	}
	for _, m := range []ServingModeResult{r.Baseline, r.Concurrent} {
		if m.Ops == 0 || m.OpsPerSec <= 0 {
			t.Fatalf("mode %q did no work: %+v", m.Mode, m)
		}
		if m.Writes > 0 && m.Fsyncs == 0 {
			t.Fatalf("mode %q wrote %d ops with zero fsyncs under SyncImmediate", m.Mode, m.Writes)
		}
	}
	// The baseline cannot batch (writes serialised), so it must fsync once
	// per write; the concurrent path must never exceed that.
	if r.Baseline.Writes > 0 && r.Baseline.FsyncsPerWrite < 0.99 {
		t.Fatalf("baseline batched fsyncs (%.3f/write) — globalLock emulation broken", r.Baseline.FsyncsPerWrite)
	}
	if r.Concurrent.FsyncsPerWrite > r.Baseline.FsyncsPerWrite+0.01 {
		t.Fatalf("concurrent fsyncs/write %.3f exceeds baseline %.3f",
			r.Concurrent.FsyncsPerWrite, r.Baseline.FsyncsPerWrite)
	}

	path := filepath.Join(t.TempDir(), "BENCH_serving.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back ServingResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Concurrent.OpsPerSec != r.Concurrent.OpsPerSec || back.SpeedupX != r.SpeedupX {
		t.Fatal("JSON round-trip mismatch")
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}
