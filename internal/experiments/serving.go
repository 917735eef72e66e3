package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/imagesim"
	"repro/internal/store"
)

// Serving-path throughput benchmark (`tvdp-bench -figure serving`): a
// mixed read/write workload against the store, run twice — once through a
// wrapper that reimposes the pre-PR global RWMutex (every write holds one
// exclusive lock across the whole mutation, durability wait included,
// which also serialises WAL appends back to one fsync per write), and
// once against the store's native concurrent path (per-subsystem locks +
// group-commit WAL). The ratio of the two is the headline speedup.

// ServingConfig sizes one serving benchmark run.
type ServingConfig struct {
	// Clients is the number of concurrent workload goroutines.
	Clients int
	// ReadFrac in [0,1] is the probability an op is a read.
	ReadFrac float64
	// Duration is the measured wall-clock window per mode.
	Duration time.Duration
	// Preload seeds the store with this many images before timing.
	Preload int
	// Sync runs the store with WALSync = store.SyncImmediate (fsync-bound
	// writes — the regime group commit targets).
	Sync bool
	// Seed drives the per-client workload RNGs.
	Seed int64
}

// DefaultServingConfig mirrors the acceptance setup: 8 clients, evenly
// mixed reads and writes, synced writes.
func DefaultServingConfig() ServingConfig {
	return ServingConfig{Clients: 8, ReadFrac: 0.5, Duration: 2 * time.Second, Preload: 64, Sync: true, Seed: 1}
}

// ServingModeResult is one mode's measurements.
type ServingModeResult struct {
	Mode           string  `json:"mode"`
	Ops            uint64  `json:"ops"`
	Reads          uint64  `json:"reads"`
	Writes         uint64  `json:"writes"`
	OpsPerSec      float64 `json:"ops_per_sec"`
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`
	Fsyncs         uint64  `json:"fsyncs"`
	FsyncsPerWrite float64 `json:"fsyncs_per_write"`
	ElapsedS       float64 `json:"elapsed_s"`
}

// ServingResult is the full two-mode comparison written to
// BENCH_serving.json.
type ServingResult struct {
	Figure     string            `json:"figure"`
	Clients    int               `json:"clients"`
	ReadFrac   float64           `json:"read_frac"`
	Sync       bool              `json:"sync_every_write"`
	Baseline   ServingModeResult `json:"baseline_global_mutex"`
	Concurrent ServingModeResult `json:"concurrent"`
	// SpeedupX is concurrent ops/sec over baseline ops/sec.
	SpeedupX float64 `json:"speedup_x"`
}

// globalLock reimposes the seed's single store-wide RWMutex on top of the
// store, emulating the pre-PR serving path for an honest baseline: reads
// share a read lock, every write holds the exclusive lock until its WAL
// append + fsync completed (so writes cannot batch: the committer only
// ever sees one frame at a time).
type globalLock struct{ mu sync.RWMutex }

func (g *globalLock) read(f func())  { g.mu.RLock(); f(); g.mu.RUnlock() }
func (g *globalLock) write(f func()) { g.mu.Lock(); f(); g.mu.Unlock() }

// noLock is the native concurrent path (the store locks internally).
type noLock struct{}

func (noLock) read(f func())  { f() }
func (noLock) write(f func()) { f() }

type locker interface {
	read(func())
	write(func())
}

func servingImage(rng *rand.Rand, px *imagesim.Image) store.Image {
	brg := rng.Float64() * 360
	cam := geo.Destination(laCenter, brg, 200+rng.Float64()*5000)
	return store.Image{
		FOV:                geo.FOV{Camera: cam, Direction: brg, Angle: 60, Radius: 100},
		Pixels:             px,
		TimestampCapturing: time.Date(2019, 2, 1, 8, 0, 0, 0, time.UTC).Add(time.Duration(rng.Intn(86400)) * time.Second),
		WorkerID:           "bench",
	}
}

func runServingMode(mode string, lk locker, cfg ServingConfig) (ServingModeResult, error) {
	dir, err := os.MkdirTemp("", "tvdp-serving-*")
	if err != nil {
		return ServingModeResult{}, err
	}
	defer os.RemoveAll(dir)
	scfg := store.DefaultConfig()
	scfg.Dir = dir
	if cfg.Sync {
		scfg.WALSync = store.SyncImmediate
	}
	st, err := store.Open(scfg)
	if err != nil {
		return ServingModeResult{}, err
	}
	defer st.Close()

	// Tiny raster: the bench measures serving-path overhead (locking, WAL
	// batching, fsyncs), so the per-op payload encode cost is kept small.
	px := imagesim.MustNew(4, 4)
	px.Fill(imagesim.RGB{R: 90, G: 110, B: 130})
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Preload; i++ {
		if _, err := st.AddImage(servingImage(seedRng, px)); err != nil {
			return ServingModeResult{}, err
		}
	}
	preStats := st.WALStats()

	type clientOut struct {
		lat           []time.Duration
		reads, writes uint64
		err           error
	}
	outs := make([]clientOut, cfg.Clients)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	sw := startStopwatch()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919))
			out := &outs[c]
			for {
				select {
				case <-stop:
					return
				default:
				}
				isRead := rng.Float64() < cfg.ReadFrac
				op := startStopwatch()
				if isRead {
					// Constant-cost metadata point read over the preloaded set
					// (IDs 1..Preload): reads cost the same in both modes and at
					// any store size, so the comparison isolates the serving
					// path rather than result-set growth.
					lk.read(func() {
						if _, err := st.Describe(uint64(rng.Intn(cfg.Preload)) + 1); err != nil {
							out.err = err
						}
					})
					out.reads++
				} else {
					lk.write(func() {
						if _, err := st.AddImage(servingImage(rng, px)); err != nil {
							out.err = err
						}
					})
					out.writes++
				}
				out.lat = append(out.lat, op.elapsed())
				if out.err != nil {
					return
				}
			}
		}(c)
	}
	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	elapsed := sw.elapsed()

	var all []time.Duration
	res := ServingModeResult{Mode: mode, ElapsedS: elapsed.Seconds()}
	for c := range outs {
		if outs[c].err != nil {
			return ServingModeResult{}, fmt.Errorf("serving bench client %d: %w", c, outs[c].err)
		}
		all = append(all, outs[c].lat...)
		res.Reads += outs[c].reads
		res.Writes += outs[c].writes
	}
	res.Ops = res.Reads + res.Writes
	res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i]) / float64(time.Millisecond)
	}
	res.P50Ms = pct(0.50)
	res.P99Ms = pct(0.99)
	post := st.WALStats()
	res.Fsyncs = post.Fsyncs - preStats.Fsyncs
	if res.Writes > 0 {
		res.FsyncsPerWrite = float64(res.Fsyncs) / float64(res.Writes)
	}
	return res, nil
}

// RunServing runs the mixed workload in both modes and returns the
// comparison.
func RunServing(cfg ServingConfig) (*ServingResult, error) {
	if cfg.Clients <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("experiments: serving config needs clients > 0 and duration > 0")
	}
	if cfg.ReadFrac > 0 && cfg.Preload <= 0 {
		return nil, fmt.Errorf("experiments: serving config needs preload > 0 when reads are enabled")
	}
	base, err := runServingMode("baseline_global_mutex", &globalLock{}, cfg)
	if err != nil {
		return nil, err
	}
	conc, err := runServingMode("concurrent", noLock{}, cfg)
	if err != nil {
		return nil, err
	}
	r := &ServingResult{
		Figure:     "serving",
		Clients:    cfg.Clients,
		ReadFrac:   cfg.ReadFrac,
		Sync:       cfg.Sync,
		Baseline:   base,
		Concurrent: conc,
	}
	if base.OpsPerSec > 0 {
		r.SpeedupX = conc.OpsPerSec / base.OpsPerSec
	}
	return r, nil
}

// WriteJSON writes the result as indented JSON (BENCH_serving.json).
func (r *ServingResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Render returns the result as a text table.
func (r *ServingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serving throughput — %d clients, %.0f%% reads, fsync every write=%v\n",
		r.Clients, r.ReadFrac*100, r.Sync)
	fmt.Fprintf(&b, "%-24s %10s %9s %9s %9s %14s\n", "mode", "ops/sec", "p50 ms", "p99 ms", "ops", "fsyncs/write")
	for _, m := range []ServingModeResult{r.Baseline, r.Concurrent} {
		fmt.Fprintf(&b, "%-24s %10.0f %9.3f %9.3f %9d %14.3f\n",
			m.Mode, m.OpsPerSec, m.P50Ms, m.P99Ms, m.Ops, m.FsyncsPerWrite)
	}
	fmt.Fprintf(&b, "speedup: %.2fx\n", r.SpeedupX)
	return b.String()
}
