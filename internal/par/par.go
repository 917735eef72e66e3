// Package par is TVDP's deterministic data-parallel execution layer. Every
// hot loop of the analysis pipeline — corpus synthesis, feature extraction,
// kMeans quantisation, classifier training, cross-validation — fans out
// through this package so one knob (Workers / SetWorkers) governs the
// platform's CPU use.
//
// The package offers a strict determinism contract: for the same inputs and
// seeds, results are bit-identical regardless of the worker count. Three
// mechanisms make that hold:
//
//  1. Index-ordered collection: Map writes result i to slot i, so output
//     order never depends on goroutine scheduling.
//  2. Fixed-grain sharding: ForShards partitions work into shards whose
//     boundaries depend only on the item count — never on the worker
//     count — so floating-point reductions that combine per-shard partials
//     in shard order perform the same additions in the same order on one
//     worker as on sixty-four.
//  3. RNG splitting: SplitSeed derives an independent per-item seed from a
//     parent seed with a SplitMix64 mix, so stochastic work (scene
//     rendering, bootstrap sampling) consumes no shared RNG stream.
//
// The pool is bounded: at most Workers() goroutines run per call, items are
// pulled from an atomic cursor in contiguous blocks, and calls with n <= 1
// or one worker degrade to plain loops with zero goroutine overhead.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workerOverride holds the SetWorkers value; 0 means "use runtime.NumCPU".
var workerOverride atomic.Int64

// Workers returns the effective parallelism: the SetWorkers override if one
// is active, else runtime.NumCPU().
func Workers() int {
	if n := workerOverride.Load(); n > 0 {
		return int(n)
	}
	return runtime.NumCPU()
}

// SetWorkers overrides the pool size for subsequent calls and returns the
// previous effective value. n <= 0 clears the override (back to NumCPU).
// Tests and CLIs use it to pin parallelism; the determinism contract makes
// the setting unobservable in results.
func SetWorkers(n int) int {
	prev := Workers()
	if n <= 0 {
		workerOverride.Store(0)
	} else {
		workerOverride.Store(int64(n))
	}
	return prev
}

// run executes fn(lo, hi) over blocks covering [0, n) on w goroutines.
// Blocks are handed out from an atomic cursor in `grain`-sized runs.
func run(n, w, grain int, fn func(lo, hi int)) {
	if grain < 1 {
		grain = 1
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				hi := int(cursor.Add(int64(grain)))
				lo := hi - grain
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// For runs fn(i) for every i in [0, n) on the worker pool. fn must be safe
// to call concurrently and must not care about execution order; writes to
// distinct per-index slots are the intended communication pattern.
func For(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Block grain amortises the cursor contention for cheap bodies while
	// still load-balancing expensive ones.
	grain := n / (w * 8)
	run(n, w, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Map applies fn to every index in [0, n) and collects results in index
// order. If any call fails, Map returns the error of the lowest failing
// index (matching what a serial loop would report) and a nil slice. All
// items are attempted even after a failure so the reported error does not
// depend on scheduling.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	var mu sync.Mutex
	errIdx := -1
	var firstErr error
	For(n, func(i int) {
		v, err := fn(i)
		if err != nil {
			mu.Lock()
			if errIdx < 0 || i < errIdx {
				errIdx, firstErr = i, err
			}
			mu.Unlock()
			return
		}
		out[i] = v
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// NumShards returns the number of fixed-size shards ForShards uses to cover
// n items at the given grain (items per shard). Shard boundaries depend
// only on n and grain — never on the worker count — which is what makes
// shard-ordered floating-point reductions bit-deterministic.
func NumShards(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	return (n + grain - 1) / grain
}

// ShardBounds returns the [lo, hi) item range of shard s for n items at the
// given grain.
func ShardBounds(n, grain, s int) (lo, hi int) {
	if grain < 1 {
		grain = 1
	}
	lo = s * grain
	hi = lo + grain
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ForShards partitions [0, n) into NumShards(n, grain) fixed-grain shards
// and runs fn(shard, lo, hi) for each on the worker pool. Callers that
// accumulate floating-point partials per shard and then reduce them in
// shard index order get bit-identical results for any worker count.
func ForShards(n, grain int, fn func(shard, lo, hi int)) {
	shards := NumShards(n, grain)
	For(shards, func(s int) {
		lo, hi := ShardBounds(n, grain, s)
		fn(s, lo, hi)
	})
}

// SplitSeed derives the i-th child seed of a parent seed using a SplitMix64
// finalizer over a Weyl sequence step. Children are statistically
// independent of each other and of the parent stream, so per-item RNGs
// seeded this way decouple stochastic work from execution order.
func SplitSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
