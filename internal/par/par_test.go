package par

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := SetWorkers(n)
	defer SetWorkers(prev)
	fn()
}

func TestWorkersDefaultAndOverride(t *testing.T) {
	prev := SetWorkers(0)
	defer SetWorkers(prev)
	if Workers() < 1 {
		t.Fatalf("Workers() = %d", Workers())
	}
	if got := SetWorkers(3); got < 1 {
		t.Fatalf("SetWorkers returned %d", got)
	}
	if Workers() != 3 {
		t.Fatalf("override not applied: %d", Workers())
	}
	if got := SetWorkers(-1); got != 3 {
		t.Fatalf("previous value = %d, want 3", got)
	}
	if Workers() < 1 {
		t.Fatalf("cleared override broken: %d", Workers())
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 7} {
		withWorkers(t, w, func() {
			const n = 1000
			hits := make([]int32, n)
			For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d index %d hit %d times", w, i, h)
				}
			}
		})
	}
	For(0, func(int) { t.Fatal("called for n=0") })
	For(-3, func(int) { t.Fatal("called for n<0") })
}

func TestMapOrderedResults(t *testing.T) {
	for _, w := range []int{1, 5} {
		withWorkers(t, w, func() {
			out, err := Map(100, func(i int) (int, error) { return i * i, nil })
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("out[%d] = %d", i, v)
				}
			}
		})
	}
}

func TestMapReportsLowestIndexError(t *testing.T) {
	withWorkers(t, 8, func() {
		wantErr := errors.New("boom")
		out, err := Map(200, func(i int) (int, error) {
			if i == 17 || i == 150 {
				return 0, fmt.Errorf("index %d: %w", i, wantErr)
			}
			return i, nil
		})
		if out != nil {
			t.Fatal("results returned despite error")
		}
		if !errors.Is(err, wantErr) || err.Error() != "index 17: boom" {
			t.Fatalf("err = %v, want index 17", err)
		}
	})
}

func TestShardBoundsPartition(t *testing.T) {
	for _, tc := range []struct{ n, grain int }{{10, 3}, {256, 256}, {1000, 64}, {5, 100}, {1, 1}} {
		shards := NumShards(tc.n, tc.grain)
		covered := 0
		for s := 0; s < shards; s++ {
			lo, hi := ShardBounds(tc.n, tc.grain, s)
			if lo != covered {
				t.Fatalf("n=%d grain=%d shard %d lo=%d want %d", tc.n, tc.grain, s, lo, covered)
			}
			if hi <= lo || hi > tc.n {
				t.Fatalf("n=%d grain=%d shard %d bounds [%d,%d)", tc.n, tc.grain, s, lo, hi)
			}
			covered = hi
		}
		if covered != tc.n {
			t.Fatalf("n=%d grain=%d covered %d", tc.n, tc.grain, covered)
		}
	}
	if NumShards(0, 16) != 0 {
		t.Fatal("empty input has shards")
	}
}

// TestShardedReductionBitIdentical is the core determinism property: a
// float reduction over per-shard partials combined in shard order yields
// bit-identical sums for every worker count.
func TestShardedReductionBitIdentical(t *testing.T) {
	const n, grain = 10000, 256
	rng := rand.New(rand.NewSource(42))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 1e6
	}
	reduce := func() float64 {
		partial := make([]float64, NumShards(n, grain))
		ForShards(n, grain, func(s, lo, hi int) {
			acc := 0.0
			for i := lo; i < hi; i++ {
				acc += vals[i]
			}
			partial[s] = acc
		})
		total := 0.0
		for _, p := range partial {
			total += p
		}
		return total
	}
	var want float64
	for i, w := range []int{1, 2, 3, 8, 32} {
		withWorkers(t, w, func() {
			got := reduce()
			if i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("workers=%d sum %x differs from %x", w, got, want)
			}
		})
	}
}

func TestSplitSeedIndependence(t *testing.T) {
	seen := make(map[int64]bool)
	for _, seed := range []int64{0, 1, 2, -7, 1 << 40} {
		for i := 0; i < 100; i++ {
			s := SplitSeed(seed, i)
			if seen[s] {
				t.Fatalf("collision at seed=%d i=%d", seed, i)
			}
			seen[s] = true
		}
	}
	if SplitSeed(1, 0) != SplitSeed(1, 0) {
		t.Fatal("SplitSeed not deterministic")
	}
}
