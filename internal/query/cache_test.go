package query

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/feature"
	"repro/internal/index"
	"repro/internal/store"
)

// cachedFixture mirrors setup but routes the engine through NewCached.
func cachedFixture(t *testing.T, capacity int) *fixture {
	t.Helper()
	f := setup(t, false)
	f.eng = NewCached(f.st, capacity)
	return f
}

func kwQuery(term string) Query {
	return Query{Textual: &TextualClause{Terms: []string{term}}}
}

// TestCacheHitThenWriteInvalidates: a repeat query is served from cache;
// any store write bumps the generation and forces re-execution, and the
// re-executed result reflects the write.
func TestCacheHitThenWriteInvalidates(t *testing.T) {
	f := cachedFixture(t, 0)
	ctx := context.Background()
	q := kwQuery("tent")

	first, _, err := f.eng.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	second, plan, err := f.eng.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if st := f.eng.Stats(); st.Hits != 1 || st.Misses != 1 || st.Shared != 0 {
		t.Fatalf("stats after repeat = %+v, want 1 hit / 1 miss", st)
	}
	if len(second) != len(first) {
		t.Fatalf("cached result len %d != fresh %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("cached result differs at %d: %+v vs %+v", i, first[i], second[i])
		}
	}
	if s := plan.String(); !strings.Contains(s, "result-cache hit") {
		t.Fatalf("hit plan lacks cache step: %s", s)
	}

	// A write of any kind invalidates: tag one more image with "tent".
	if err := f.st.AddKeywords(f.ids[1], []string{"tent"}); err != nil {
		t.Fatal(err)
	}
	third, _, err := f.eng.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if st := f.eng.Stats(); st.Misses != 2 {
		t.Fatalf("stats after write = %+v, want a second miss", st)
	}
	if len(third) != len(first)+1 {
		t.Fatalf("post-write result has %d hits, want %d", len(third), len(first)+1)
	}
}

// TestCacheSingleflightShare drives the follower path deterministically:
// with a flight installed for the key, Run blocks until the leader
// completes and then shares its result without executing.
func TestCacheSingleflightShare(t *testing.T) {
	f := cachedFixture(t, 0)
	ctx := context.Background()
	q := kwQuery("trash")

	want, _, err := New(f.st).Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	key := canonicalKey(q)
	gen := f.st.Generation()
	c := f.eng.cache
	fl := &flight{done: make(chan struct{}), gen: gen}
	c.mu.Lock()
	c.inflight[key] = fl
	c.mu.Unlock()

	type res struct {
		out  []Result
		plan Plan
		err  error
	}
	got := make(chan res, 1)
	go func() {
		out, plan, err := f.eng.Run(ctx, q)
		got <- res{out, plan, err}
	}()

	select {
	case r := <-got:
		t.Fatalf("follower returned before leader completed: %+v", r)
	case <-time.After(20 * time.Millisecond):
	}

	// Complete the leader's flight.
	fl.out, fl.plan = want, Plan{Driving: "textual"}
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(fl.done)

	r := <-got
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.out) != len(want) {
		t.Fatalf("shared result len %d != leader's %d", len(r.out), len(want))
	}
	if s := r.plan.String(); !strings.Contains(s, "shared in-flight execution") {
		t.Fatalf("follower plan lacks share step: %s", s)
	}
	if st := f.eng.Stats(); st.Shared != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want exactly one share", st)
	}
}

// TestCacheSingleflightLeaderErrorNotShared: a follower whose leader
// failed (or ran at a different generation) re-executes independently
// instead of inheriting the leader's outcome.
func TestCacheSingleflightLeaderErrorNotShared(t *testing.T) {
	f := cachedFixture(t, 0)
	ctx := context.Background()
	q := kwQuery("weeds")

	key := canonicalKey(q)
	c := f.eng.cache
	fl := &flight{done: make(chan struct{}), gen: f.st.Generation(), err: context.Canceled}
	c.mu.Lock()
	c.inflight[key] = fl
	c.mu.Unlock()
	close(fl.done) // leader already failed

	out, _, err := f.eng.Run(ctx, q)
	if err != nil {
		t.Fatalf("follower inherited leader error: %v", err)
	}
	if len(out) == 0 {
		t.Fatal("independent re-execution returned nothing")
	}
	if st := f.eng.Stats(); st.Misses != 1 || st.Shared != 0 {
		t.Fatalf("stats = %+v, want one miss, no shares", st)
	}
}

// TestCacheConcurrentIdentical hammers one query from many goroutines
// under the race detector: every call must succeed with the same result,
// and every call is accounted exactly once in the stats.
func TestCacheConcurrentIdentical(t *testing.T) {
	f := cachedFixture(t, 0)
	ctx := context.Background()
	q := Query{Visual: &VisualClause{Kind: string(feature.KindColorHist), Vec: []float64{3, 0}, K: 5, Exact: true}}

	want, _, err := New(f.st).Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 16
	var wg sync.WaitGroup
	errs := make([]error, callers)
	outs := make([][]Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], _, errs[i] = f.eng.Run(ctx, q)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if len(outs[i]) != len(want) {
			t.Fatalf("caller %d: %d results, want %d", i, len(outs[i]), len(want))
		}
		for j := range want {
			if outs[i][j] != want[j] {
				t.Fatalf("caller %d result %d = %+v, want %+v", i, j, outs[i][j], want[j])
			}
		}
	}
	st := f.eng.Stats()
	if st.Hits+st.Misses+st.Shared != callers {
		t.Fatalf("stats %+v do not account for %d calls", st, callers)
	}
	if st.Misses < 1 {
		t.Fatalf("stats %+v: at least one execution required", st)
	}
}

// TestCacheLRUBound: the cache never holds more than its capacity and
// evicts least-recently-used keys first.
func TestCacheLRUBound(t *testing.T) {
	f := cachedFixture(t, 2)
	ctx := context.Background()
	qs := []Query{kwQuery("tent"), kwQuery("trash"), kwQuery("weeds")}
	for _, q := range qs {
		if _, _, err := f.eng.Run(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	c := f.eng.cache
	c.mu.Lock()
	n, ll := len(c.entries), c.ll.Len()
	_, oldest := c.entries[canonicalKey(qs[0])]
	c.mu.Unlock()
	if n != 2 || ll != 2 {
		t.Fatalf("cache holds %d entries (list %d), want capacity 2", n, ll)
	}
	if oldest {
		t.Fatal("least-recently-used entry not evicted")
	}
	// Re-running the evicted query is a miss; the resident ones are hits.
	if _, _, err := f.eng.Run(ctx, qs[0]); err != nil {
		t.Fatal(err)
	}
	if st := f.eng.Stats(); st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 4 misses after eviction", st)
	}
}

// TestCanonicalKeyDistinguishesQueries: near-miss queries must not alias.
func TestCanonicalKeyDistinguishesQueries(t *testing.T) {
	base := Query{Visual: &VisualClause{Kind: "cnn", Vec: []float64{1, 2}, K: 5}}
	variants := []Query{
		{Visual: &VisualClause{Kind: "cnn", Vec: []float64{1, 2}, K: 6}},
		{Visual: &VisualClause{Kind: "cnn", Vec: []float64{1, 2.5}, K: 5}},
		{Visual: &VisualClause{Kind: "cnn2", Vec: []float64{1, 2}, K: 5}},
		{Visual: &VisualClause{Kind: "cnn", Vec: []float64{1, 2}, K: 5, Exact: true}},
		{Visual: &VisualClause{Kind: "cnn", Vec: []float64{1, 2}, K: 5, Quant: true}},
		{Visual: &VisualClause{Kind: "cnn", Vec: []float64{1, 2}, K: 5}, Limit: 3},
		{Visual: &VisualClause{Kind: "cnn", Vec: []float64{1, 2}, K: 5},
			Textual: &TextualClause{Terms: []string{"a"}}},
	}
	seen := map[string]bool{canonicalKey(base): true}
	for i, v := range variants {
		k := canonicalKey(v)
		if seen[k] {
			t.Fatalf("variant %d aliases an earlier query: %q", i, k)
		}
		seen[k] = true
	}
	if canonicalKey(base) != canonicalKey(base) {
		t.Fatal("key not deterministic")
	}
}

// gatedBackend wraps the fixture store but parks SearchText until the
// gate opens, so a test can hold a leader mid-flight while followers
// queue behind its singleflight entry.
type gatedBackend struct {
	store.Backend
	gate chan struct{}
}

func (g *gatedBackend) SearchText(ctx context.Context, terms []string) ([]index.Match, error) {
	<-g.gate
	return g.Backend.SearchText(ctx, terms)
}

// TestCacheFlightMutationIsolation pins the singleflight aliasing fix:
// the leader's returned slice must not share a backing array with what
// followers copy out of the flight. Before the fix, the flight stored
// the leader's own result slice, so a leader's caller mutating its
// results raced with — and corrupted — every follower's copy. The gate
// makes the overlap deterministic: the follower is provably parked on
// the flight before the leader completes, then the leader's caller
// scribbles over its result while the follower reads its share.
func TestCacheFlightMutationIsolation(t *testing.T) {
	f := setup(t, false)
	gb := &gatedBackend{Backend: f.st, gate: make(chan struct{})}
	eng := NewCached(gb, 0)
	ctx := context.Background()
	q := kwQuery("trash")

	want, _, err := New(f.st).Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture query returned nothing; the test needs results to mutate")
	}

	leaderOut := make(chan []Result, 1)
	go func() {
		out, _, err := eng.Run(ctx, q)
		if err != nil {
			t.Error(err)
		}
		leaderOut <- out
	}()
	// Wait until the leader has installed its flight (it is now parked on
	// the gate inside SearchText).
	key := canonicalKey(q)
	c := eng.cache
	for {
		c.mu.Lock()
		_, inflight := c.inflight[key]
		c.mu.Unlock()
		if inflight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	followerOut := make(chan []Result, 1)
	go func() {
		out, _, err := eng.Run(ctx, q)
		if err != nil {
			t.Error(err)
		}
		followerOut <- out
	}()
	// Give the follower time to park on the flight's done channel, then
	// release the leader.
	time.Sleep(10 * time.Millisecond)
	close(gb.gate)

	out := <-leaderOut
	for j := range out {
		// Mutate in place, as an API handler post-processing its response
		// may; with aliasing this scribbles over the follower's source.
		out[j] = Result{ID: ^uint64(0), Score: -1}
	}
	got := <-followerOut
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("follower result corrupted by leader-caller mutation at %d: %+v", j, got[j])
		}
	}
	if st := eng.Stats(); st.Shared != 1 {
		t.Fatalf("stats = %+v; the follower did not take the share path, test proved nothing", st)
	}
}

// Stats returns a snapshot of the cache counters; zero-valued for an
// uncached engine.
func (e *Engine) Stats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	e.cache.mu.Lock()
	defer e.cache.mu.Unlock()
	return e.cache.stats
}
