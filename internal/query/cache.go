package query

import (
	"container/list"
	"context"
	"math"
	"strconv"
	"strings"
	"sync"
)

// The result cache memoizes whole query executions behind a
// generation-stamped, singleflight-deduplicated LRU:
//
//   - Every entry is stamped with the store's data-plane mutation
//     generation observed *before* the query executed. A lookup serves
//     the entry only while store.Generation() still equals the stamp, so
//     any write — image, feature, annotation, keyword, classification,
//     video, delete — invalidates the whole cache at once. Conservative,
//     but never stale, and free on the write path (one atomic add).
//   - Concurrent identical queries collapse onto one execution
//     (singleflight): the first caller becomes the leader and runs the
//     query; followers block on its completion and share the result if
//     the leader saw the same generation and no error. A follower whose
//     generation differs, or whose leader failed (including leader
//     context cancellation), re-executes independently — a cancelled
//     leader must not poison unrelated callers.
//   - Capacity is bounded by LRU eviction.
//
// The cached path gives exactly the uncached path's consistency: store
// reads take per-call locks, so neither path snapshots across clauses.

// CacheStats counts cache outcomes since engine construction.
type CacheStats struct {
	// Hits served a stored result at a matching generation.
	Hits uint64
	// Misses executed the query (leader executions and independent
	// re-executions after a failed or mismatched flight).
	Misses uint64
	// Shared piggybacked on a concurrent leader's execution.
	Shared uint64
}

type cacheEntry struct {
	key  string
	gen  uint64
	out  []Result
	plan Plan
}

// flight is one in-progress leader execution followers may wait on.
type flight struct {
	done chan struct{}
	gen  uint64
	out  []Result
	plan Plan
	err  error
}

type resultCache struct {
	mu       sync.Mutex
	capacity int
	//tvdp:guardedby mu
	ll *list.List // front = most recently used
	//tvdp:guardedby mu
	entries map[string]*list.Element
	//tvdp:guardedby mu
	inflight map[string]*flight
	//tvdp:guardedby mu
	stats CacheStats
}

func newResultCache(capacity int) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resultCache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// lookup returns a copy of the entry under key if it exists at exactly
// generation gen; a stale entry is evicted on sight.
func (c *resultCache) lookup(key string, gen uint64) ([]Result, Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	elem, ok := c.entries[key]
	if !ok {
		return nil, Plan{}, false
	}
	ent := elem.Value.(*cacheEntry)
	if ent.gen != gen {
		c.ll.Remove(elem)
		delete(c.entries, key)
		return nil, Plan{}, false
	}
	c.ll.MoveToFront(elem)
	c.stats.Hits++
	return copyResults(ent.out), copyPlan(ent.plan, "result-cache hit"), true
}

// insert stores a successful execution, evicting the LRU tail past
// capacity. The entry only ever serves while Generation() == gen, so
// inserting a result whose execution raced a write is harmless: the
// generation has already moved on and the entry is dead on arrival.
func (c *resultCache) insert(key string, gen uint64, out []Result, plan Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.entries[key]; ok {
		c.ll.Remove(elem)
		delete(c.entries, key)
	}
	ent := &cacheEntry{key: key, gen: gen, out: copyResults(out), plan: copyPlan(plan)}
	c.entries[key] = c.ll.PushFront(ent)
	for c.ll.Len() > c.capacity {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).key)
	}
}

func copyResults(rs []Result) []Result {
	out := make([]Result, len(rs))
	copy(out, rs)
	return out
}

// copyPlan deep-copies the steps slice (appending to a shared backing
// array from two goroutines would race) and tacks on any extra steps.
func copyPlan(p Plan, extra ...string) Plan {
	steps := make([]string, 0, len(p.Steps)+len(extra))
	steps = append(steps, p.Steps...)
	steps = append(steps, extra...)
	return Plan{Driving: p.Driving, Steps: steps}
}

// runCached wraps runUncached in the generation-stamped singleflight
// cache. See the package comment above for the protocol.
func (e *Engine) runCached(ctx context.Context, q Query) ([]Result, Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, Plan{}, err
	}
	key := canonicalKey(q)
	gen := e.st.Generation()
	if out, plan, ok := e.cache.lookup(key, gen); ok {
		return out, plan, nil
	}

	c := e.cache
	c.mu.Lock()
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, Plan{}, ctx.Err()
		}
		if f.err == nil && f.gen == gen {
			c.mu.Lock()
			c.stats.Shared++
			c.mu.Unlock()
			return copyResults(f.out), copyPlan(f.plan, "shared in-flight execution"), nil
		}
		// Leader failed or ran at another generation: run independently
		// rather than serving its result or its error.
		c.mu.Lock()
		c.stats.Misses++
		c.mu.Unlock()
		return e.runUncached(ctx, q)
	}
	f := &flight{done: make(chan struct{}), gen: gen}
	c.inflight[key] = f
	c.stats.Misses++
	c.mu.Unlock()

	out, plan, err := e.runUncached(ctx, q)
	// The flight must hold its own copies: out is returned to the leader's
	// caller below, and callers may mutate their results in place. Storing
	// the slice itself would alias the leader's return value with every
	// follower's copyResults source — a caller-visible data race.
	if err == nil {
		f.out, f.plan = copyResults(out), copyPlan(plan)
	}
	f.err = err
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
	if err == nil {
		c.insert(key, gen, out, plan)
	}
	return out, plan, err
}

// canonicalKey flattens every clause field into a deterministic string.
// Floats are rendered as IEEE-754 bit patterns (no formatting loss, and
// distinct NaN payloads stay distinct); strings are length-prefixed so
// no delimiter collision can alias two different queries.
func canonicalKey(q Query) string {
	var b strings.Builder
	f := func(x float64) {
		b.WriteString(strconv.FormatUint(math.Float64bits(x), 16))
		b.WriteByte(',')
	}
	i := func(x int) {
		b.WriteString(strconv.Itoa(x))
		b.WriteByte(',')
	}
	s := func(x string) {
		b.WriteString(strconv.Itoa(len(x)))
		b.WriteByte(':')
		b.WriteString(x)
		b.WriteByte(',')
	}
	bo := func(x bool) {
		if x {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
		b.WriteByte(',')
	}
	if sp := q.Spatial; sp != nil {
		b.WriteString("sp|")
		if sp.Rect != nil {
			b.WriteString("r|")
			f(sp.Rect.MinLat)
			f(sp.Rect.MinLon)
			f(sp.Rect.MaxLat)
			f(sp.Rect.MaxLon)
		}
		if sp.Near != nil {
			b.WriteString("n|")
			f(sp.Near.Lat)
			f(sp.Near.Lon)
		}
		i(sp.K)
	}
	if v := q.Visual; v != nil {
		b.WriteString("vi|")
		s(v.Kind)
		i(len(v.Vec))
		for _, x := range v.Vec {
			f(x)
		}
		i(v.K)
		f(v.Radius)
		bo(v.Exact)
		bo(v.Quant)
	}
	for _, c := range q.categoricals() {
		b.WriteString("ca|")
		s(c.Classification)
		s(c.Label)
		f(c.MinConfidence)
	}
	if t := q.Textual; t != nil {
		b.WriteString("tx|")
		i(len(t.Terms))
		for _, term := range t.Terms {
			s(term)
		}
		bo(t.MatchAll)
	}
	if t := q.Temporal; t != nil {
		b.WriteString("tm|")
		b.WriteString(strconv.FormatInt(t.From.UnixNano(), 16))
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(t.To.UnixNano(), 16))
		b.WriteByte(',')
	}
	b.WriteString("l|")
	i(q.Limit)
	return b.String()
}
