package shard

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/store"
)

// Scatter-gather query tier.
//
// Every Search* fans out to all shards concurrently, then merges under
// the same total order a single store uses — (Dist, ID) for visual and
// nearest matches, (score desc, ID) for text, (time, ID) for temporal
// ranges, ascending ID where unranked — so the merged result is
// bit-identical for any shard count wherever the per-shard primitive is
// itself partition-invariant (exact visual scans, text with global IDF,
// spatial nearest under the tie-collecting walk, scene, time).
//
// Failure semantics: any shard error fails the whole query; there are no
// partial results. Partial answers would poison the generation-stamped
// result cache (a cached partial is indistinguishable from a complete
// one) and break shard-count invariance, so a deadline on one shard
// surfaces as the query's error rather than a quietly smaller result.

// reserveFrac and reserveCap size the slice of the caller's remaining
// deadline budget held back for the merge step: 10% of what is left,
// at most 50ms.
const (
	reserveFrac = 10
	reserveCap  = 50 * time.Millisecond
)

// sliceDeadline derives the per-shard probe context: the parent's
// deadline minus a merge reserve. Contexts without a deadline pass
// through (cancellation still propagates). The returned cancel must be
// called.
func sliceDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	if !ok {
		return context.WithCancel(ctx)
	}
	remaining := time.Until(dl)
	reserve := remaining / reserveFrac
	if reserve > reserveCap {
		reserve = reserveCap
	}
	if reserve > 0 {
		dl = dl.Add(-reserve)
	}
	return context.WithDeadline(ctx, dl)
}

// fanOut probes every shard concurrently and collects the results in
// shard order. On any probe error the remaining probes are cancelled and
// the first error observed wins, preferring a root cause over the
// context.Canceled noise the cancellation itself induces in siblings.
// All probe goroutines are joined before return — no leaks, even when
// the caller's context dies mid-flight.
func fanOut[T any](ctx context.Context, shards []*store.Store, probe func(context.Context, *store.Store) (T, error)) ([]T, error) {
	if len(shards) == 1 {
		out, err := probe(ctx, shards[0])
		if err != nil {
			return nil, err
		}
		return []T{out}, nil
	}
	pctx, cancel := sliceDeadline(ctx)
	defer cancel()
	results := make([]T, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s *store.Store) {
			defer wg.Done()
			out, err := probe(pctx, s)
			if err != nil {
				errs[i] = err
				cancel() // stop sibling probes; their work is already wasted
				return
			}
			results[i] = out
		}(i, s)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		// A sibling cancelled by our own cancel() reports
		// context.Canceled; the probe that actually failed holds the root
		// cause. Prefer it.
		if first == context.Canceled && err != context.Canceled {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	return results, nil
}

// mergeMatches k-way merges per-shard match lists (each already sorted
// under (Dist, ID)) into one ordered list, truncated to k when k > 0.
func mergeMatches(lists [][]index.Match, k int) []index.Match {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	out := make([]index.Match, 0, total)
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// mergeScored merges score-ranked lists (score descending, ID ascending
// on ties) — the text-search order.
func mergeScored(lists [][]index.Match) []index.Match {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	out := make([]index.Match, 0, total)
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist > out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// mergeIDs merges unranked ID lists, ascending.
func mergeIDs(lists [][]uint64) []uint64 {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	out := make([]uint64, 0, total)
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SearchScene scatters the scene-intersection query; IDs merge
// ascending.
func (c *Coordinator) SearchScene(ctx context.Context, r geo.Rect) ([]uint64, error) {
	lists, err := fanOut(ctx, c.shards, func(ctx context.Context, s *store.Store) ([]uint64, error) {
		return s.SearchScene(ctx, r)
	})
	if err != nil {
		return nil, err
	}
	return mergeIDs(lists), nil
}

// SearchNearest gathers per-shard scored top-k lists and re-selects the
// global top-k under (Dist, ID), then strips the scores.
func (c *Coordinator) SearchNearest(ctx context.Context, p geo.Point, k int) ([]uint64, error) {
	lists, err := fanOut(ctx, c.shards, func(ctx context.Context, s *store.Store) ([]index.Match, error) {
		return s.SearchNearestScored(ctx, p, k)
	})
	if err != nil {
		return nil, err
	}
	ms := mergeMatches(lists, k)
	out := make([]uint64, len(ms))
	for i, m := range ms {
		out[i] = m.ID
	}
	return out, nil
}

// SearchVisual merges per-shard LSH top-k lists under (Dist, ID).
func (c *Coordinator) SearchVisual(ctx context.Context, kind string, vec []float64, k int) ([]index.Match, error) {
	lists, err := fanOut(ctx, c.shards, func(ctx context.Context, s *store.Store) ([]index.Match, error) {
		return s.SearchVisual(ctx, kind, vec, k)
	})
	if err != nil {
		return nil, err
	}
	return mergeMatches(lists, k), nil
}

// SearchVisualQuant merges per-shard quantized-scan top-k lists.
func (c *Coordinator) SearchVisualQuant(ctx context.Context, kind string, vec []float64, k int) ([]index.Match, error) {
	lists, err := fanOut(ctx, c.shards, func(ctx context.Context, s *store.Store) ([]index.Match, error) {
		return s.SearchVisualQuant(ctx, kind, vec, k)
	})
	if err != nil {
		return nil, err
	}
	return mergeMatches(lists, k), nil
}

// SearchVisualExact merges per-shard exact-scan top-k lists. Because the
// per-shard scan is exhaustive, the merged list is bit-identical to a
// single store's for any shard count.
func (c *Coordinator) SearchVisualExact(ctx context.Context, kind string, vec []float64, k int) ([]index.Match, error) {
	lists, err := fanOut(ctx, c.shards, func(ctx context.Context, s *store.Store) ([]index.Match, error) {
		return s.SearchVisualExact(ctx, kind, vec, k)
	})
	if err != nil {
		return nil, err
	}
	return mergeMatches(lists, k), nil
}

// SearchVisualRadius merges per-shard radius scans (unbounded k).
func (c *Coordinator) SearchVisualRadius(ctx context.Context, kind string, vec []float64, r float64) ([]index.Match, error) {
	lists, err := fanOut(ctx, c.shards, func(ctx context.Context, s *store.Store) ([]index.Match, error) {
		return s.SearchVisualRadius(ctx, kind, vec, r)
	})
	if err != nil {
		return nil, err
	}
	return mergeMatches(lists, 0), nil
}

// SearchHybrid is available iff every shard reports the kind hybrid-
// configured. Availability is config-driven (identical across shards),
// so ok is shard-invariant; a !ok from any shard cancels the remaining
// probes via the fan-out error path and reports unavailable.
func (c *Coordinator) SearchHybrid(ctx context.Context, kind string, r geo.Rect, vec []float64, k int) ([]index.Match, bool, error) {
	type hybridOut struct {
		ms []index.Match
		ok bool
	}
	lists, err := fanOut(ctx, c.shards, func(ctx context.Context, s *store.Store) (hybridOut, error) {
		ms, ok, err := s.SearchHybrid(ctx, kind, r, vec, k)
		if err != nil {
			return hybridOut{}, err
		}
		if !ok {
			// Not an error, but further probing is pointless: surface
			// unavailability through the error path to cancel siblings,
			// then translate back below.
			return hybridOut{}, errHybridUnavailable
		}
		return hybridOut{ms: ms, ok: true}, nil
	})
	if err == errHybridUnavailable {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	merged := make([][]index.Match, len(lists))
	for i, h := range lists {
		merged[i] = h.ms
	}
	return mergeMatches(merged, k), true, nil
}

// errHybridUnavailable is a sentinel carrying "kind not hybrid-indexed"
// through the fan-out error path. Never returned to callers.
var errHybridUnavailable = errSentinel("shard: hybrid unavailable")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

// SearchText scores each shard's postings under global corpus statistics
// (docs and document frequencies summed across shards), then merges by
// (score desc, ID). Global IDF is what makes the ranking identical to a
// single index over the union corpus.
func (c *Coordinator) SearchText(ctx context.Context, terms []string) ([]index.Match, error) {
	return c.searchTextStats(ctx, terms, false)
}

// SearchTextAll is the conjunctive variant of SearchText. The AND filter
// is shard-local, which is exact: all keywords of an image live on its
// shard.
func (c *Coordinator) SearchTextAll(ctx context.Context, terms []string) ([]index.Match, error) {
	return c.searchTextStats(ctx, terms, true)
}

func (c *Coordinator) searchTextStats(ctx context.Context, terms []string, conjunctive bool) ([]index.Match, error) {
	type stats struct {
		docs int
		df   []int
	}
	// Phase 1: gather per-shard corpus statistics.
	perShard, err := fanOut(ctx, c.shards, func(ctx context.Context, s *store.Store) (stats, error) {
		docs, df, err := s.TextStats(ctx, terms)
		return stats{docs: docs, df: df}, err
	})
	if err != nil {
		return nil, err
	}
	docs := 0
	df := make([]int, len(terms))
	for _, st := range perShard {
		docs += st.docs
		for i, d := range st.df {
			df[i] += d
		}
	}
	// Phase 2: score each shard under the global statistics.
	lists, err := fanOut(ctx, c.shards, func(ctx context.Context, s *store.Store) ([]index.Match, error) {
		if conjunctive {
			return s.SearchTextAllStats(ctx, terms, docs, df)
		}
		return s.SearchTextStats(ctx, terms, docs, df)
	})
	if err != nil {
		return nil, err
	}
	return mergeScored(lists), nil
}

// FilterIDs splits the candidates by owning shard, filters each part on
// its shard, and re-interleaves the survivors in input order. Every
// predicate reads only the candidate's own rows, which live on its
// shard, so the answer matches a single store's. The per-shard calls are
// map probes, so they run one after another rather than on fan-out
// goroutines. With candidates missing on several shards, the error names
// the first missing one of the lowest-numbered such shard.
func (c *Coordinator) FilterIDs(ctx context.Context, ids []uint64, f store.IDFilter) ([]uint64, error) {
	parts := make([][]uint64, len(c.shards))
	for _, id := range ids {
		i := c.shardIndex(id)
		parts[i] = append(parts[i], id)
	}
	for i, s := range c.shards {
		kept, err := s.FilterIDs(ctx, parts[i], f)
		if err != nil {
			return nil, err
		}
		parts[i] = kept
	}
	// Each part is a subsequence of the input's ids on that shard, so one
	// cursor per shard restores input order.
	out := make([]uint64, 0, len(ids))
	for _, id := range ids {
		i := c.shardIndex(id)
		if len(parts[i]) > 0 && parts[i][0] == id {
			out = append(out, id)
			parts[i] = parts[i][1:]
		}
	}
	return out, nil
}

// SearchTime interleaves per-shard range scans under (time, ID), then
// strips the timestamps.
func (c *Coordinator) SearchTime(ctx context.Context, from, to time.Time) ([]uint64, error) {
	lists, err := fanOut(ctx, c.shards, func(ctx context.Context, s *store.Store) ([]index.TimeEntry, error) {
		return s.SearchTimeEntries(ctx, from, to)
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total == 0 {
		return nil, nil
	}
	entries := make([]index.TimeEntry, 0, total)
	for _, l := range lists {
		entries = append(entries, l...)
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].At.Equal(entries[j].At) {
			return entries[i].At.Before(entries[j].At)
		}
		return entries[i].ID < entries[j].ID
	})
	out := make([]uint64, len(entries))
	for i, e := range entries {
		out[i] = e.ID
	}
	return out, nil
}
