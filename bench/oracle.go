package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/api"
)

// The oracle answers queries by brute force over the generator's own rows.
// It relies only on the result orders documented on store.Backend and
// query.Engine: visual hits ascend by (distance, id); a rect-driven visual
// re-rank scores by squared distance; rect and label filters return ascending
// ids; a time-driven query returns ascending (capture time, id).

func sqL2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
}

type scored struct {
	id uint64
	d  float64
}

// nearest returns the k rows nearest vec among those keep admits, ascending
// by (squared distance, id).
func (c *corpus) nearest(vec []float64, k int, keep func(*row) bool) []scored {
	var all []scored
	for i := range c.rows {
		r := &c.rows[i]
		if r.vec == nil || (keep != nil && !keep(r)) {
			continue
		}
		all = append(all, scored{r.id, sqL2(vec, r.vec)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d < all[j].d
		}
		return all[i].id < all[j].id
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// expect returns the exact answer of a filter-shaped query (every kind but
// the two approximate visual scans).
func (c *corpus) expect(q query) []scored {
	var out []scored
	switch q.kind {
	case qRectVisual:
		out = c.nearest(q.vec, topK, func(r *row) bool { return r.scene.Intersects(q.rect) })
	case qRect:
		for i := range c.rows {
			if c.rows[i].scene.Intersects(q.rect) {
				out = append(out, scored{id: c.rows[i].id})
			}
		}
	case qTextTime, qLabelTime:
		var hits []*row
		for i := range c.rows {
			r := &c.rows[i]
			if r.at.Before(q.from) || r.at.After(q.to) {
				continue
			}
			if q.kind == qLabelTime && r.label != q.label {
				continue
			}
			if q.kind == qTextTime && !hasAny(r.kws, q.terms) {
				continue
			}
			hits = append(hits, r)
		}
		if q.kind == qTextTime {
			sort.Slice(hits, func(i, j int) bool { return hits[i].at.Before(hits[j].at) })
		}
		for _, r := range hits {
			out = append(out, scored{id: r.id})
		}
	}
	if q.limit > 0 && len(out) > q.limit {
		out = out[:q.limit]
	}
	return out
}

func hasAny(kws, terms []string) bool {
	for _, k := range kws {
		for _, t := range terms {
			if k == t {
				return true
			}
		}
	}
	return false
}

// checkSearch verifies one response against the generator's rows. Approximate
// visual scans are checked for internal consistency (each hit is a stored row
// at its true distance, in order); their completeness is what recall measures.
func (c *corpus) checkSearch(q query, resp api.SearchResponse) error {
	hits := resp.Results
	if q.kind == qLSH || q.kind == qQuant {
		if len(hits) > topK {
			return fmt.Errorf("%s: %d hits for k=%d", qkindNames[q.kind], len(hits), topK)
		}
		for i, h := range hits {
			r := c.row(h.ID)
			if r == nil {
				return fmt.Errorf("%s: hit %d is not a stored row", qkindNames[q.kind], h.ID)
			}
			if want := math.Sqrt(sqL2(q.vec, r.vec)); !near(h.Score, want) {
				return fmt.Errorf("%s: hit %d scored %g, true distance %g", qkindNames[q.kind], h.ID, h.Score, want)
			}
			if i > 0 && (h.Score < hits[i-1].Score || h.Score == hits[i-1].Score && h.ID < hits[i-1].ID) {
				return fmt.Errorf("%s: hits out of order at %d", qkindNames[q.kind], i)
			}
		}
		return nil
	}
	want := c.expect(q)
	if len(hits) != len(want) {
		return fmt.Errorf("%s: %d hits, want %d", qkindNames[q.kind], len(hits), len(want))
	}
	for i, h := range hits {
		if h.ID != want[i].id || !near(h.Score, want[i].d) {
			return fmt.Errorf("%s: hit %d is (%d, %g), want (%d, %g)", qkindNames[q.kind], i, h.ID, h.Score, want[i].id, want[i].d)
		}
	}
	return nil
}

// recall is the share of the true top-k of vec that hits contains.
func (c *corpus) recall(vec []float64, hits []api.SearchHit) float64 {
	truth := c.nearest(vec, topK, nil)
	if len(truth) == 0 {
		return 1
	}
	in := make(map[uint64]bool, len(hits))
	for _, h := range hits {
		in[h.ID] = true
	}
	found := 0
	for _, t := range truth {
		if in[t.id] {
			found++
		}
	}
	return float64(found) / float64(len(truth))
}
