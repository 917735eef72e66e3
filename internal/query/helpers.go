package query

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/vecmath"
)

// Entry points beside Run: the label lookup callers use by name, and the
// forced two-phase plan ablation A3 measures against. Each takes the
// caller's request context and inherits Run's cancellation contract.

// ByLabel returns images annotated with the label.
func (e *Engine) ByLabel(ctx context.Context, classification, label string) ([]Result, error) {
	out, _, err := e.Run(ctx, Query{Categorical: &CategoricalClause{Classification: classification, Label: label}})
	return out, err
}

// TwoPhaseSpatialVisual forces the two-phase plan — r-tree filter, then
// per-candidate visual re-rank — regardless of hybrid availability. It is
// the baseline of ablation A3. The fetch loop polls ctx every
// scanCheckpoint candidates between feature-fetch rounds.
func (e *Engine) TwoPhaseSpatialVisual(ctx context.Context, r geo.Rect, kind string, vec []float64, k int) ([]Result, error) {
	ids, err := e.st.SearchScene(ctx, r)
	if err != nil {
		return nil, err
	}
	type sc struct {
		id uint64
		d  float64
	}
	out := make([]sc, 0, len(ids))
	for i, id := range ids {
		if i%scanCheckpoint == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		f, err := e.st.GetFeature(id, kind)
		if err != nil {
			continue // images without the feature are not rankable
		}
		if len(f) != len(vec) {
			return nil, fmt.Errorf("%w: query vec has %d dims, feature %q has %d",
				index.ErrDimMismatch, len(vec), kind, len(f))
		}
		out = append(out, sc{id: id, d: vecmath.SquaredL2(f, vec)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].d != out[j].d {
			return out[i].d < out[j].d
		}
		return out[i].id < out[j].id
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	rs := make([]Result, len(out))
	for i, s := range out {
		rs[i] = Result{ID: s.id, Score: s.d}
	}
	return rs, nil
}
