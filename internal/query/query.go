// Package query is TVDP's query engine (paper §IV-C). It exposes the five
// single-modal query types — spatial, visual, categorical, textual,
// temporal — and hybrid combinations of them over the store's secondary
// indexes, with a small planner that picks the driving index by estimated
// selectivity and explains the chosen plan.
package query

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/store"
	"repro/internal/vecmath"
)

// scanCheckpoint is the cancellation-poll cadence of the engine's
// candidate loops (visual re-rank, two-phase fetch):
// ctx.Err is consulted once per this many candidates, bounding how much
// work a cancelled query performs past the cancellation instant.
const scanCheckpoint = 256

// Engine executes queries against one store, optionally through a
// generation-stamped singleflight result cache (see cache.go).
type Engine struct {
	st    store.Backend
	cache *resultCache
}

// New returns an uncached engine over st: every Run executes.
func New(st store.Backend) *Engine { return &Engine{st: st} }

// defaultCacheCapacity bounds the cached engine's LRU when the caller
// passes a non-positive capacity.
const defaultCacheCapacity = 512

// NewCached returns an engine whose Run memoizes results in a bounded
// LRU keyed by the canonicalized query, deduplicates concurrent
// identical executions (singleflight), and invalidates on any store
// write via the store's mutation generation. capacity <= 0 selects
// defaultCacheCapacity.
func NewCached(st store.Backend, capacity int) *Engine {
	if capacity <= 0 {
		capacity = defaultCacheCapacity
	}
	return &Engine{st: st, cache: newResultCache(capacity)}
}

// Result is one ranked hit.
type Result struct {
	ID uint64
	// Score is clause-dependent: visual distance (ascending is better),
	// TF-IDF score (descending is better), or 0 for unranked filters.
	Score float64
}

// SpatialClause restricts results to a geographic region or ranks by
// proximity to a point.
type SpatialClause struct {
	// Rect filters to scenes intersecting the rectangle.
	Rect *geo.Rect
	// Near ranks by proximity to the point (used with K).
	Near *geo.Point
	// K bounds Near-driven results.
	K int
}

// VisualClause ranks by feature-space similarity to an example image's
// feature vector.
type VisualClause struct {
	Kind string
	Vec  []float64
	// K bounds results; Radius instead returns all within the distance
	// when > 0.
	K      int
	Radius float64
	// Exact forces a full-precision linear scan instead of LSH (ground
	// truth).
	Exact bool
	// Quant forces a linear scan over int8 quantized codes with exact
	// re-rank of the shortlist — the fast approximate baseline. Exact
	// wins when both are set.
	Quant bool
}

// CategoricalClause filters to images annotated with a label.
type CategoricalClause struct {
	Classification string
	Label          string
	// MinConfidence drops weaker machine annotations.
	MinConfidence float64
}

// TextualClause filters/ranks by manual keywords.
type TextualClause struct {
	Terms []string
	// MatchAll requires every term (conjunctive).
	MatchAll bool
}

// TemporalClause filters by capture time.
type TemporalClause struct {
	From, To time.Time
}

// Query combines clauses; nil clauses are absent. The engine intersects
// all present clauses and ranks by the most informative one.
type Query struct {
	Spatial     *SpatialClause
	Visual      *VisualClause
	Categorical *CategoricalClause
	// Categoricals holds additional label restrictions, possibly under
	// different classification schemes — the cross-scheme translational
	// query of §VII-B (e.g. Encampment AND Graffiti). The most selective
	// drives; the rest filter.
	Categoricals []CategoricalClause
	Textual      *TextualClause
	Temporal     *TemporalClause
	// Limit bounds the result count (0 = no bound).
	Limit int
}

// categoricals merges the sugar field into the list form.
func (q Query) categoricals() []CategoricalClause {
	var out []CategoricalClause
	if q.Categorical != nil {
		out = append(out, *q.Categorical)
	}
	return append(out, q.Categoricals...)
}

// Plan records how a query executed, for observability and tests.
type Plan struct {
	Driving string
	Steps   []string
}

// String implements fmt.Stringer.
func (p Plan) String() string {
	return fmt.Sprintf("driving=%s steps=[%s]", p.Driving, strings.Join(p.Steps, " -> "))
}

// ErrEmptyQuery reports a query with no clauses.
var ErrEmptyQuery = errors.New("query: no clauses")

// Run plans and executes q. The engine checks ctx at every stage boundary
// and at scanCheckpoint cadence inside candidate loops; a cancelled query
// returns ctx's error (context.Canceled / DeadlineExceeded) promptly,
// bounded by one checkpoint grain of work. On a cached engine
// (NewCached) Run may serve a memoized result or share a concurrent
// identical execution; the plan then records it as a cache step.
func (e *Engine) Run(ctx context.Context, q Query) ([]Result, Plan, error) {
	if e.cache != nil {
		return e.runCached(ctx, q)
	}
	return e.runUncached(ctx, q)
}

func (e *Engine) runUncached(ctx context.Context, q Query) ([]Result, Plan, error) {
	if q.Spatial == nil && q.Visual == nil && q.Categorical == nil &&
		len(q.Categoricals) == 0 && q.Textual == nil && q.Temporal == nil {
		return nil, Plan{}, ErrEmptyQuery
	}
	var plan Plan
	if err := ctx.Err(); err != nil {
		return nil, plan, err
	}

	// Single-pass hybrid path: spatial rect + visual top-k over a kind
	// with a maintained hybrid tree.
	if q.Spatial != nil && q.Spatial.Rect != nil && q.Visual != nil && q.Visual.K > 0 &&
		q.Visual.Radius == 0 && !q.Visual.Exact && !q.Visual.Quant &&
		len(q.categoricals()) == 0 && q.Textual == nil && q.Temporal == nil {
		ms, ok, err := e.st.SearchHybrid(ctx, q.Visual.Kind, *q.Spatial.Rect, q.Visual.Vec, q.Visual.K)
		if err != nil {
			return nil, plan, err
		}
		if ok {
			plan.Driving = "hybrid"
			plan.Steps = append(plan.Steps, "hybrid-tree spatial-visual search")
			out := make([]Result, len(ms))
			for i, m := range ms {
				out[i] = Result{ID: m.ID, Score: m.Dist}
			}
			return clip(out, q.Limit), plan, nil
		}
	}

	// Pick the driving clause by typical selectivity: categorical >
	// conjunctive text > temporal > spatial rect > visual > disjunctive
	// text > spatial near.
	cands, ordered, err := e.drive(ctx, q, &plan)
	if err != nil {
		return nil, plan, err
	}
	// Apply remaining clauses as filters.
	cands, err = e.filter(ctx, q, cands, &plan)
	if err != nil {
		return nil, plan, err
	}
	// Rank.
	out, err := e.rank(ctx, q, cands, ordered, &plan)
	if err != nil {
		return nil, plan, err
	}
	return clip(out, q.Limit), plan, nil
}

func clip(rs []Result, limit int) []Result {
	if limit > 0 && len(rs) > limit {
		return rs[:limit]
	}
	return rs
}

// candidate carries per-id state through filtering.
type candidate struct {
	id    uint64
	score float64
	// scored marks ids whose score came from the driving index.
	scored bool
}

// drive evaluates the most selective clause into a candidate list.
// ordered reports that the returned order is meaningful (distance or time)
// and must be preserved absent a re-ranking clause.
func (e *Engine) drive(ctx context.Context, q Query, plan *Plan) (cands []candidate, ordered bool, err error) {
	cats := q.categoricals()
	switch {
	case len(cats) > 0:
		plan.Driving = "categorical"
		plan.Steps = append(plan.Steps, "label index lookup")
		ids, err := e.labelIDs(ctx, cats[0])
		if err != nil {
			return nil, false, err
		}
		return asCandidates(ids), false, nil
	case q.Textual != nil && q.Textual.MatchAll:
		plan.Driving = "textual"
		plan.Steps = append(plan.Steps, "inverted index conjunctive lookup")
		ms, err := e.st.SearchTextAll(ctx, q.Textual.Terms)
		if err != nil {
			return nil, false, err
		}
		out := make([]candidate, len(ms))
		for i, m := range ms {
			out[i] = candidate{id: m.ID, score: m.Dist, scored: true}
		}
		return out, true, nil
	case q.Temporal != nil:
		plan.Driving = "temporal"
		plan.Steps = append(plan.Steps, "temporal index range scan")
		ids, err := e.st.SearchTime(ctx, q.Temporal.From, q.Temporal.To)
		if err != nil {
			return nil, false, err
		}
		return asCandidates(ids), true, nil
	case q.Spatial != nil && q.Spatial.Rect != nil:
		plan.Driving = "spatial"
		plan.Steps = append(plan.Steps, "r-tree range search")
		ids, err := e.st.SearchScene(ctx, *q.Spatial.Rect)
		if err != nil {
			return nil, false, err
		}
		return asCandidates(ids), false, nil
	case q.Visual != nil:
		plan.Driving = "visual"
		ms, err := e.visualMatches(ctx, *q.Visual, plan)
		if err != nil {
			return nil, false, err
		}
		out := make([]candidate, len(ms))
		for i, m := range ms {
			out[i] = candidate{id: m.id, score: m.score, scored: true}
		}
		return out, true, nil
	case q.Textual != nil:
		plan.Driving = "textual"
		plan.Steps = append(plan.Steps, "inverted index disjunctive lookup")
		ms, err := e.st.SearchText(ctx, q.Textual.Terms)
		if err != nil {
			return nil, false, err
		}
		out := make([]candidate, len(ms))
		for i, m := range ms {
			out[i] = candidate{id: m.ID, score: m.Dist, scored: true}
		}
		return out, true, nil
	case q.Spatial != nil && q.Spatial.Near != nil:
		plan.Driving = "spatial"
		plan.Steps = append(plan.Steps, "r-tree nearest-k search")
		k := q.Spatial.K
		if k <= 0 {
			k = q.Limit
		}
		if k <= 0 {
			k = 10
		}
		ids, err := e.st.SearchNearest(ctx, *q.Spatial.Near, k)
		if err != nil {
			return nil, false, err
		}
		return asCandidates(ids), true, nil
	default:
		return nil, false, fmt.Errorf("query: spatial clause needs Rect or Near")
	}
}

type scoredID struct {
	id    uint64
	score float64
}

func (e *Engine) visualMatches(ctx context.Context, v VisualClause, plan *Plan) ([]scoredID, error) {
	switch {
	case v.Exact:
		plan.Steps = append(plan.Steps, "exact visual scan")
		ms, err := e.st.SearchVisualExact(ctx, v.Kind, v.Vec, maxInt(v.K, 1))
		if err != nil {
			return nil, err
		}
		return toScored(ms), nil
	case v.Quant:
		plan.Steps = append(plan.Steps, "quantized visual scan")
		ms, err := e.st.SearchVisualQuant(ctx, v.Kind, v.Vec, maxInt(v.K, 1))
		if err != nil {
			return nil, err
		}
		return toScored(ms), nil
	case v.Radius > 0:
		plan.Steps = append(plan.Steps, "lsh radius probe")
		ms, err := e.st.SearchVisualRadius(ctx, v.Kind, v.Vec, v.Radius)
		if err != nil {
			return nil, err
		}
		return toScored(ms), nil
	default:
		plan.Steps = append(plan.Steps, "lsh top-k probe")
		ms, err := e.st.SearchVisual(ctx, v.Kind, v.Vec, maxInt(v.K, 1))
		if err != nil {
			return nil, err
		}
		return toScored(ms), nil
	}
}

func toScored(ms []index.Match) []scoredID {
	out := make([]scoredID, len(ms))
	for i, m := range ms {
		out[i] = scoredID{id: m.ID, score: m.Dist}
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func asCandidates(ids []uint64) []candidate {
	out := make([]candidate, len(ids))
	for i, id := range ids {
		out[i] = candidate{id: id}
	}
	return out
}

// labelIDs returns the images satisfying a driving categorical clause,
// ascending.
func (e *Engine) labelIDs(ctx context.Context, c CategoricalClause) ([]uint64, error) {
	lf, err := e.labelFilter(ctx, c)
	if err != nil {
		return nil, err
	}
	ids := e.st.ImagesByLabel(lf.ClassificationID, lf.Label)
	if c.MinConfidence <= 0 {
		return ids, nil
	}
	return e.st.FilterIDs(ctx, ids, store.IDFilter{Labels: []store.LabelFilter{lf}})
}

// labelFilter resolves a categorical clause's names to the store's
// classification ID and label index.
func (e *Engine) labelFilter(ctx context.Context, c CategoricalClause) (store.LabelFilter, error) {
	if err := ctx.Err(); err != nil {
		return store.LabelFilter{}, err
	}
	cls, err := e.st.ClassificationByName(c.Classification)
	if err != nil {
		return store.LabelFilter{}, err
	}
	for i, l := range cls.Labels {
		if l == c.Label {
			return store.LabelFilter{ClassificationID: cls.ID, Label: i, MinConfidence: c.MinConfidence}, nil
		}
	}
	return store.LabelFilter{}, fmt.Errorf("query: classification %q has no label %q", c.Classification, c.Label)
}

// filter applies every non-driving clause in one Backend.FilterIDs call,
// keeping the surviving candidates in their driven order.
func (e *Engine) filter(ctx context.Context, q Query, cands []candidate, plan *Plan) ([]candidate, error) {
	var f store.IDFilter
	if q.Spatial != nil && q.Spatial.Rect != nil && plan.Driving != "spatial" && plan.Driving != "hybrid" {
		plan.Steps = append(plan.Steps, "spatial filter")
		f.Scene = q.Spatial.Rect
	}
	if q.Temporal != nil && plan.Driving != "temporal" {
		plan.Steps = append(plan.Steps, "temporal filter")
		f.Time = &store.TimeRange{From: q.Temporal.From, To: q.Temporal.To}
	}
	cats := q.categoricals()
	// When categorical drove, the first clause is already applied; the
	// remaining clauses (possibly under other classification schemes)
	// filter.
	if plan.Driving == "categorical" {
		cats = cats[1:]
	}
	for _, cat := range cats {
		plan.Steps = append(plan.Steps, "categorical filter")
		lf, err := e.labelFilter(ctx, cat)
		if err != nil {
			return nil, err
		}
		f.Labels = append(f.Labels, lf)
	}
	if q.Textual != nil && plan.Driving != "textual" {
		plan.Steps = append(plan.Steps, "textual filter")
		f.Text = &store.TextFilter{Terms: q.Textual.Terms, MatchAll: q.Textual.MatchAll}
	}
	if f.Scene == nil && f.Time == nil && len(f.Labels) == 0 && f.Text == nil {
		return cands, nil
	}
	ids := make([]uint64, len(cands))
	for i, c := range cands {
		ids[i] = c.id
	}
	kept, err := e.st.FilterIDs(ctx, ids, f)
	if err != nil {
		return nil, err
	}
	// kept is a subsequence of ids, so one cursor pairs it back up with
	// the candidates and their driving scores.
	out := cands[:0]
	for _, c := range cands {
		if len(kept) > 0 && kept[0] == c.id {
			out = append(out, c)
			kept = kept[1:]
		}
	}
	return out, nil
}

// rank orders the surviving candidates, polling ctx every scanCheckpoint
// candidates of the visual re-rank scoring loop.
func (e *Engine) rank(ctx context.Context, q Query, cands []candidate, ordered bool, plan *Plan) ([]Result, error) {
	// Visual clause not used as driver: score candidates by feature
	// distance now.
	if q.Visual != nil && plan.Driving != "visual" && plan.Driving != "hybrid" {
		plan.Steps = append(plan.Steps, "visual re-rank")
		for i := range cands {
			if i%scanCheckpoint == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			vec, err := e.st.GetFeature(cands[i].id, q.Visual.Kind)
			if err != nil {
				// Images without the feature rank last.
				cands[i].score = -1
				cands[i].scored = false
				continue
			}
			if len(vec) != len(q.Visual.Vec) {
				return nil, fmt.Errorf("%w: query vec has %d dims, feature %q has %d",
					index.ErrDimMismatch, len(q.Visual.Vec), q.Visual.Kind, len(vec))
			}
			cands[i].score = vecmath.SquaredL2(vec, q.Visual.Vec)
			cands[i].scored = true
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].scored != cands[j].scored {
				return cands[i].scored
			}
			if cands[i].score != cands[j].score {
				return cands[i].score < cands[j].score
			}
			return cands[i].id < cands[j].id
		})
		if q.Visual.K > 0 && len(cands) > q.Visual.K {
			cands = cands[:q.Visual.K]
		}
	} else if plan.Driving == "textual" {
		// Text scores rank descending.
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].score != cands[j].score {
				return cands[i].score > cands[j].score
			}
			return cands[i].id < cands[j].id
		})
	} else if !ordered && !anyScored(cands) {
		sort.Slice(cands, func(i, j int) bool { return cands[i].id < cands[j].id })
	}
	out := make([]Result, len(cands))
	for i, c := range cands {
		out[i] = Result{ID: c.id, Score: c.score}
	}
	return out, nil
}

func anyScored(cands []candidate) bool {
	for _, c := range cands {
		if c.scored {
			return true
		}
	}
	return false
}
