package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/imagesim"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/synth"
)

// The equivalence tests below pin Engine.Run to legacyRun, the engine as
// it was before non-driving clauses went through one Backend.FilterIDs
// call: predicates evaluated candidate by candidate over Describe, and
// membership sets built from full ImagesByLabel / SearchText /
// SearchTextAll answers. Ids, scores, order, plans and errors must all
// match, on a bare store and on a 4-shard coordinator.

var equivEpoch = time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)

// equivCorpus loads the same 400 rows into any backend: capture times in
// shuffled order, 8-dim features in six clusters, two keywords from a
// mixed-case vocabulary, a street_cleanliness label (a third of them
// annotated twice with it) and a graffiti label.
func equivCorpus(t *testing.T, b store.Backend) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	street, err := b.CreateClassification("street_cleanliness", synth.ClassNames[:])
	if err != nil {
		t.Fatal(err)
	}
	graffiti, err := b.CreateClassification("graffiti", []string{"No Graffiti", "Graffiti"})
	if err != nil {
		t.Fatal(err)
	}
	vocab := []string{"tent", "trash", "weeds", "couch", "clean", "Mattress", "cart"}
	for i, p := range rng.Perm(400) {
		id, err := b.AddImage(store.Image{
			FOV: geo.FOV{
				Camera:    geo.Destination(la, rng.Float64()*360, 3000*math.Sqrt(rng.Float64())),
				Direction: rng.Float64() * 360, Angle: 60, Radius: 80,
			},
			Pixels:             imagesim.MustNew(4, 4),
			TimestampCapturing: equivEpoch.Add(time.Duration(p) * 7 * time.Minute),
			WorkerID:           "w",
		})
		if err != nil {
			t.Fatal(err)
		}
		vec := make([]float64, 8)
		for d := range vec {
			vec[d] = float64((i%6)*(d+1)%5) + rng.NormFloat64()*0.3
		}
		if err := b.PutFeature(id, "hist", vec); err != nil {
			t.Fatal(err)
		}
		if err := b.AddKeywords(id, []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]}); err != nil {
			t.Fatal(err)
		}
		label := rng.Intn(len(synth.ClassNames))
		for rep := 0; rep < 1+rng.Intn(3)/2; rep++ {
			if err := b.Annotate(store.Annotation{ImageID: id, ClassificationID: street, Label: label, Confidence: rng.Float64()}); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Annotate(store.Annotation{ImageID: id, ClassificationID: graffiti, Label: rng.Intn(2), Confidence: 1}); err != nil {
			t.Fatal(err)
		}
	}
}

// equivQueries covers the six benchmark shapes plus the filter corners.
func equivQueries() map[string]Query {
	rng := rand.New(rand.NewSource(22))
	vec := func() []float64 {
		v := make([]float64, 8)
		c := rng.Intn(6)
		for d := range v {
			v[d] = float64(c*(d+1)%5) + rng.NormFloat64()*0.3
		}
		return v
	}
	rect := func() *geo.Rect {
		c := geo.Destination(la, rng.Float64()*360, 2000*rng.Float64())
		r := geo.NewRect(geo.Destination(c, 225, 1200), geo.Destination(c, 45, 1200))
		return &r
	}
	span := func(hours int) *TemporalClause {
		from := equivEpoch.Add(time.Duration(rng.Intn(30)) * time.Hour)
		return &TemporalClause{From: from, To: from.Add(time.Duration(hours) * time.Hour)}
	}
	cat := func(label string, minConf float64) *CategoricalClause {
		return &CategoricalClause{Classification: "street_cleanliness", Label: label, MinConfidence: minConf}
	}
	graffiti := CategoricalClause{Classification: "graffiti", Label: "Graffiti"}
	return map[string]Query{
		"lsh":                    {Visual: &VisualClause{Kind: "hist", Vec: vec(), K: 10}},
		"quant":                  {Visual: &VisualClause{Kind: "hist", Vec: vec(), K: 10, Quant: true}},
		"rect+visual":            {Spatial: &SpatialClause{Rect: rect()}, Visual: &VisualClause{Kind: "hist", Vec: vec(), K: 10}, Limit: 50},
		"rect":                   {Spatial: &SpatialClause{Rect: rect()}, Limit: 50},
		"text+time":              {Temporal: span(12), Textual: &TextualClause{Terms: []string{"tent", "trash"}}, Limit: 50},
		"label+time":             {Categorical: cat("Encampment", 0), Temporal: span(12), Limit: 50},
		"matchall text drives":   {Temporal: span(24), Textual: &TextualClause{Terms: []string{"tent", "TRASH"}, MatchAll: true}},
		"label+matchall text":    {Categorical: cat("Clean", 0), Textual: &TextualClause{Terms: []string{"TENT", "couch"}, MatchAll: true}},
		"time+empty terms":       {Temporal: span(12), Textual: &TextualClause{}},
		"time+empty term":        {Temporal: span(12), Textual: &TextualClause{Terms: []string{""}}},
		"time+mixed case":        {Temporal: span(12), Textual: &TextualClause{Terms: []string{"TENT", "mattress"}}},
		"min conf drives":        {Categorical: cat("Bulky Item", 0.5), Temporal: span(24)},
		"min conf filters":       {Categorical: &graffiti, Categoricals: []CategoricalClause{*cat("Illegal Dumping", 0.4)}},
		"two labels+rect+text":   {Categorical: cat("Encampment", 0), Categoricals: []CategoricalClause{graffiti}, Spatial: &SpatialClause{Rect: rect()}, Textual: &TextualClause{Terms: []string{"tent", "cart"}}},
		"rect+text":              {Spatial: &SpatialClause{Rect: rect()}, Textual: &TextualClause{Terms: []string{"trash", "Couch"}}},
		"time+rect+rerank":       {Temporal: span(48), Spatial: &SpatialClause{Rect: rect()}, Visual: &VisualClause{Kind: "hist", Vec: vec(), K: 5}},
		"unknown filter label":   {Categorical: &graffiti, Categoricals: []CategoricalClause{*cat("Nope", 0)}},
		"unknown driving scheme": {Temporal: span(12), Categorical: &CategoricalClause{Classification: "nope", Label: "x"}},
	}
}

func equivBackends(t *testing.T) map[string]store.Backend {
	t.Helper()
	bare, err := store.Open(store.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bare.Close() })
	co, err := shard.Open(shard.Config{ShardCount: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return map[string]store.Backend{"bare": bare, "shards=4": co}
}

func TestFilterEquivalence(t *testing.T) {
	ctx := context.Background()
	for bname, b := range equivBackends(t) {
		equivCorpus(t, b)
		e := New(b)
		for qname, q := range equivQueries() {
			got, gotPlan, gotErr := e.Run(ctx, q)
			want, wantPlan, wantErr := legacyRun(ctx, e, q)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s %s: err %v, legacy %v", bname, qname, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotPlan, wantPlan) {
				t.Fatalf("%s %s:\n got  %v %v\n want %v %v", bname, qname, gotPlan, got, wantPlan, want)
			}
			if gotErr == nil && len(want) == 0 && qname != "time+empty terms" && qname != "time+empty term" {
				t.Fatalf("%s %s: empty answer; the case proves nothing", bname, qname)
			}
		}
	}
}

// deletingBackend removes one image right after the driving time-range
// scan returns it, so the candidate is gone by the time filters run.
type deletingBackend struct {
	store.Backend
	victim uint64
}

func (d *deletingBackend) SearchTime(ctx context.Context, from, to time.Time) ([]uint64, error) {
	ids, err := d.Backend.SearchTime(ctx, from, to)
	if err == nil {
		err = d.Backend.DeleteImage(d.victim)
	}
	return ids, err
}

// TestFilterDeletedCandidate: a candidate deleted between drive and
// filter fails a spatially filtered query with the same error as before,
// and is silently dropped by a text filter.
func TestFilterDeletedCandidate(t *testing.T) {
	ctx := context.Background()
	tc := &TemporalClause{From: equivEpoch, To: equivEpoch.Add(48 * time.Hour)}
	everywhere := geo.NewRect(geo.Destination(la, 315, 10000), geo.Destination(la, 135, 10000))
	queries := map[string]Query{
		"time+rect": {Temporal: tc, Spatial: &SpatialClause{Rect: &everywhere}},
		"time+text": {Temporal: tc, Textual: &TextualClause{Terms: []string{"tent", "trash"}}},
	}
	for qname, q := range queries {
		var errs [2]error
		var results [2][]Result
		for i, run := range []func(*Engine) ([]Result, Plan, error){
			func(e *Engine) ([]Result, Plan, error) { return e.Run(ctx, q) },
			func(e *Engine) ([]Result, Plan, error) { return legacyRun(ctx, e, q) },
		} {
			bs := equivBackends(t)
			for _, bname := range []string{"bare", "shards=4"} {
				b := bs[bname]
				equivCorpus(t, b)
				ids, err := b.SearchTime(ctx, tc.From, tc.To)
				if err != nil || len(ids) < 3 {
					t.Fatalf("time range holds %d ids (%v)", len(ids), err)
				}
				res, _, err := run(New(&deletingBackend{Backend: b, victim: ids[2]}))
				if bname == "bare" {
					results[i], errs[i] = res, err
				} else if !reflect.DeepEqual(res, results[i]) || (err == nil) != (errs[i] == nil) || err != nil && err.Error() != errs[i].Error() {
					t.Fatalf("%s run %d: sharded (%v, %v) differs from bare (%v, %v)", qname, i, res, err, results[i], errs[i])
				}
			}
		}
		if (errs[0] == nil) != (errs[1] == nil) || errs[0] != nil && errs[0].Error() != errs[1].Error() || !reflect.DeepEqual(results[0], results[1]) {
			t.Fatalf("%s: (%v, %v), legacy (%v, %v)", qname, results[0], errs[0], results[1], errs[1])
		}
		if wantErr := qname == "time+rect"; wantErr != errors.Is(errs[0], store.ErrNotFound) {
			t.Fatalf("%s: err = %v", qname, errs[0])
		}
	}
}

// legacyRun is runUncached with the pre-FilterIDs categorical driver and
// filter stage (the stores here keep no hybrid tree).
func legacyRun(ctx context.Context, e *Engine, q Query) ([]Result, Plan, error) {
	var plan Plan
	var cands []candidate
	var ordered bool
	var err error
	if cats := q.categoricals(); len(cats) > 0 {
		plan.Driving = "categorical"
		plan.Steps = append(plan.Steps, "label index lookup")
		var ids []uint64
		ids, err = legacyLabelIDs(ctx, e.st, cats[0])
		cands = asCandidates(ids)
	} else {
		cands, ordered, err = e.drive(ctx, q, &plan)
	}
	if err != nil {
		return nil, plan, err
	}
	if cands, err = legacyFilter(ctx, e.st, q, cands, &plan); err != nil {
		return nil, plan, err
	}
	out, err := e.rank(ctx, q, cands, ordered, &plan)
	if err != nil {
		return nil, plan, err
	}
	return clip(out, q.Limit), plan, nil
}

func legacyLabelIDs(ctx context.Context, st store.Backend, c CategoricalClause) ([]uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cls, err := st.ClassificationByName(c.Classification)
	if err != nil {
		return nil, err
	}
	label := -1
	for i, l := range cls.Labels {
		if l == c.Label {
			label = i
			break
		}
	}
	if label < 0 {
		return nil, fmt.Errorf("query: classification %q has no label %q", c.Classification, c.Label)
	}
	ids := st.ImagesByLabel(cls.ID, label)
	if c.MinConfidence <= 0 {
		return ids, nil
	}
	var out []uint64
	for _, id := range ids {
		for _, a := range st.AnnotationsFor(id) {
			if a.ClassificationID == cls.ID && a.Label == label && a.Confidence >= c.MinConfidence {
				out = append(out, id)
				break
			}
		}
	}
	return out, nil
}

func legacyFilter(ctx context.Context, st store.Backend, q Query, cands []candidate, plan *Plan) ([]candidate, error) {
	var preds []func(candidate) (bool, error)
	if q.Spatial != nil && q.Spatial.Rect != nil && plan.Driving != "spatial" && plan.Driving != "hybrid" {
		plan.Steps = append(plan.Steps, "spatial filter")
		r := *q.Spatial.Rect
		preds = append(preds, func(c candidate) (bool, error) {
			d, err := st.Describe(c.id)
			return err == nil && d.Scene.Intersects(r), err
		})
	}
	if q.Temporal != nil && plan.Driving != "temporal" {
		plan.Steps = append(plan.Steps, "temporal filter")
		tc := *q.Temporal
		preds = append(preds, func(c candidate) (bool, error) {
			d, err := st.Describe(c.id)
			return err == nil && !d.CapturedAt.Before(tc.From) && !d.CapturedAt.After(tc.To), err
		})
	}
	cats := q.categoricals()
	if plan.Driving == "categorical" {
		cats = cats[1:]
	}
	member := func(ids []uint64) func(candidate) (bool, error) {
		set := make(map[uint64]bool, len(ids))
		for _, id := range ids {
			set[id] = true
		}
		return func(c candidate) (bool, error) { return set[c.id], nil }
	}
	for _, cat := range cats {
		plan.Steps = append(plan.Steps, "categorical filter")
		ids, err := legacyLabelIDs(ctx, st, cat)
		if err != nil {
			return nil, err
		}
		preds = append(preds, member(ids))
	}
	if q.Textual != nil && plan.Driving != "textual" {
		plan.Steps = append(plan.Steps, "textual filter")
		search := st.SearchText
		if q.Textual.MatchAll {
			search = st.SearchTextAll
		}
		ms, err := search(ctx, q.Textual.Terms)
		if err != nil {
			return nil, err
		}
		preds = append(preds, member(matchIDs(ms)))
	}
	if len(preds) == 0 {
		return cands, nil
	}
	out := cands[:0]
	for _, c := range cands {
		keep := true
		for _, p := range preds {
			ok, err := p(c)
			if err != nil {
				return nil, err
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, c)
		}
	}
	return out, nil
}

func matchIDs(ms []index.Match) []uint64 {
	ids := make([]uint64, len(ms))
	for i, m := range ms {
		ids[i] = m.ID
	}
	return ids
}
