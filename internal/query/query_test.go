package query

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/feature"
	"repro/internal/geo"
	"repro/internal/imagesim"
	"repro/internal/store"
	"repro/internal/synth"
)

var la = geo.Point{Lat: 34.0522, Lon: -118.2437}

// fixture builds a store with 30 images laid out on a ring around LA:
// image i sits at bearing i*12 degrees, 500 m out, captured i minutes
// after the epoch, with feature vector {i, 0}, label i%5, and keyword
// tagging from the class pools.
type fixture struct {
	st      *store.Store
	eng     *Engine
	ids     []uint64
	classID uint64
	epoch   time.Time
}

func setup(t *testing.T, hybrid bool) *fixture {
	t.Helper()
	cfg := store.DefaultConfig()
	if hybrid {
		cfg.HybridKinds = []string{string(feature.KindColorHist)}
	}
	st, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	classID, err := st.CreateClassification("street_cleanliness", synth.ClassNames[:])
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{st: st, eng: New(st), classID: classID,
		epoch: time.Date(2019, 2, 1, 6, 0, 0, 0, time.UTC)}
	kw := []string{"tent", "trash", "weeds", "couch", "clean"}
	for i := 0; i < 30; i++ {
		px := imagesim.MustNew(8, 8)
		cam := geo.Destination(la, float64(i*12), 500)
		id, err := st.AddImage(store.Image{
			FOV:                geo.FOV{Camera: cam, Direction: 0, Angle: 60, Radius: 80},
			Pixels:             px,
			TimestampCapturing: f.epoch.Add(time.Duration(i) * time.Minute),
			WorkerID:           "w",
		})
		if err != nil {
			t.Fatal(err)
		}
		f.ids = append(f.ids, id)
		if err := st.PutFeature(id, string(feature.KindColorHist), []float64{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
		if err := st.Annotate(store.Annotation{
			ImageID: id, ClassificationID: classID, Label: i % 5,
			Confidence: 0.5 + float64(i%5)*0.1, Source: store.SourceMachine,
		}); err != nil {
			t.Fatal(err)
		}
		if err := st.AddKeywords(id, []string{kw[i%5]}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestEmptyQuery(t *testing.T) {
	f := setup(t, false)
	if _, _, err := f.eng.Run(context.Background(), Query{}); !errors.Is(err, ErrEmptyQuery) {
		t.Fatalf("err = %v", err)
	}
}

func TestSpatialRange(t *testing.T) {
	f := setup(t, false)
	// Rect around image 0's camera.
	img, _ := f.st.GetImage(f.ids[0])
	r := geo.NewRect(geo.Destination(img.FOV.Camera, 315, 150), geo.Destination(img.FOV.Camera, 135, 150))
	got, _, err := f.eng.Run(context.Background(), Query{Spatial: &SpatialClause{Rect: &r}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, res := range got {
		if res.ID == f.ids[0] {
			found = true
		}
	}
	if !found {
		t.Fatalf("image 0 not in spatial range: %+v", got)
	}
	if len(got) > 6 {
		t.Fatalf("range too wide: %d hits", len(got))
	}
}

func TestKNearest(t *testing.T) {
	f := setup(t, false)
	img, _ := f.st.GetImage(f.ids[7])
	got, _, err := f.eng.Run(context.Background(), Query{Spatial: &SpatialClause{Near: &img.FOV.Camera, K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].ID != f.ids[7] {
		t.Fatalf("knearest = %+v", got)
	}
}

func TestVisualTopK(t *testing.T) {
	f := setup(t, false)
	got, _, err := f.eng.Run(context.Background(), Query{Visual: &VisualClause{Kind: string(feature.KindColorHist), Vec: []float64{12, 0}, K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].ID != f.ids[12] {
		t.Fatalf("visual top = %+v", got)
	}
	if got[0].Score != 0 {
		t.Fatalf("exact match score = %v", got[0].Score)
	}
}

func TestVisualExactAndRadius(t *testing.T) {
	f := setup(t, false)
	got, plan, err := f.eng.Run(context.Background(), Query{Visual: &VisualClause{
		Kind: string(feature.KindColorHist), Vec: []float64{12, 0}, K: 3, Exact: true}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Driving != "visual" || got[0].ID != f.ids[12] {
		t.Fatalf("exact visual: plan=%v got=%+v", plan, got)
	}
	got, _, err = f.eng.Run(context.Background(), Query{Visual: &VisualClause{
		Kind: string(feature.KindColorHist), Vec: []float64{12, 0}, Radius: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.Score > 1.5 {
			t.Fatalf("radius exceeded: %+v", r)
		}
	}
}

func TestCategorical(t *testing.T) {
	f := setup(t, false)
	got, err := f.eng.ByLabel(context.Background(), "street_cleanliness", "Encampment")
	if err != nil {
		t.Fatal(err)
	}
	// Encampment = class 2; images 2, 7, 12, ...
	if len(got) != 6 {
		t.Fatalf("encampment count = %d", len(got))
	}
	for _, r := range got {
		anns := f.st.AnnotationsFor(r.ID)
		if anns[0].Label != int(synth.Encampment) {
			t.Fatalf("wrong label in results: %+v", anns)
		}
	}
	if _, err := f.eng.ByLabel(context.Background(), "street_cleanliness", "NoSuchLabel"); err == nil {
		t.Fatal("unknown label accepted")
	}
	if _, err := f.eng.ByLabel(context.Background(), "nope", "Clean"); err == nil {
		t.Fatal("unknown classification accepted")
	}
}

func TestCategoricalMinConfidence(t *testing.T) {
	f := setup(t, false)
	// Encampment annotations carry confidence 0.7 in the fixture.
	got, _, err := f.eng.Run(context.Background(), Query{Categorical: &CategoricalClause{
		Classification: "street_cleanliness", Label: "Encampment", MinConfidence: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("high-confidence filter passed %d", len(got))
	}
	got, _, err = f.eng.Run(context.Background(), Query{Categorical: &CategoricalClause{
		Classification: "street_cleanliness", Label: "Encampment", MinConfidence: 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("mid-confidence filter passed %d", len(got))
	}
}

func TestTextual(t *testing.T) {
	f := setup(t, false)
	got, _, err := f.eng.Run(context.Background(), Query{Textual: &TextualClause{Terms: []string{"tent"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("tent matches = %d", len(got))
	}
	got, plan, err := f.eng.Run(context.Background(), Query{Textual: &TextualClause{Terms: []string{"tent", "trash"}, MatchAll: true}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Driving != "textual" || len(got) != 0 {
		t.Fatalf("conjunctive over disjoint keywords: %+v", got)
	}
}

func TestTemporal(t *testing.T) {
	f := setup(t, false)
	got, _, err := f.eng.Run(context.Background(), Query{Temporal: &TemporalClause{From: f.epoch, To: f.epoch.Add(4 * time.Minute)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("temporal hits = %d", len(got))
	}
}

func TestHybridSpatialVisualUsesHybridTree(t *testing.T) {
	f := setup(t, true)
	everywhere := geo.NewRect(geo.Destination(la, 315, 2000), geo.Destination(la, 135, 2000))
	got, plan, err := f.eng.Run(context.Background(), spatialVisual(everywhere, []float64{5, 0}, 3))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Driving != "hybrid" {
		t.Fatalf("plan = %v", plan)
	}
	if got[0].ID != f.ids[5] {
		t.Fatalf("hybrid top = %+v", got)
	}
}

func TestHybridFallsBackToTwoPhase(t *testing.T) {
	f := setup(t, false) // no hybrid tree maintained
	everywhere := geo.NewRect(geo.Destination(la, 315, 2000), geo.Destination(la, 135, 2000))
	got, plan, err := f.eng.Run(context.Background(), spatialVisual(everywhere, []float64{5, 0}, 3))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Driving == "hybrid" {
		t.Fatalf("unexpected hybrid plan: %v", plan)
	}
	if got[0].ID != f.ids[5] {
		t.Fatalf("two-phase top = %+v", got)
	}
	// The explicit two-phase helper agrees.
	tp, err := f.eng.TwoPhaseSpatialVisual(context.Background(), everywhere, string(feature.KindColorHist), []float64{5, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tp) != len(got) {
		t.Fatalf("two-phase %d vs planner %d", len(tp), len(got))
	}
	for i := range tp {
		if tp[i].ID != got[i].ID {
			t.Fatalf("two-phase order differs at %d: %v vs %v", i, tp[i], got[i])
		}
	}
}

func TestHybridAndTwoPhaseAgree(t *testing.T) {
	f := setup(t, true)
	everywhere := geo.NewRect(geo.Destination(la, 315, 2000), geo.Destination(la, 135, 2000))
	hy, plan, err := f.eng.Run(context.Background(), spatialVisual(everywhere, []float64{13, 0}, 5))
	if err != nil || plan.Driving != "hybrid" {
		t.Fatalf("hybrid run: %v %v", plan, err)
	}
	tp, err := f.eng.TwoPhaseSpatialVisual(context.Background(), everywhere, string(feature.KindColorHist), []float64{13, 0}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hy) != len(tp) {
		t.Fatalf("result sizes differ: %d vs %d", len(hy), len(tp))
	}
	for i := range hy {
		if hy[i].ID != tp[i].ID || math.Abs(math.Sqrt(tp[i].Score)-hy[i].Score) > 1e-9 {
			t.Fatalf("rank %d differs: hybrid %+v two-phase %+v", i, hy[i], tp[i])
		}
	}
}

func TestCategoricalSpatialCombination(t *testing.T) {
	f := setup(t, false)
	// Encampment images near image 2's camera only.
	img, _ := f.st.GetImage(f.ids[2])
	r := geo.NewRect(geo.Destination(img.FOV.Camera, 315, 200), geo.Destination(img.FOV.Camera, 135, 200))
	got, plan, err := f.eng.Run(context.Background(), Query{
		Categorical: &CategoricalClause{Classification: "street_cleanliness", Label: "Encampment"},
		Spatial:     &SpatialClause{Rect: &r},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Driving != "categorical" {
		t.Fatalf("plan = %v", plan)
	}
	if len(got) == 0 {
		t.Fatal("no results")
	}
	for _, res := range got {
		im, _ := f.st.GetImage(res.ID)
		if !im.Scene.Intersects(r) {
			t.Fatalf("spatial filter leaked %d", res.ID)
		}
	}
}

func TestTemporalTextualCombination(t *testing.T) {
	f := setup(t, false)
	got, plan, err := f.eng.Run(context.Background(), Query{
		Temporal: &TemporalClause{From: f.epoch, To: f.epoch.Add(9 * time.Minute)},
		Textual:  &TextualClause{Terms: []string{"tent"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Driving != "temporal" {
		t.Fatalf("plan = %v", plan)
	}
	// Images 0..9 with keyword tent: ids 0 and 5.
	if len(got) != 2 {
		t.Fatalf("combined hits = %d (%+v)", len(got), got)
	}
}

func TestVisualRerankWithCategoricalDriver(t *testing.T) {
	f := setup(t, false)
	got, plan, err := f.eng.Run(context.Background(), Query{
		Categorical: &CategoricalClause{Classification: "street_cleanliness", Label: "Clean"},
		Visual:      &VisualClause{Kind: string(feature.KindColorHist), Vec: []float64{14, 0}, K: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Driving != "categorical" {
		t.Fatalf("plan = %v", plan)
	}
	// Clean = label 4: images 4, 9, 14, 19, 24, 29. Nearest to 14: 14 then
	// 9 or 19 (tie broken by id).
	if len(got) != 2 || got[0].ID != f.ids[14] || got[1].ID != f.ids[9] {
		t.Fatalf("re-ranked = %+v", got)
	}
}

func TestLimit(t *testing.T) {
	f := setup(t, false)
	got, _, err := f.eng.Run(context.Background(), Query{
		Textual: &TextualClause{Terms: []string{"tent"}},
		Limit:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("limit ignored: %d", len(got))
	}
}

func TestPlanString(t *testing.T) {
	f := setup(t, false)
	_, plan, err := f.eng.Run(context.Background(), Query{Textual: &TextualClause{Terms: []string{"tent"}}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.String() == "" || plan.Driving == "" {
		t.Fatal("plan rendering empty")
	}
}

// spatialVisual is the spatial-visual hybrid query: the k visually
// closest colour histograms within r.
func spatialVisual(r geo.Rect, vec []float64, k int) Query {
	return Query{
		Spatial: &SpatialClause{Rect: &r},
		Visual:  &VisualClause{Kind: string(feature.KindColorHist), Vec: vec, K: k},
	}
}

// spatialTextual is the spatial-textual hybrid query the paper names in
// §IV-C: keyword matches restricted to a geographic region.
func spatialTextual(r geo.Rect, terms ...string) Query {
	return Query{Spatial: &SpatialClause{Rect: &r}, Textual: &TextualClause{Terms: terms}}
}

func TestSpatialTextualHelper(t *testing.T) {
	f := setup(t, false)
	// Region around image 0 only; image 0 carries keyword "tent".
	img, _ := f.st.GetImage(f.ids[0])
	r := geo.NewRect(geo.Destination(img.FOV.Camera, 315, 200), geo.Destination(img.FOV.Camera, 135, 200))
	got, plan, err := f.eng.Run(context.Background(), spatialTextual(r, "tent"))
	if err != nil {
		t.Fatal(err)
	}
	// Disjunctive text ranks below a spatial rect in driver selectivity,
	// so the r-tree drives and keywords filter.
	if plan.Driving != "spatial" {
		t.Fatalf("plan = %v", plan)
	}
	if len(got) != 1 || got[0].ID != f.ids[0] {
		t.Fatalf("spatial-textual = %+v", got)
	}
	// Outside the region: no hits even though the keyword matches.
	far := geo.NewRect(geo.Destination(la, 0, 50000), geo.Destination(la, 0, 51000))
	got, _, err = f.eng.Run(context.Background(), spatialTextual(far, "tent"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("far region matched: %+v", got)
	}
}

func TestCrossSchemeCategoricals(t *testing.T) {
	f := setup(t, false)
	// A second, orthogonal scheme: even-indexed images are "tagged".
	gid, err := f.st.CreateClassification("graffiti", []string{"No Graffiti", "Graffiti"})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range f.ids {
		label := 0
		if i%2 == 0 {
			label = 1
		}
		if err := f.st.Annotate(store.Annotation{
			ImageID: id, ClassificationID: gid, Label: label, Confidence: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Encampment (i%5==2: 2,7,12,17,22,27) AND Graffiti (even): 2,12,22.
	got, plan, err := f.eng.Run(context.Background(), Query{
		Categorical: &CategoricalClause{Classification: "street_cleanliness", Label: "Encampment"},
		Categoricals: []CategoricalClause{
			{Classification: "graffiti", Label: "Graffiti"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Driving != "categorical" {
		t.Fatalf("plan = %v", plan)
	}
	if len(got) != 3 {
		t.Fatalf("cross-scheme hits = %d (%+v)", len(got), got)
	}
	for _, r := range got {
		idx := -1
		for i, id := range f.ids {
			if id == r.ID {
				idx = i
			}
		}
		if idx%5 != 2 || idx%2 != 0 {
			t.Fatalf("wrong hit index %d", idx)
		}
	}
	// List-only form (no sugar field) also works.
	got2, _, err := f.eng.Run(context.Background(), Query{
		Categoricals: []CategoricalClause{
			{Classification: "graffiti", Label: "Graffiti"},
			{Classification: "street_cleanliness", Label: "Encampment"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 3 {
		t.Fatalf("list-form hits = %d", len(got2))
	}
}

// --- cancellation semantics -----------------------------------------------

// TestRunCancelledReturnsPromptly pins the request-lifecycle contract at
// the query layer: a context cancelled before (or during) Run surfaces
// context.Canceled — not a partial result set — and does so at the next
// checkpoint, for every clause family.
func TestRunCancelledReturnsPromptly(t *testing.T) {
	f := setup(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := geo.NewRect(geo.Destination(la, 315, 600), geo.Destination(la, 135, 600))
	queries := []Query{
		{Spatial: &SpatialClause{Rect: &r}},
		{Visual: &VisualClause{Kind: string(feature.KindColorHist), Vec: []float64{3, 0}, K: 5}},
		{Categorical: &CategoricalClause{Classification: "street_cleanliness", Label: "Encampment"}},
		{Textual: &TextualClause{Terms: []string{"tent"}}},
		{Temporal: &TemporalClause{From: f.epoch, To: f.epoch.Add(time.Hour)}},
		{
			Categorical: &CategoricalClause{Classification: "street_cleanliness", Label: "Clean"},
			Visual:      &VisualClause{Kind: string(feature.KindColorHist), Vec: []float64{14, 0}, K: 2},
		},
	}
	for i, q := range queries {
		if _, _, err := f.eng.Run(ctx, q); !errors.Is(err, context.Canceled) {
			t.Errorf("query %d: err = %v, want context.Canceled", i, err)
		}
	}
}

// TestRunDeadlineExceeded drives an already-expired deadline through Run
// and expects context.DeadlineExceeded — the error the API layer maps to
// HTTP 504.
func TestRunDeadlineExceeded(t *testing.T) {
	f := setup(t, false)
	ctx, cancel := context.WithDeadline(context.Background(), f.epoch) // long past
	defer cancel()
	_, _, err := f.eng.Run(ctx, Query{Textual: &TextualClause{Terms: []string{"tent"}}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestHelpersPropagateCancellation covers every query shape through Run
// and the two helper entry points — each must observe the caller's
// context, not swallow it.
func TestHelpersPropagateCancellation(t *testing.T) {
	f := setup(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := geo.NewRect(geo.Destination(la, 315, 600), geo.Destination(la, 135, 600))
	near := la
	run := func(q Query) func() error {
		return func() error { _, _, err := f.eng.Run(ctx, q); return err }
	}
	checks := []struct {
		name string
		call func() error
	}{
		{"spatial range", run(Query{Spatial: &SpatialClause{Rect: &r}})},
		{"k nearest", run(Query{Spatial: &SpatialClause{Near: &near, K: 3}})},
		{"visual top-k", run(Query{Visual: &VisualClause{Kind: string(feature.KindColorHist), Vec: []float64{1, 0}, K: 3}})},
		{"ByLabel", func() error { _, err := f.eng.ByLabel(ctx, "street_cleanliness", "Clean"); return err }},
		{"keywords", run(Query{Textual: &TextualClause{Terms: []string{"tent"}}})},
		{"time range", run(Query{Temporal: &TemporalClause{From: f.epoch, To: f.epoch.Add(time.Hour)}})},
		{"spatial-textual", run(spatialTextual(r, "tent"))},
		{"TwoPhaseSpatialVisual", func() error {
			_, err := f.eng.TwoPhaseSpatialVisual(ctx, r, string(feature.KindColorHist), []float64{1, 0}, 3)
			return err
		}},
	}
	for _, c := range checks {
		if err := c.call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", c.name, err)
		}
	}
}
