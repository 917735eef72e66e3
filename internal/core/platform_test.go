package core

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/crowd"
	"repro/internal/edge"
	"repro/internal/feature"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/synth"
)

func openPlatform(t *testing.T, dir string) *Platform {
	t.Helper()
	p, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// seedCorpus ingests n labelled synthetic records.
func seedCorpus(t *testing.T, p *Platform, n int, seed int64) []uint64 {
	t.Helper()
	if _, err := p.CreateClassification("street_cleanliness", synth.ClassNames[:]); err != nil {
		t.Fatal(err)
	}
	g, err := synth.NewGenerator(synth.DefaultConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for _, rec := range g.Generate(n) {
		id, err := p.IngestRecord(context.Background(), rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AnnotateHuman(id, "street_cleanliness", int(rec.Class), rec.CapturedAt); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

func TestEndToEndPipeline(t *testing.T) {
	p := openPlatform(t, "")
	ids := seedCorpus(t, p, 60, 1)
	if p.Store.NumImages() != 60 {
		t.Fatalf("images = %d", p.Store.NumImages())
	}
	// Train, predict, annotate-all.
	spec, err := p.TrainModel(context.Background(), analysis.TrainConfig{
		Name:           "cleanliness",
		Classification: "street_cleanliness",
		FeatureKind:    string(feature.KindColorHist),
		Factory:        DefaultClassifierFactory(1),
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if spec.TrainedOn != 60 {
		t.Fatalf("spec = %+v", spec)
	}
	vec, err := p.Store.GetFeature(ids[0], string(feature.KindColorHist))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := p.Predict("cleanliness", vec)
	if err != nil {
		t.Fatal(err)
	}
	if pred.LabelName == "" {
		t.Fatalf("prediction = %+v", pred)
	}
	annotated, skipped, err := p.AnnotateAll(context.Background(), "cleanliness", time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC))
	if err != nil || annotated != 60 || skipped != 0 {
		t.Fatalf("annotate-all = %d/%d err=%v", annotated, skipped, err)
	}
	// Search by label now returns both human and machine annotations'
	// targets; encampment class had 12 human labels at minimum.
	res, err := p.Query.ByLabel(context.Background(), "street_cleanliness", "Encampment")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 12 {
		t.Fatalf("encampment results = %d", len(res))
	}
	st := p.Stats()
	if st.Images != 60 || st.Models != 1 || st.Classifications != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	p := openPlatform(t, dir)
	seedCorpus(t, p, 10, 2)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2 := openPlatform(t, dir)
	if p2.Store.NumImages() != 10 {
		t.Fatalf("recovered %d images", p2.Store.NumImages())
	}
	// Query indexes were rebuilt.
	res, _, err := p2.Query.Run(context.Background(), query.Query{Textual: &query.TextualClause{
		Terms: []string{"street", "sidewalk", "losangeles", "lasan", "survey"},
	}})
	if err != nil || len(res) == 0 {
		t.Fatalf("post-recovery keyword search: %d err=%v", len(res), err)
	}
}

func TestSearchFacade(t *testing.T) {
	p := openPlatform(t, "")
	seedCorpus(t, p, 30, 3)
	r := geo.NewRect(geo.Destination(la, 315, 12000), geo.Destination(la, 135, 12000))
	res, plan, err := p.Search(context.Background(), query.Query{Spatial: &query.SpatialClause{Rect: &r}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Driving != "spatial" || len(res) != 30 {
		t.Fatalf("city-wide search: %d hits plan=%v", len(res), plan)
	}
}

func TestDispatchFacade(t *testing.T) {
	p := openPlatform(t, "")
	d, err := p.Dispatch(edge.RaspberryPi3B, edge.Constraints{MaxLatency: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if d.Model.Name == "InceptionV3" {
		t.Fatalf("RPI got the heavy model: %+v", d)
	}
}

func TestCampaignFacadeSeedsFromStore(t *testing.T) {
	p := openPlatform(t, "")
	seedCorpus(t, p, 40, 4)
	region := geo.NewRect(geo.Destination(la, 315, 1500), geo.Destination(la, 135, 1500))
	workers := []crowd.Worker{
		{ID: "w1", Location: la, MaxTravelM: 4000, Capacity: 6},
		{ID: "w2", Location: geo.Destination(la, 90, 500), MaxTravelM: 4000, Capacity: 6},
	}
	runner, err := p.NewCampaignRunner(
		crowd.Campaign{ID: 1, Name: "gaps", Region: region, TargetCoverage: 0.8, MaxRounds: 6},
		5, 5, workers, crowd.DefaultCaptureFunc(2, 150, 5), 6)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	final := reports[len(reports)-1]
	if final.Coverage < 0.8 {
		t.Fatalf("campaign coverage = %v", final.Coverage)
	}
	// Store images inside the region seeded round 0 above zero.
	if reports[0].Coverage <= 0 {
		t.Fatal("existing store images did not seed coverage")
	}
}

func TestTrainCNNExtractorFromStore(t *testing.T) {
	p := openPlatform(t, "")
	seedCorpus(t, p, 25, 5)
	cfg := feature.DefaultCNNTrainConfig(synth.NumClasses)
	cfg.Train.Epochs = 2 // keep the unit test fast
	cfg.Augment = 0
	ex, err := p.TrainCNNExtractor(context.Background(), "street_cleanliness", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Dim() != cfg.Net.Hidden {
		t.Fatalf("extractor dim = %d", ex.Dim())
	}
	p.RegisterExtractor(ex)
	kinds := p.Analysis.ExtractorKinds()
	if len(kinds) != 2 {
		t.Fatalf("kinds = %v", kinds)
	}
	if _, err := p.TrainCNNExtractor(context.Background(), "no_such", cfg); err == nil {
		t.Fatal("unknown classification accepted")
	}
}

func TestServeHandlerIntegration(t *testing.T) {
	p := openPlatform(t, "")
	ts := httptest.NewServer(p.Handler(nil))
	defer ts.Close()
	boot := api.NewClient(ts.URL, "")
	uid, err := boot.CreateUser("usc", "research")
	if err != nil {
		t.Fatal(err)
	}
	key, err := boot.CreateKey(uid)
	if err != nil {
		t.Fatal(err)
	}
	c := api.NewClient(ts.URL, key)
	g, _ := synth.NewGenerator(synth.DefaultConfig(1, 6))
	rec := g.Render(synth.Clean)
	up, err := c.UploadImage(api.UploadImageRequest{
		FOV: api.FOVFromGeo(rec.FOV), Pixels: api.EncodePixels(rec.Image),
		CapturedAt: rec.CapturedAt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if up.ID == 0 {
		t.Fatal("no id")
	}
	if p.Store.NumImages() != 1 {
		t.Fatal("HTTP upload did not reach the store")
	}
}
