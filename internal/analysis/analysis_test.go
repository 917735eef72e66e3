package analysis

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/feature"
	"repro/internal/geo"
	"repro/internal/imagesim"
	"repro/internal/ml"
	"repro/internal/store"
	"repro/internal/synth"
)

var la = geo.Point{Lat: 34.0522, Lon: -118.2437}

// fixture ingests a small synthetic corpus with human labels and colour
// features, leaving a few images unlabeled for machine annotation.
type fixture struct {
	st      *store.Store
	svc     *Service
	classID uint64
	labeled []uint64
	raw     []uint64 // ingested without annotations
}

func setup(t *testing.T) *fixture {
	t.Helper()
	st, err := store.Open(store.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	svc := NewService(st)
	svc.RegisterExtractor(feature.NewColorHistogram())
	classID, err := st.CreateClassification("street_cleanliness", synth.ClassNames[:])
	if err != nil {
		t.Fatal(err)
	}
	g, err := synth.NewGenerator(synth.DefaultConfig(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{st: st, svc: svc, classID: classID}
	for i, rec := range g.Generate(100) {
		id, err := st.AddImage(store.Image{
			FOV: rec.FOV, Pixels: rec.Image,
			TimestampCapturing: rec.CapturedAt, TimestampUploading: rec.UploadedAt,
			WorkerID: rec.WorkerID,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.ExtractAndStore(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		if i < 80 {
			if err := st.Annotate(store.Annotation{
				ImageID: id, ClassificationID: classID, Label: int(rec.Class),
				Confidence: 1, Source: store.SourceHuman,
			}); err != nil {
				t.Fatal(err)
			}
			f.labeled = append(f.labeled, id)
		} else {
			f.raw = append(f.raw, id)
		}
	}
	return f
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	clf := ml.NewKNN(1)
	d := ml.Dataset{X: [][]float64{{0, 0}, {1, 1}}, Y: []int{0, 1}, Classes: 2}
	if err := clf.Fit(d); err != nil {
		t.Fatal(err)
	}
	spec := ModelSpec{Name: "m", FeatureKind: "f", Dim: 2, Labels: []string{"a", "b"}}
	if err := r.Register(spec, clf, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(spec, clf, nil); !errors.Is(err, ErrModelExists) {
		t.Fatal("duplicate registration accepted")
	}
	if err := r.Register(ModelSpec{}, clf, nil); err == nil {
		t.Fatal("nameless model accepted")
	}
	if err := r.Register(ModelSpec{Name: "x", Dim: 2}, nil, nil); err == nil {
		t.Fatal("nil classifier accepted")
	}
	if err := r.Register(ModelSpec{Name: "x", Dim: 0}, clf, nil); err == nil {
		t.Fatal("dim 0 accepted")
	}
	got, err := r.Spec("m")
	if err != nil || got.Name != "m" {
		t.Fatalf("spec = %+v err=%v", got, err)
	}
	if _, err := r.Spec("nope"); !errors.Is(err, ErrModelNotFound) {
		t.Fatal("missing spec err wrong")
	}
	if l := r.List(); len(l) != 1 {
		t.Fatalf("list = %+v", l)
	}
	p, err := r.Predict("m", []float64{0.9, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if p.Label != 1 || p.LabelName != "b" || p.Confidence <= 0 {
		t.Fatalf("prediction = %+v", p)
	}
	if _, err := r.Predict("m", []float64{1}); err == nil {
		t.Fatal("wrong dim accepted")
	}
	if _, err := r.Predict("nope", []float64{1, 2}); !errors.Is(err, ErrModelNotFound) {
		t.Fatal("missing model predict err wrong")
	}
}

func TestExtractAndStore(t *testing.T) {
	f := setup(t)
	kinds := f.st.FeatureKinds(f.labeled[0])
	if len(kinds) != 1 || kinds[0] != string(feature.KindColorHist) {
		t.Fatalf("kinds = %v", kinds)
	}
	vec, err := f.st.GetFeature(f.labeled[0], string(feature.KindColorHist))
	if err != nil || len(vec) != 50 {
		t.Fatalf("vec len=%d err=%v", len(vec), err)
	}
	if _, err := f.svc.ExtractAndStore(context.Background(), 99999); err == nil {
		t.Fatal("missing image accepted")
	}
}

func TestExtractUploaded(t *testing.T) {
	f := setup(t)
	img := imagesim.MustNew(16, 16)
	vec, err := f.svc.ExtractUploaded(string(feature.KindColorHist), img)
	if err != nil || len(vec) != 50 {
		t.Fatalf("uploaded extract: %d %v", len(vec), err)
	}
	if _, err := f.svc.ExtractUploaded("nope", img); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestTrainModelAndPredict(t *testing.T) {
	f := setup(t)
	spec, err := f.svc.TrainModel(context.Background(), TrainConfig{
		Name:           "cleanliness-color-svm",
		Classification: "street_cleanliness",
		FeatureKind:    string(feature.KindColorHist),
		HoldoutFrac:    0.25,
		Owner:          "usc",
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if spec.TrainedOn != 80 || spec.Dim != 50 {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.MacroF1 <= 0.2 {
		t.Fatalf("validation F1 = %v, suspiciously low", spec.MacroF1)
	}
	// Predict via registry on a stored feature.
	vec, _ := f.st.GetFeature(f.labeled[0], string(feature.KindColorHist))
	p, err := f.svc.Registry.Predict("cleanliness-color-svm", vec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Label < 0 || p.Label >= synth.NumClasses {
		t.Fatalf("prediction label = %d", p.Label)
	}
}

func TestTrainModelErrors(t *testing.T) {
	f := setup(t)
	if _, err := f.svc.TrainModel(context.Background(), TrainConfig{}); err == nil {
		t.Fatal("nameless train accepted")
	}
	if _, err := f.svc.TrainModel(context.Background(), TrainConfig{Name: "m", Classification: "nope", FeatureKind: "f"}); err == nil {
		t.Fatal("unknown classification accepted")
	}
	if _, err := f.svc.TrainModel(context.Background(), TrainConfig{
		Name: "m", Classification: "street_cleanliness", FeatureKind: "no_such_kind",
	}); !errors.Is(err, ErrNoTrainingData) {
		t.Fatal("unknown feature kind should give no training data")
	}
}

func TestAnnotateImagesWriteBack(t *testing.T) {
	f := setup(t)
	if _, err := f.svc.TrainModel(context.Background(), TrainConfig{
		Name:           "m",
		Classification: "street_cleanliness",
		FeatureKind:    string(feature.KindColorHist),
		Seed:           2,
	}); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)
	annotated, skipped, err := f.svc.AnnotateImages(context.Background(), "m", f.raw, at)
	if err != nil {
		t.Fatal(err)
	}
	if annotated != len(f.raw) || skipped != 0 {
		t.Fatalf("annotated=%d skipped=%d", annotated, skipped)
	}
	anns := f.st.AnnotationsFor(f.raw[0])
	if len(anns) != 1 || anns[0].Source != store.SourceMachine || !anns[0].AnnotatedAt.Equal(at) {
		t.Fatalf("written annotation = %+v", anns)
	}
	if anns[0].Confidence <= 0 || anns[0].Confidence > 1 {
		t.Fatalf("confidence = %v", anns[0].Confidence)
	}
	// The annotated images are now discoverable by label — translational
	// reuse by another application.
	cls, _ := f.st.ClassificationByName("street_cleanliness")
	total := 0
	for label := range cls.Labels {
		total += len(f.st.ImagesByLabel(cls.ID, label))
	}
	if total != 100 {
		t.Fatalf("labelled images = %d, want 100", total)
	}
	// Unknown model errors; images without the feature are skipped.
	if _, _, err := f.svc.AnnotateImages(context.Background(), "nope", f.raw, at); !errors.Is(err, ErrModelNotFound) {
		t.Fatal("unknown model accepted")
	}
	// Add an image without features: it must be skipped, not fail.
	px := imagesim.MustNew(16, 16)
	id, _ := f.st.AddImage(store.Image{
		FOV:    geo.FOV{Camera: la, Direction: 0, Angle: 60, Radius: 100},
		Pixels: px, TimestampCapturing: at,
	})
	annotated, skipped, err = f.svc.AnnotateImages(context.Background(), "m", []uint64{id}, at)
	if err != nil || annotated != 0 || skipped != 1 {
		t.Fatalf("featureless image: annotated=%d skipped=%d err=%v", annotated, skipped, err)
	}
}

func TestMinConfidenceFiltersTraining(t *testing.T) {
	f := setup(t)
	// Machine-annotate the raw images with low confidence via a weak
	// manual annotation, then ensure MinConfidence excludes them.
	cls, _ := f.st.ClassificationByName("street_cleanliness")
	for _, id := range f.raw {
		_ = f.st.Annotate(store.Annotation{
			ImageID: id, ClassificationID: cls.ID, Label: 0,
			Confidence: 0.2, Source: store.SourceMachine,
		})
	}
	spec, err := f.svc.TrainModel(context.Background(), TrainConfig{
		Name:           "confident-only",
		Classification: "street_cleanliness",
		FeatureKind:    string(feature.KindColorHist),
		MinConfidence:  0.5,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if spec.TrainedOn != 80 {
		t.Fatalf("TrainedOn = %d, want 80 (low-confidence rows excluded)", spec.TrainedOn)
	}
}

func TestModelExportImportRoundTrip(t *testing.T) {
	f := setup(t)
	if _, err := f.svc.TrainModel(context.Background(), TrainConfig{
		Name:           "exportable",
		Classification: "street_cleanliness",
		FeatureKind:    string(feature.KindColorHist),
		Seed:           5,
	}); err != nil {
		t.Fatal(err)
	}
	data, err := f.svc.Registry.Export("exportable")
	if err != nil {
		t.Fatal(err)
	}
	// Import into a fresh registry (an "edge device") and compare
	// predictions on every stored feature vector.
	edgeReg := NewRegistry()
	spec, err := edgeReg.Import(data)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "exportable" || spec.Dim != 50 {
		t.Fatalf("imported spec = %+v", spec)
	}
	for _, id := range f.labeled[:20] {
		vec, err := f.st.GetFeature(id, string(feature.KindColorHist))
		if err != nil {
			t.Fatal(err)
		}
		server, err := f.svc.Registry.Predict("exportable", vec)
		if err != nil {
			t.Fatal(err)
		}
		local, err := edgeReg.Predict("exportable", vec)
		if err != nil {
			t.Fatal(err)
		}
		if server.Label != local.Label {
			t.Fatalf("image %d: server label %d vs local %d", id, server.Label, local.Label)
		}
		if math.Abs(server.Confidence-local.Confidence) > 1e-9 {
			t.Fatalf("image %d: confidences differ", id)
		}
	}
	if _, err := f.svc.Registry.Export("nope"); !errors.Is(err, ErrModelNotFound) {
		t.Fatal("unknown export accepted")
	}
	if _, err := edgeReg.Import([]byte("garbage")); err == nil {
		t.Fatal("garbage import accepted")
	}
	// Re-importing the same name collides.
	if _, err := edgeReg.Import(data); !errors.Is(err, ErrModelExists) {
		t.Fatal("duplicate import accepted")
	}
}

func TestExportNonLinearModelRejected(t *testing.T) {
	r := NewRegistry()
	knn := ml.NewKNN(3)
	d := ml.Dataset{X: [][]float64{{0}, {1}}, Y: []int{0, 1}, Classes: 2}
	if err := knn.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(ModelSpec{Name: "k", Dim: 1, Labels: []string{"a", "b"}}, knn, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Export("k"); !errors.Is(err, ErrNotExportable) {
		t.Fatalf("kNN export err = %v", err)
	}
}
