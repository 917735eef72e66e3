// Package analysis is TVDP's Analysis service (paper §V): a registry of
// shareable ML models with input/output specifications, training of new
// models from the annotated data already in the store, prediction over
// stored or uploaded images, and machine-annotation write-back — the step
// that turns one application's analysis results into another
// application's input ("translational data").
package analysis

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/feature"
	"repro/internal/imagesim"
	"repro/internal/ml"
	"repro/internal/store"
)

// recordCheckpoint is the cancellation-poll cadence of the service's
// per-record loops (training join, batch annotation): ctx.Err is consulted
// once per this many records.
const recordCheckpoint = 64

// ModelSpec is the shareable description of a registered model — the
// "defining its input and output specifications" of §V's devise-new-models
// API.
type ModelSpec struct {
	Name string
	// FeatureKind is the input feature family (the model consumes
	// vectors of that kind).
	FeatureKind string
	// Dim is the expected input dimensionality.
	Dim int
	// Classification names the store labelling scheme the model emits.
	Classification string
	// Labels echoes the scheme's label vocabulary.
	Labels []string
	// Owner identifies the contributing user.
	Owner string
	// TrainedOn is the number of training rows used.
	TrainedOn int
	// MacroF1 is the training-time validation score (0 if unknown).
	MacroF1 float64
}

// Registry stores models under unique names. Safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	models map[string]*entry
}

type entry struct {
	spec ModelSpec
	clf  ml.ProbClassifier
	std  *ml.Standardizer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: make(map[string]*entry)}
}

// Registry errors.
var (
	ErrModelExists   = errors.New("analysis: model already registered")
	ErrModelNotFound = errors.New("analysis: model not found")
)

// Register adds a trained model under spec.Name. std may be nil when the
// model was trained on raw features.
func (r *Registry) Register(spec ModelSpec, clf ml.ProbClassifier, std *ml.Standardizer) error {
	if spec.Name == "" {
		return errors.New("analysis: model needs a name")
	}
	if clf == nil {
		return errors.New("analysis: nil classifier")
	}
	if spec.Dim <= 0 {
		return fmt.Errorf("analysis: model %q has dim %d", spec.Name, spec.Dim)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.models[spec.Name]; dup {
		return fmt.Errorf("%w: %q", ErrModelExists, spec.Name)
	}
	r.models[spec.Name] = &entry{spec: spec, clf: clf, std: std}
	return nil
}

// Spec returns the registered model's specification.
func (r *Registry) Spec(name string) (ModelSpec, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.models[name]
	if !ok {
		return ModelSpec{}, fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	return e.spec, nil
}

// List returns all specs sorted by name.
func (r *Registry) List() []ModelSpec {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ModelSpec, 0, len(r.models))
	for _, e := range r.models {
		out = append(out, e.spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Prediction is one model output.
type Prediction struct {
	Label      int
	LabelName  string
	Confidence float64
	Probs      []float64
}

// Predict runs the named model on a raw feature vector.
func (r *Registry) Predict(name string, vec []float64) (Prediction, error) {
	r.mu.RLock()
	e, ok := r.models[name]
	r.mu.RUnlock()
	if !ok {
		return Prediction{}, fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	if len(vec) != e.spec.Dim {
		return Prediction{}, fmt.Errorf("analysis: model %q expects dim %d, got %d", name, e.spec.Dim, len(vec))
	}
	x := vec
	if e.std != nil {
		var err error
		x, err = e.std.Transform(vec)
		if err != nil {
			return Prediction{}, err
		}
	}
	probs, err := e.clf.PredictProba(x)
	if err != nil {
		return Prediction{}, err
	}
	best := 0
	for i := range probs {
		if probs[i] > probs[best] {
			best = i
		}
	}
	p := Prediction{Label: best, Confidence: probs[best], Probs: probs}
	if best < len(e.spec.Labels) {
		p.LabelName = e.spec.Labels[best]
	}
	return p, nil
}

// Service wires the registry to a store and a set of feature extractors.
type Service struct {
	Store    store.Backend
	Registry *Registry

	mu         sync.RWMutex
	extractors map[string]feature.Extractor
}

// NewService returns a service over st with an empty extractor set.
func NewService(st store.Backend) *Service {
	return &Service{
		Store:      st,
		Registry:   NewRegistry(),
		extractors: make(map[string]feature.Extractor),
	}
}

// RegisterExtractor makes a feature family available for ingest-time
// extraction and API-side "get visual features" calls.
func (s *Service) RegisterExtractor(e feature.Extractor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.extractors[string(e.Kind())] = e
}

// Extractor returns a registered extractor.
func (s *Service) Extractor(kind string) (feature.Extractor, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.extractors[kind]
	if !ok {
		return nil, fmt.Errorf("analysis: no extractor for kind %q", kind)
	}
	return e, nil
}

// ExtractorKinds lists registered kinds, sorted.
func (s *Service) ExtractorKinds() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.extractors))
	for k := range s.extractors {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ExtractAndStore computes and stores every registered feature family for
// an image, returning the kinds written. Cancellation is honoured between
// feature families: kinds already written stay written (each PutFeature is
// durable on its own), and the partial list is returned with the error.
func (s *Service) ExtractAndStore(ctx context.Context, imageID uint64) ([]string, error) {
	return s.extractKinds(ctx, imageID, s.ExtractorKinds())
}

// ExtractMissing computes and stores only the feature families not yet
// present for the image — the idempotent re-drive the ingest pipeline's
// workers and pending-extraction sweep run: a row that crashed in the
// persisted-but-unextracted window can be resubmitted any number of times
// without re-extracting (or re-indexing) the kinds that already landed.
// Returns the kinds written by this call (nil when nothing was missing).
func (s *Service) ExtractMissing(ctx context.Context, imageID uint64) ([]string, error) {
	want := s.ExtractorKinds()
	have := make(map[string]bool)
	for _, k := range s.Store.FeatureKinds(imageID) {
		have[k] = true
	}
	missing := want[:0:0]
	for _, k := range want {
		if !have[k] {
			missing = append(missing, k)
		}
	}
	if len(missing) == 0 {
		// Still verify the row exists so callers get ErrNotFound, not a
		// silent no-op, for a deleted ID.
		if _, err := s.Store.Describe(imageID); err != nil {
			return nil, err
		}
		return nil, nil
	}
	return s.extractKinds(ctx, imageID, missing)
}

// extractKinds is the shared extraction loop over an explicit kind list.
func (s *Service) extractKinds(ctx context.Context, imageID uint64, kinds []string) ([]string, error) {
	img, err := s.Store.GetImage(imageID)
	if err != nil {
		return nil, err
	}
	var done []string
	for _, kind := range kinds {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		// A multi-family extraction is several ms of uninterrupted CPU.
		// Yielding between kinds bounds how long one background
		// extraction can delay latency-sensitive goroutines (WAL
		// committer, upload ack paths) on small hosts; on idle hosts it
		// is a no-op.
		runtime.Gosched()
		e, err := s.Extractor(kind)
		if err != nil {
			return done, err
		}
		vec, err := e.Extract(img.Pixels)
		if err != nil {
			return done, fmt.Errorf("analysis: extracting %s for image %d: %w", kind, imageID, err)
		}
		if err := s.Store.PutFeature(imageID, kind, vec); err != nil {
			return done, err
		}
		done = append(done, kind)
	}
	return done, nil
}

// ExtractUploaded computes one feature family for an uploaded (unstored)
// image — the "Get visual features" API of §V.
func (s *Service) ExtractUploaded(kind string, img *imagesim.Image) ([]float64, error) {
	e, err := s.Extractor(kind)
	if err != nil {
		return nil, err
	}
	return e.Extract(img)
}

// TrainConfig controls TrainModel.
type TrainConfig struct {
	// Name registers the resulting model.
	Name string
	// Classification selects the store labelling scheme supplying
	// training labels.
	Classification string
	// FeatureKind selects the stored feature family used as input.
	FeatureKind string
	// Factory builds the estimator (defaults to a linear SVM).
	Factory ml.Factory
	// HoldoutFrac reserves a validation split for the reported MacroF1
	// (0 disables validation).
	HoldoutFrac float64
	// MinConfidence drops weaker machine annotations from training.
	MinConfidence float64
	// Owner is recorded on the spec.
	Owner string
	// Seed drives the split and stochastic estimators.
	Seed int64
}

// ErrNoTrainingData reports an empty training join.
var ErrNoTrainingData = errors.New("analysis: no training data")

// TrainModel joins stored features with stored annotations for the given
// classification, fits a classifier, registers it, and returns its spec.
// This is how a collaborator "devises a new ML model" from shared data.
func (s *Service) TrainModel(ctx context.Context, cfg TrainConfig) (ModelSpec, error) {
	if cfg.Name == "" {
		return ModelSpec{}, errors.New("analysis: TrainConfig.Name required")
	}
	cls, err := s.Store.ClassificationByName(cfg.Classification)
	if err != nil {
		return ModelSpec{}, err
	}
	if cfg.Factory == nil {
		cfg.Factory = func() ml.Classifier { return ml.NewLinearSVM(ml.DefaultLinearConfig(cfg.Seed)) }
	}
	var d ml.Dataset
	d.Classes = len(cls.Labels)
	joined := 0
	for label := range cls.Labels {
		for _, id := range s.Store.ImagesByLabel(cls.ID, label) {
			if joined%recordCheckpoint == 0 {
				if err := ctx.Err(); err != nil {
					return ModelSpec{}, err
				}
			}
			joined++
			if cfg.MinConfidence > 0 {
				ok := false
				for _, a := range s.Store.AnnotationsFor(id) {
					if a.ClassificationID == cls.ID && a.Label == label && a.Confidence >= cfg.MinConfidence {
						ok = true
						break
					}
				}
				if !ok {
					continue
				}
			}
			vec, err := s.Store.GetFeature(id, cfg.FeatureKind)
			if err != nil {
				continue // images without the feature do not train
			}
			d.X = append(d.X, vec)
			d.Y = append(d.Y, label)
		}
	}
	if d.Len() == 0 {
		return ModelSpec{}, fmt.Errorf("%w: classification %q feature %q", ErrNoTrainingData, cfg.Classification, cfg.FeatureKind)
	}
	// Phase boundary: join done, standardisation + fitting ahead.
	if err := ctx.Err(); err != nil {
		return ModelSpec{}, err
	}
	std, err := ml.FitStandardizer(d.X)
	if err != nil {
		return ModelSpec{}, err
	}
	d.X, err = std.TransformAll(d.X)
	if err != nil {
		return ModelSpec{}, err
	}

	spec := ModelSpec{
		Name: cfg.Name, FeatureKind: cfg.FeatureKind, Dim: len(std.Mean),
		Classification: cfg.Classification, Labels: cls.Labels,
		Owner: cfg.Owner, TrainedOn: d.Len(),
	}
	var final ml.Classifier
	if cfg.HoldoutFrac > 0 && cfg.HoldoutFrac < 1 && d.Len() >= 10 {
		train, test, err := ml.StratifiedSplit(d, 1-cfg.HoldoutFrac, cfg.Seed)
		if err == nil {
			res, err := ml.Evaluate(cfg.Factory(), train, test)
			if err != nil {
				return ModelSpec{}, err
			}
			spec.MacroF1 = res.MacroF1
		}
	}
	// Phase boundary: validation done, final fit ahead.
	if err := ctx.Err(); err != nil {
		return ModelSpec{}, err
	}
	final = cfg.Factory()
	if err := final.Fit(d); err != nil {
		return ModelSpec{}, err
	}
	prob, ok := final.(ml.ProbClassifier)
	if !ok {
		return ModelSpec{}, fmt.Errorf("analysis: estimator %s does not expose probabilities", final.Name())
	}
	if err := s.Registry.Register(spec, prob, std); err != nil {
		return ModelSpec{}, err
	}
	return spec, nil
}

// AnnotateImages runs the named model over stored images and writes
// machine annotations back (the translational write-back of §VII-B).
// Images lacking the model's feature kind are skipped and reported.
// Cancellation is honoured between records: annotations already written
// stay written and the partial counts are returned with the error.
func (s *Service) AnnotateImages(ctx context.Context, modelName string, imageIDs []uint64, at time.Time) (annotated, skipped int, err error) {
	spec, err := s.Registry.Spec(modelName)
	if err != nil {
		return 0, 0, err
	}
	cls, err := s.Store.ClassificationByName(spec.Classification)
	if err != nil {
		return 0, 0, err
	}
	for i, id := range imageIDs {
		if i%recordCheckpoint == 0 {
			if err := ctx.Err(); err != nil {
				return annotated, skipped, err
			}
		}
		vec, err := s.Store.GetFeature(id, spec.FeatureKind)
		if err != nil {
			skipped++
			continue
		}
		p, err := s.Registry.Predict(modelName, vec)
		if err != nil {
			return annotated, skipped, err
		}
		err = s.Store.Annotate(store.Annotation{
			ImageID:          id,
			ClassificationID: cls.ID,
			Label:            p.Label,
			Confidence:       p.Confidence,
			Source:           store.SourceMachine,
			AnnotatedAt:      at,
		})
		if err != nil {
			return annotated, skipped, err
		}
		annotated++
	}
	return annotated, skipped, nil
}
