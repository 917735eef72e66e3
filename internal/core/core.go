// Package core implements the TVDP platform object — the paper's
// primary contribution: the unified "translational" layer that wires the
// four A-services (Acquisition, Access, Analysis, Action) over one
// durable geo-tagged visual data store. The root package tvdp re-exports
// this API for downstream users.
//
// TVDP reproduces "TVDP: Translational Visual Data
// Platform for Smart Cities" (Kim, Alfarrarjeh, Constantinou, Shahabi —
// ICDE 2019).
//
// A Platform bundles the paper's four core services around a durable
// geo-tagged image store:
//
//   - Acquisition — spatial-crowdsourcing campaigns that fill coverage
//     gaps (NewCampaignRunner, internal coverage model),
//   - Access — the comprehensive data model (FOV + scene location,
//     features, annotations, keywords, timestamps) behind multi-modal
//     indexed queries (Search, Query engine),
//   - Analysis — feature extraction (colour histogram / SIFT-BoW / CNN)
//     and shareable trained models (TrainModel, Predict, Annotate), and
//   - Action — the edge component that dispatches model variants by
//     device capability (Dispatch) and folds edge data back into training.
//
// The usual lifecycle is Open → IngestRecord/Ingest → TrainModel →
// AnnotateAll → Search / Serve.
package core

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/crowd"
	"repro/internal/edge"
	"repro/internal/feature"
	"repro/internal/geo"
	"repro/internal/imagesim"
	"repro/internal/ingest"
	"repro/internal/ml"
	"repro/internal/nn"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/synth"
)

// Config controls platform construction.
type Config struct {
	// Dir is the durability directory; empty runs in memory.
	Dir string
	// ShardCount partitions the corpus across this many store shards
	// (internal/shard). 0 and 1 both mean a single unsharded store with
	// the exact on-disk layout earlier releases wrote; N > 1 places each
	// shard under Dir/shard-XXX and scatter-gathers queries.
	ShardCount int
	// WALSync selects WAL batch durability: store.SyncBatch (default),
	// store.SyncImmediate, or store.SyncNone.
	WALSync store.WALSyncMode
	// FlushThreshold is the segment engine's memtable flush trigger in
	// WAL bytes (0 means store.DefaultFlushThreshold).
	FlushThreshold int64
	// CompactSegments is the segment count that triggers background
	// compaction (0 means store.DefaultCompactSegments).
	CompactSegments int
	// HybridKinds lists feature kinds that maintain a single-pass
	// spatial-visual hybrid index.
	HybridKinds []string
	// Extractors are registered at open; nil installs the colour
	// histogram only (CNN and BoW extractors need training data — add
	// them later via RegisterExtractor).
	Extractors []feature.Extractor
	// IngestWorkers is the streaming-ingest partition count (0 means
	// ingest.DefaultConfig). Records from the same source always land on
	// the same partition, preserving per-source order.
	IngestWorkers int
	// IngestQueue bounds each partition's queued-plus-in-flight records;
	// past it admission sheds ingest.ErrBusy (HTTP 429). 0 means the
	// ingest default.
	IngestQueue int
	// IngestRefreshEvery fires OnIngestRefresh after this many successful
	// extractions (0 disables the hook).
	IngestRefreshEvery int
	// OnIngestRefresh is the off-path maintenance hook (quantizer / BoW
	// retrain, store flush). It runs on the pipeline's refresher goroutine,
	// never on an upload path.
	OnIngestRefresh func(context.Context) error
}

// Platform is one running TVDP instance.
//
//tvdp:surface re-exported as tvdp.Platform, the module's public API
type Platform struct {
	Store    store.Backend
	Analysis *analysis.Service
	Query    *query.Engine
	// Pipeline is the staged upload pipeline every entry point (REST
	// handlers, CLI, Platform.Ingest*) routes through. It is started at
	// Open and drained at Close.
	Pipeline *ingest.Pipeline
}

// Open creates or recovers a platform.
func Open(cfg Config) (*Platform, error) {
	var st store.Backend
	if cfg.ShardCount > 1 {
		co, err := shard.Open(shard.Config{
			Dir:             cfg.Dir,
			ShardCount:      cfg.ShardCount,
			WALSync:         cfg.WALSync,
			HybridKinds:     cfg.HybridKinds,
			FlushThreshold:  cfg.FlushThreshold,
			CompactSegments: cfg.CompactSegments,
		})
		if err != nil {
			return nil, err
		}
		st = co
	} else {
		sc := store.DefaultConfig()
		sc.Dir = cfg.Dir
		sc.WALSync = cfg.WALSync
		sc.HybridKinds = cfg.HybridKinds
		sc.FlushThreshold = cfg.FlushThreshold
		sc.CompactSegments = cfg.CompactSegments
		s, err := store.Open(sc)
		if err != nil {
			return nil, err
		}
		st = s
	}
	svc := analysis.NewService(st)
	if cfg.Extractors == nil {
		svc.RegisterExtractor(feature.NewColorHistogram())
	} else {
		for _, e := range cfg.Extractors {
			svc.RegisterExtractor(e)
		}
	}
	icfg := ingest.DefaultConfig()
	if cfg.IngestWorkers > 0 {
		icfg.Partitions = cfg.IngestWorkers
	}
	if cfg.IngestQueue > 0 {
		icfg.QueueDepth = cfg.IngestQueue
	}
	icfg.RefreshEvery = cfg.IngestRefreshEvery
	icfg.OnRefresh = cfg.OnIngestRefresh
	pipe := ingest.New(st, svc, icfg)
	pipe.Start(context.Background())
	p := &Platform{Store: st, Analysis: svc, Query: query.New(st), Pipeline: pipe}
	// At-least-once recovery: rows whose persist committed before a crash
	// but whose extraction never ran are re-driven now, off the open path.
	if _, err := pipe.Sweep(context.Background()); err != nil {
		pipe.Close()
		st.Close()
		return nil, err
	}
	return p, nil
}

// Close drains the ingest pipeline (workers still hold store handles),
// then flushes and closes the underlying store.
func (p *Platform) Close() error {
	perr := p.Pipeline.Close()
	serr := p.Store.Close()
	if perr != nil {
		return perr
	}
	return serr
}

// RegisterExtractor adds a feature family (e.g. a trained CNN or BoW
// extractor) for ingest-time extraction.
func (p *Platform) RegisterExtractor(e feature.Extractor) {
	p.Analysis.RegisterExtractor(e)
}

// Ingest stores one image with its spatial and temporal descriptors plus
// optional keywords, extracts all registered feature families, and
// returns the new image ID.
func (p *Platform) Ingest(ctx context.Context, img *imagesim.Image, fov geo.FOV, capturedAt time.Time, keywords []string) (uint64, error) {
	id, _, err := p.Pipeline.SubmitSync(ctx, ingest.Record{
		Image: store.Image{
			FOV:                fov,
			Pixels:             img,
			TimestampCapturing: capturedAt,
		},
		Keywords: keywords,
	})
	return id, err
}

// IngestRecord stores one synthetic capture record (the MediaQ-style
// ingest path used by examples and benchmarks).
func (p *Platform) IngestRecord(ctx context.Context, rec synth.Record) (uint64, error) {
	id, _, err := p.Pipeline.SubmitSync(ctx, ingest.Record{
		Image: store.Image{
			FOV:                rec.FOV,
			Pixels:             rec.Image,
			TimestampCapturing: rec.CapturedAt,
			TimestampUploading: rec.UploadedAt,
			WorkerID:           rec.WorkerID,
		},
		Keywords: rec.Keywords,
	})
	return id, err
}

// IngestRecordAsync admits one capture record to the streaming pipeline:
// it returns as soon as the row is WAL-durable, with feature extraction
// and index maintenance completing on a partition worker. ingest.ErrBusy
// means the partition's queue is full and nothing was persisted — retry
// after a beat.
func (p *Platform) IngestRecordAsync(ctx context.Context, rec synth.Record) (uint64, error) {
	return p.Pipeline.SubmitAsync(ctx, ingest.Record{
		Image: store.Image{
			FOV:                rec.FOV,
			Pixels:             rec.Image,
			TimestampCapturing: rec.CapturedAt,
			TimestampUploading: rec.UploadedAt,
			WorkerID:           rec.WorkerID,
		},
		Keywords: rec.Keywords,
	})
}

// IngestVideo stores a video as ordered key frames (each a full image
// row with its own FOV, per the paper's video model) and extracts every
// registered feature family for each frame.
func (p *Platform) IngestVideo(ctx context.Context, description, workerID string, frames []store.Frame) (uint64, []uint64, error) {
	vid, res, err := p.Pipeline.SubmitVideoSync(ctx, ingest.VideoRecord{
		Description: description,
		WorkerID:    workerID,
		Frames:      frames,
	})
	if err != nil {
		return 0, nil, err
	}
	ids := make([]uint64, len(res))
	for i, fr := range res {
		ids[i] = fr.ID
		if fr.Err != "" && err == nil {
			err = fmt.Errorf("tvdp: frame %d extraction: %s", fr.ID, fr.Err)
		}
	}
	return vid, ids, err
}

// CreateClassification registers a labelling scheme (e.g. the LASAN
// street-cleanliness labels) and returns its ID.
func (p *Platform) CreateClassification(name string, labels []string) (uint64, error) {
	return p.Store.CreateClassification(name, labels)
}

// AnnotateHuman records a ground-truth human label on an image.
func (p *Platform) AnnotateHuman(imageID uint64, classification string, label int, at time.Time) error {
	cls, err := p.Store.ClassificationByName(classification)
	if err != nil {
		return err
	}
	return p.Store.Annotate(store.Annotation{
		ImageID: imageID, ClassificationID: cls.ID, Label: label,
		Confidence: 1, Source: store.SourceHuman, AnnotatedAt: at,
	})
}

// TrainModel fits a classifier on the store's annotated features and
// registers it under cfg.Name.
func (p *Platform) TrainModel(ctx context.Context, cfg analysis.TrainConfig) (analysis.ModelSpec, error) {
	return p.Analysis.TrainModel(ctx, cfg)
}

// Predict runs a registered model on a feature vector.
func (p *Platform) Predict(model string, vec []float64) (analysis.Prediction, error) {
	return p.Analysis.Registry.Predict(model, vec)
}

// AnnotateAll machine-annotates every stored image with the model,
// writing results back as augmented knowledge (the translational step).
func (p *Platform) AnnotateAll(ctx context.Context, model string, at time.Time) (annotated, skipped int, err error) {
	return p.Analysis.AnnotateImages(ctx, model, p.Store.ImageIDs(), at)
}

// Search executes a multi-modal query.
func (p *Platform) Search(ctx context.Context, q query.Query) ([]query.Result, query.Plan, error) {
	return p.Query.Run(ctx, q)
}

// Handler returns the REST API handler (paper §V) over this platform.
func (p *Platform) Handler(logger *log.Logger) http.Handler {
	return api.NewServer(p.Store, p.Analysis, p.Pipeline, logger)
}

// ServeConfig controls Platform.Serve. The zero value of each field
// selects a production-safe default.
type ServeConfig struct {
	// Addr is the listen address (host:port).
	Addr string
	// Logger receives request and lifecycle lines; nil discards.
	Logger *log.Logger
	// RequestTimeout is the per-request deadline budget each handler
	// derives from the client's context (default 30s).
	RequestTimeout time.Duration
	// ShutdownGrace bounds the in-flight drain after ctx is cancelled
	// (default 10s). Requests still running when it expires are
	// force-closed.
	ShutdownGrace time.Duration
	// Ready, when non-nil, is called once with the bound listen address
	// before the first request is accepted. With Addr ":0" it is the only
	// way to learn the kernel-assigned port (tests, the CI shutdown gate).
	Ready func(addr net.Addr)
	// RateLimit admits this many requests per second per client before
	// the API sheds 429s; zero disables admission control.
	RateLimit float64
	// RateBurst is the admission bucket capacity (<= 0 derives it from
	// RateLimit).
	RateBurst int
}

// Serve runs the REST API on cfg.Addr until ctx is cancelled or the
// listener fails. On cancellation it stops accepting, drains in-flight
// requests for up to cfg.ShutdownGrace, then force-closes stragglers. A
// nil return means every request drained cleanly; the caller then owns
// quiescing the store (Snapshot + Close). The http.Server carries full
// slow-client armour: header/read/write/idle timeouts all set.
func (p *Platform) Serve(ctx context.Context, cfg ServeConfig) error {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.ShutdownGrace <= 0 {
		cfg.ShutdownGrace = 10 * time.Second
	}
	h := api.NewServer(p.Store, p.Analysis, p.Pipeline, cfg.Logger)
	h.RequestTimeout = cfg.RequestTimeout
	h.RateLimit = cfg.RateLimit
	h.RateBurst = cfg.RateBurst
	srv := &http.Server{
		Addr:              cfg.Addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		// WriteTimeout must outlast the handler deadline budget, or slow
		// (but in-budget) handlers get their response writes torn.
		WriteTimeout: cfg.RequestTimeout + 30*time.Second,
		IdleTimeout:  2 * time.Minute,
		ErrorLog:     cfg.Logger,
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	if cfg.Ready != nil {
		cfg.Ready(ln.Addr())
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	// The parent is already cancelled; the drain needs its own budget, so
	// derive it from a cancellation-stripped copy (not Background — the
	// parent's values survive).
	sdCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), cfg.ShutdownGrace)
	defer cancel()
	if err := srv.Shutdown(sdCtx); err != nil {
		srv.Close()
		return fmt.Errorf("tvdp: shutdown drain: %w", err)
	}
	return nil
}

// Dispatch picks the model variant an edge device should run.
func (p *Platform) Dispatch(device edge.DeviceProfile, c edge.Constraints) (edge.Decision, error) {
	return edge.Dispatch(device, nn.Profiles(), c, nil)
}

// NewCampaignRunner builds an iterative crowdsourcing campaign over a
// region. Existing stored images seed the coverage map, so campaigns only
// task workers at genuine gaps.
func (p *Platform) NewCampaignRunner(c crowd.Campaign, rows, cols int, workers []crowd.Worker, capture crowd.CaptureFunc, seed int64) (*crowd.Runner, error) {
	model, err := crowd.NewCoverageModel(c.Region, rows, cols, 1, 1)
	if err != nil {
		return nil, err
	}
	var existing []geo.FOV
	for _, id := range p.Store.ImageIDs() {
		d, err := p.Store.Describe(id)
		if err != nil {
			continue
		}
		if c.Region.Intersects(d.Scene) {
			existing = append(existing, d.FOV)
		}
	}
	return crowd.NewRunner(c, model, workers, capture, existing, seed)
}

// TrainCNNExtractor fine-tunes a CNN feature extractor on labelled store
// images of the given classification and returns it (register it with
// RegisterExtractor to use at ingest).
func (p *Platform) TrainCNNExtractor(ctx context.Context, classification string, cfg feature.CNNTrainConfig) (*feature.CNNExtractor, error) {
	cls, err := p.Store.ClassificationByName(classification)
	if err != nil {
		return nil, err
	}
	var imgs []*imagesim.Image
	var labels []int
	for label := range cls.Labels {
		for _, id := range p.Store.ImagesByLabel(cls.ID, label) {
			img, err := p.Store.GetImage(id)
			if err != nil {
				continue
			}
			imgs = append(imgs, img.Pixels)
			labels = append(labels, label)
		}
	}
	if len(imgs) == 0 {
		return nil, fmt.Errorf("tvdp: no labelled images for %q", classification)
	}
	if cfg.Net.Classes == 0 {
		cfg = feature.DefaultCNNTrainConfig(len(cls.Labels))
	}
	return feature.TrainCNN(ctx, imgs, labels, cfg)
}

// Stats summarises platform contents.
type Stats struct {
	Images          int
	Classifications int
	Models          int
	FeatureKinds    []string
}

// Stats returns a content summary.
func (p *Platform) Stats() Stats {
	return Stats{
		Images:          p.Store.NumImages(),
		Classifications: len(p.Store.Classifications()),
		Models:          len(p.Analysis.Registry.List()),
		FeatureKinds:    p.Analysis.ExtractorKinds(),
	}
}

// DefaultClassifierFactory returns the paper's best estimator (linear
// SVM) as an ml.Factory for TrainModel configs.
func DefaultClassifierFactory(seed int64) ml.Factory {
	return func() ml.Classifier { return ml.NewLinearSVM(ml.DefaultLinearConfig(seed)) }
}
