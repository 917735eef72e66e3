package store

import (
	"context"
	"time"

	"repro/internal/geo"
	"repro/internal/index"
)

// Backend is the store surface the platform layers (api, query, analysis,
// core) program against. Two implementations exist: *Store — one
// process-local engine with its own WAL and committer — and
// shard.Coordinator, which hash-partitions the corpus across N stores and
// scatter-gathers reads. Keeping the upper layers on this interface is
// what lets ShardCount change without touching the HTTP surface.
//
// Contract notes, beyond the method docs on *Store:
//
//   - Generation must change whenever any data-plane write applies, so
//     generation-stamped caches stay coherent over any implementation.
//   - Search* results follow the documented deterministic orders
//     ((Dist, ID) for visual/nearest matches, score-descending then ID
//     for text, (time, ID) for temporal ranges, ascending ID where
//     unranked) regardless of how the corpus is partitioned.
type Backend interface {
	// Lifecycle.
	Close() error
	Snapshot() error
	Generation() uint64

	// Images.
	AddImage(img Image) (uint64, error)
	GetImage(id uint64) (Image, error)
	Describe(id uint64) (Descriptor, error)
	DeleteImage(id uint64) error
	NumImages() int
	ImageIDs() []uint64

	// Features.
	PutFeature(imageID uint64, kind string, vec []float64) error
	GetFeature(imageID uint64, kind string) ([]float64, error)
	FeatureKinds(imageID uint64) []string

	// Classifications and annotations.
	CreateClassification(name string, labels []string) (uint64, error)
	GetClassification(id uint64) (Classification, error)
	ClassificationByName(name string) (Classification, error)
	Classifications() []Classification
	Annotate(a Annotation) error
	AnnotationsFor(imageID uint64) []Annotation
	ImagesByLabel(classificationID uint64, label int) []uint64

	// Keywords.
	AddKeywords(imageID uint64, words []string) error
	KeywordsFor(imageID uint64) []string

	// Users and API keys.
	CreateUser(name, role string) (uint64, error)
	IssueAPIKey(userID uint64, now time.Time) (string, error)
	Authenticate(key string) (User, error)

	// Videos.
	AddVideo(description, workerID string, frames []Frame) (uint64, []uint64, error)
	GetVideo(id uint64) (Video, error)
	Videos() []Video

	// Campaigns.
	CreateCampaign(c CampaignRec) (uint64, error)
	GetCampaign(id uint64) (CampaignRec, error)
	Campaigns() []CampaignRec
	CampaignImages(campaignID uint64) []uint64
	FOVsInRegion(r geo.Rect) []geo.FOV

	// Query primitives (composed by internal/query).
	SearchScene(ctx context.Context, r geo.Rect) ([]uint64, error)
	SearchNearest(ctx context.Context, p geo.Point, k int) ([]uint64, error)
	SearchVisual(ctx context.Context, kind string, vec []float64, k int) ([]index.Match, error)
	SearchVisualQuant(ctx context.Context, kind string, vec []float64, k int) ([]index.Match, error)
	SearchVisualExact(ctx context.Context, kind string, vec []float64, k int) ([]index.Match, error)
	SearchVisualRadius(ctx context.Context, kind string, vec []float64, r float64) ([]index.Match, error)
	SearchHybrid(ctx context.Context, kind string, r geo.Rect, vec []float64, k int) ([]index.Match, bool, error)
	SearchText(ctx context.Context, terms []string) ([]index.Match, error)
	SearchTextAll(ctx context.Context, terms []string) ([]index.Match, error)
	SearchTime(ctx context.Context, from, to time.Time) ([]uint64, error)
	// FilterIDs evaluates non-driving clauses on a candidate list in one
	// call, preserving input order.
	FilterIDs(ctx context.Context, ids []uint64, f IDFilter) ([]uint64, error)
}

var _ Backend = (*Store)(nil)
