package store

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/index"
)

// WALSyncMode selects how aggressively the WAL committer makes batches
// durable. The zero value is SyncBatch.
type WALSyncMode int

const (
	// SyncBatch issues one write(2) per group-commit batch and leaves the
	// fsync to the OS — a crash can lose the OS write-back window, a
	// process panic loses nothing.
	SyncBatch WALSyncMode = iota
	// SyncImmediate fsyncs every batch before acknowledging its
	// mutations: every mutation blocks until its WAL batch is fsynced
	// (the committer coalesces concurrent mutations into one fsync per
	// batch).
	SyncImmediate
	// SyncNone buffers acknowledged batches in memory and writes them
	// out only when 256 KiB accumulate (or on rotation/close) — a crash
	// can lose the buffered window.
	SyncNone
)

func (m WALSyncMode) String() string {
	switch m {
	case SyncImmediate:
		return "immediate"
	case SyncNone:
		return "none"
	default:
		return "batch"
	}
}

// ParseWALSyncMode parses a -wal-sync flag value ("" means the default).
func ParseWALSyncMode(v string) (WALSyncMode, error) {
	switch v {
	case "", "batch":
		return SyncBatch, nil
	case "immediate":
		return SyncImmediate, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("%w: unknown WAL sync mode %q (want batch, immediate, or none)", ErrInvalid, v)
	}
}

// Defaults for the segment engine's tuning knobs.
const (
	// DefaultFlushThreshold is the memtable size (in WAL bytes) that
	// triggers a background flush.
	DefaultFlushThreshold = 8 << 20
	// DefaultCompactSegments is the live segment count that triggers a
	// background compaction.
	DefaultCompactSegments = 6
	// memHardMult and memHardFloor cap the memtable at
	// max(memHardMult × FlushThreshold, memHardFloor) bytes. When
	// sustained ingest outruns flush bandwidth the memtable would grow
	// without bound — each flush then serialises a bigger window, which
	// takes longer, which grows the next window (and its replay-on-crash
	// cost) further. At the cap, writers block after their commit until
	// the next freeze-swap empties the memtable: ingest degrades to flush
	// bandwidth instead of collapsing, and replay work stays bounded.
	// The floor keeps the cap several flush cycles wide under a small
	// FlushThreshold — a cap only one cycle deep would park writers for
	// the remainder of every in-flight flush, turning the throttle itself
	// into the stall it exists to prevent.
	memHardMult  = 8
	memHardFloor = 4 << 20
)

// Config controls the engine.
type Config struct {
	// Dir is the durability directory; empty means memory-only (no WAL,
	// no segments — used by tests and ephemeral pipelines).
	Dir string
	// WALSync selects batch durability (default SyncBatch).
	WALSync WALSyncMode
	// RTree sizes the spatial index nodes.
	RTree index.RTreeConfig
	// LSH sizes the per-feature-kind visual indexes.
	LSH index.LSHConfig
	// HybridKinds lists feature kinds that additionally maintain a
	// spatial-visual hybrid tree for single-pass hybrid queries.
	HybridKinds []string
	// FlushThreshold is the memtable size in WAL bytes that triggers a
	// background segment flush (0 means DefaultFlushThreshold).
	FlushThreshold int64
	// CompactSegments is the live segment count that triggers background
	// compaction (0 means DefaultCompactSegments).
	CompactSegments int
}

// DefaultConfig returns a memory-only configuration with standard index
// parameters.
func DefaultConfig() Config {
	return Config{
		RTree: index.DefaultRTreeConfig(),
		LSH:   index.DefaultLSHConfig(1),
	}
}

// Store is the engine. All exported methods are safe for concurrent use.
//
// Concurrency architecture: instead of one global RWMutex, state is
// partitioned into subsystems, each guarded by its own RWMutex, so query
// traffic over one index never contends with ingest touching another.
//
// Lock map (what each lock guards):
//
//	catalogMu — classifications, classByName, users, apiKeys, videos,
//	            campaigns
//	imagesMu  — images, ids (the sorted id slice)
//	featMu    — features, visual LSH indexes, hybrid trees
//	annMu     — annotations, byLabel
//	kwMu      — keywords, text inverted index
//	geoMu     — spatial R-tree, temporal index
//
// Lock ordering discipline: a goroutine that needs several locks MUST
// acquire them in the order listed above (catalogMu first, geoMu last)
// and may release them in any order. Skipping locks is fine; acquiring
// out of order is a deadlock. The flush freeze-swap and Close take all
// six in order.
//
// nextID and closed are atomics so ID allocation and shutdown checks
// never serialise on any subsystem. WAL durability is handled by the
// group-commit committer (committer.go): mutations apply under their
// subsystem locks, enqueue their pre-encoded frame while still holding
// them (pinning log order to apply order), then release the locks and
// block until the committer reports the batch durable.
type Store struct {
	cfg Config

	catalogMu sync.RWMutex
	imagesMu  sync.RWMutex
	featMu    sync.RWMutex
	annMu     sync.RWMutex
	kwMu      sync.RWMutex
	geoMu     sync.RWMutex

	nextID atomic.Uint64
	closed atomic.Bool
	// mutGen counts applied data-plane mutations (images, features,
	// annotations, keywords, classifications, videos, deletes). Readers
	// use it as a cache-invalidation stamp: a query result computed at
	// generation g is safe to serve only while Generation() == g. Bumped
	// under the relevant subsystem locks, read lock-free.
	mutGen atomic.Uint64

	//tvdp:guardedby imagesMu
	images map[uint64]*Image
	// ids mirrors the images map keys in ascending order, maintained
	// incrementally on add/delete so ImageIDs never re-sorts.
	//tvdp:guardedby imagesMu
	ids []uint64
	//tvdp:guardedby featMu
	features map[uint64]map[string][]float64
	//tvdp:guardedby catalogMu
	classifications map[uint64]*Classification
	//tvdp:guardedby catalogMu
	classByName map[string]uint64
	//tvdp:guardedby annMu
	annotations map[uint64][]Annotation
	// byLabel[classID][label] -> imageIDs (categorical index).
	//tvdp:guardedby annMu
	byLabel map[uint64]map[int][]uint64
	//tvdp:guardedby kwMu
	keywords map[uint64][]string
	//tvdp:guardedby catalogMu
	users map[uint64]*User
	//tvdp:guardedby catalogMu
	apiKeys map[string]*APIKey
	//tvdp:guardedby catalogMu
	videos map[uint64]*Video
	//tvdp:guardedby catalogMu
	campaigns map[uint64]*CampaignRec

	//tvdp:guardedby geoMu
	spatial *index.RTree
	//tvdp:guardedby featMu
	visual map[string]*index.LSH
	//tvdp:guardedby featMu
	hybrid map[string]*index.HybridTree
	//tvdp:guardedby kwMu
	text *index.Inverted
	//tvdp:guardedby geoMu
	temporal *index.Temporal

	// com is the group-commit WAL committer (nil for memory-only stores).
	com *walCommitter
	// gen is the live wal-%06d.log generation (written at Open and under
	// flushMu + all six locks in flushOnce).
	//tvdp:guardedby flushMu
	gen uint64

	// Segment engine state (nil/zero for memory-only stores): mem is
	// the current memtable window (fields written under their subsystem
	// locks — see memtable.go), memBytes its WAL-byte footprint (the
	// flush trigger), eng the background flush/compaction worker.
	mem      *memtable
	memBytes atomic.Int64
	eng      *segEngine
	// memFreed (on memThrottleMu) wakes writers blocked at the memtable
	// hard cap (memHardMult × FlushThreshold); the freeze-swap broadcasts
	// it after zeroing memBytes, as does Close.
	memThrottleMu sync.Mutex
	//tvdp:guardedby memThrottleMu
	memFreed *sync.Cond
}

// Open creates or recovers a store.
//
//tvdp:serial construction and recovery run before the store is shared
func Open(cfg Config) (*Store, error) {
	if cfg.RTree.MaxEntries == 0 {
		cfg.RTree = index.DefaultRTreeConfig()
	}
	if cfg.LSH.Tables == 0 {
		cfg.LSH = index.DefaultLSHConfig(1)
	}
	if cfg.FlushThreshold <= 0 {
		cfg.FlushThreshold = DefaultFlushThreshold
	}
	if cfg.CompactSegments < 2 {
		cfg.CompactSegments = DefaultCompactSegments
	}
	sp, err := index.NewRTree(cfg.RTree)
	if err != nil {
		return nil, err
	}
	s := &Store{
		cfg:             cfg,
		images:          make(map[uint64]*Image),
		features:        make(map[uint64]map[string][]float64),
		classifications: make(map[uint64]*Classification),
		classByName:     make(map[string]uint64),
		annotations:     make(map[uint64][]Annotation),
		byLabel:         make(map[uint64]map[int][]uint64),
		keywords:        make(map[uint64][]string),
		users:           make(map[uint64]*User),
		apiKeys:         make(map[string]*APIKey),
		videos:          make(map[uint64]*Video),
		campaigns:       make(map[uint64]*CampaignRec),
		spatial:         sp,
		visual:          make(map[string]*index.LSH),
		hybrid:          make(map[string]*index.HybridTree),
		text:            index.NewInverted(),
		temporal:        index.NewTemporal(),
	}
	s.memFreed = sync.NewCond(&s.memThrottleMu)
	if cfg.Dir == "" {
		return s, nil
	}
	if err := s.openSegment(); err != nil {
		return nil, err
	}
	return s, nil
}

// lockAll / unlockAll take or release every subsystem lock in the
// documented order (used by the flush freeze-swap and Close to quiesce
// the store).
func (s *Store) lockAll() {
	s.catalogMu.Lock()
	s.imagesMu.Lock()
	s.featMu.Lock()
	s.annMu.Lock()
	s.kwMu.Lock()
	s.geoMu.Lock()
}

func (s *Store) unlockAll() {
	s.geoMu.Unlock()
	s.kwMu.Unlock()
	s.annMu.Unlock()
	s.featMu.Unlock()
	s.imagesMu.Unlock()
	s.catalogMu.Unlock()
}

// bumpNextID raises the allocator to at least id (WAL replay/segment load).
func (s *Store) bumpNextID(id uint64) {
	for {
		cur := s.nextID.Load()
		if id <= cur || s.nextID.CompareAndSwap(cur, id) {
			return
		}
	}
}

// Close flushes and closes the WAL. Further mutations fail with
// ErrClosed; reads keep working against the in-memory state. Any
// background flush/compaction failure recorded since Open is surfaced
// here.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	// Release writers parked at the memtable hard cap, then quiesce:
	// in-flight mutations finish applying and enqueueing before the
	// committer drains and closes the log.
	s.wakeThrottled()
	s.lockAll()
	s.unlockAll()
	var errs []error
	if s.eng != nil {
		// Stop the flush/compaction worker before closing the committer:
		// a mid-flight flush must not race the final log close.
		s.eng.stopWorker()
		if err := s.eng.takeErr(); err != nil {
			errs = append(errs, err)
		}
	}
	if s.com != nil {
		if err := s.com.close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// encode pre-serialises an op into a WAL frame outside any lock; nil
// frame means durability is disabled.
func (s *Store) encode(op walOp) ([]byte, error) {
	if s.com == nil {
		return nil, nil
	}
	frame, err := encodeFrame(op)
	if err != nil {
		return nil, fmt.Errorf("store: encoding WAL op %s: %w", op.Kind, err)
	}
	return frame, nil
}

// enqueue hands a frame to the committer. Callers hold the write lock of
// every subsystem the op touched, which pins log order to apply order.
//
//tvdp:requires catalogMu|imagesMu|featMu|annMu|kwMu|geoMu
func (s *Store) enqueue(frame []byte) <-chan error { return s.enqueueN(frame, 1) }

//tvdp:requires catalogMu|imagesMu|featMu|annMu|kwMu|geoMu
func (s *Store) enqueueN(frame []byte, ops uint64) <-chan error {
	if s.com == nil || frame == nil {
		return nil
	}
	// Callers hold their subsystem write lock here, the same lock their
	// memtable record was made under, so the byte count can never run
	// ahead of the records it measures.
	s.memBytes.Add(int64(len(frame)))
	return s.com.enqueue(frame, ops)
}

// awaitCommit blocks until the batch containing the caller's frame is
// durable, then kicks a background flush once the memtable crosses the
// flush threshold. Called with no locks held.
func (s *Store) awaitCommit(wait <-chan error) error {
	if wait == nil {
		return nil
	}
	if err := <-wait; err != nil {
		return err
	}
	if s.memBytes.Load() >= s.cfg.FlushThreshold {
		s.eng.kick()
	}
	s.throttleMem()
	return nil
}

// throttleMem blocks the calling writer while the memtable sits at or
// above the hard cap (memHardMult × FlushThreshold). Called with no
// locks held, after the caller's own commit — the mutation is applied
// and durable; only the *return* is delayed, so acked durability and
// apply order are untouched. The wait ends at the next freeze-swap
// (memBytes drops to 0), on Close, or if the background engine has
// recorded an error (no future flush is guaranteed then — better to let
// writers run uncapped than to strand them on a condvar).
func (s *Store) throttleMem() {
	hard := s.cfg.FlushThreshold * memHardMult
	if hard < memHardFloor {
		hard = memHardFloor
	}
	if s.memBytes.Load() < hard {
		return
	}
	s.memThrottleMu.Lock()
	for s.memBytes.Load() >= hard && !s.closed.Load() && !s.eng.sick() {
		s.eng.kick()
		s.memFreed.Wait()
	}
	s.memThrottleMu.Unlock()
}

// wakeThrottled releases every writer blocked in throttleMem. The
// lock/unlock pair orders the wakeup against a waiter between its cap
// check and its Wait.
func (s *Store) wakeThrottled() {
	s.memThrottleMu.Lock()
	s.memFreed.Broadcast()
	s.memThrottleMu.Unlock()
}

// applyOp replays one WAL op into in-memory state (no re-logging). Used
// by recovery only, before the store is shared.
//
//tvdp:serial WAL replay runs single-threaded before the store is shared
func (s *Store) applyOp(op walOp) error {
	switch op.Kind {
	case opAddImage:
		return s.applyImage(op.Image)
	case opAddFeature:
		return s.applyFeature(op.Feature)
	case opAddClass:
		return s.applyClassification(op.Classification)
	case opAddAnnotation:
		return s.applyAnnotation(op.Annotation)
	case opAddKeywords:
		return s.applyKeywords(op.Keyword.ImageID, op.Keyword.Words)
	case opAddUser:
		return s.applyUser(op.User)
	case opAddAPIKey:
		s.applyAPIKey(op.APIKey)
		return nil
	case opAddVideo:
		return s.applyVideo(op.Video)
	case opAddCampaign:
		return s.applyCampaign(op.Campaign)
	case opDeleteImage:
		return s.applyDeleteImage(op.DeleteImageID)
	default:
		return fmt.Errorf("%w: unknown WAL op %q", ErrInvalid, op.Kind)
	}
}

// Snapshot forces a memtable flush to a new segment (the freeze-swap
// holds the locks only briefly; segment and manifest writes happen
// off-lock). No-op for memory-only stores.
func (s *Store) Snapshot() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if s.eng == nil {
		return nil
	}
	return s.eng.flushOnce()
}

// ---- Images ----

// AddImage validates, assigns an ID, derives the scene location, indexes,
// logs, and returns the stored image's ID. A caller that pre-assigned
// img.ID (the shard coordinator, which owns a global allocator) keeps it;
// img.ID == 0 allocates locally.
func (s *Store) AddImage(img Image) (uint64, error) {
	if err := img.FOV.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if img.Pixels == nil {
		return 0, fmt.Errorf("%w: image has no pixels", ErrInvalid)
	}
	if img.Origin == "" {
		img.Origin = OriginOriginal
	}
	if img.TimestampUploading.IsZero() {
		img.TimestampUploading = img.TimestampCapturing
	}
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if img.ID == 0 {
		img.ID = s.nextID.Add(1)
	}
	img.Scene = img.FOV.SceneLocation()
	frame, err := s.encode(walOp{Kind: opAddImage, Image: &img})
	if err != nil {
		return 0, err
	}
	s.imagesMu.Lock()
	s.geoMu.Lock()
	unlock := func() { s.geoMu.Unlock(); s.imagesMu.Unlock() }
	if s.closed.Load() {
		unlock()
		return 0, ErrClosed
	}
	if err := s.applyImage(&img); err != nil {
		unlock()
		return 0, err
	}
	wait := s.enqueue(frame)
	unlock()
	if err := s.awaitCommit(wait); err != nil {
		return 0, err
	}
	return img.ID, nil
}

// applyImage inserts one image row plus its spatial/temporal index
// entries. Callers hold imagesMu and geoMu (or are single-threaded
// recovery, which is exempted at the call site by //tvdp:serial).
//
//tvdp:requires imagesMu,geoMu
func (s *Store) applyImage(img *Image) error {
	if _, dup := s.images[img.ID]; dup {
		return fmt.Errorf("%w: image %d", ErrDuplicate, img.ID)
	}
	s.mutGen.Add(1)
	s.bumpNextID(img.ID)
	s.images[img.ID] = img
	s.idsInsert(img.ID)
	if err := s.spatial.Insert(index.SpatialItem{ID: img.ID, Rect: img.Scene}); err != nil {
		return err
	}
	s.temporal.Insert(img.ID, img.TimestampCapturing)
	if s.mem != nil {
		s.mem.addImage(img)
	}
	return nil
}

// idsInsert keeps the sorted id slice sorted on insert. Appends are O(1)
// for the common monotonically-increasing case; out-of-order ids (WAL
// replay of concurrent adds) binary-search their slot.
//
//tvdp:requires imagesMu
func (s *Store) idsInsert(id uint64) {
	n := len(s.ids)
	if n == 0 || s.ids[n-1] < id {
		s.ids = append(s.ids, id)
		return
	}
	i := sort.Search(n, func(k int) bool { return s.ids[k] >= id })
	s.ids = append(s.ids, 0)
	copy(s.ids[i+1:], s.ids[i:])
	s.ids[i] = id
}

// idsDelete removes one id from the sorted slice.
//
//tvdp:requires imagesMu
func (s *Store) idsDelete(id uint64) {
	i := sort.Search(len(s.ids), func(k int) bool { return s.ids[k] >= id })
	if i < len(s.ids) && s.ids[i] == id {
		s.ids = append(s.ids[:i], s.ids[i+1:]...)
	}
}

// GetImage returns a copy of the stored image. The pixel raster is
// deep-copied: under the concurrent serving path a caller mutating the
// returned pixels must never corrupt indexed state.
func (s *Store) GetImage(id uint64) (Image, error) {
	s.imagesMu.RLock()
	img, ok := s.images[id]
	if !ok {
		s.imagesMu.RUnlock()
		return Image{}, fmt.Errorf("%w: image %d", ErrNotFound, id)
	}
	out := *img
	s.imagesMu.RUnlock()
	// Stored pixel buffers are written once at ingest and never mutated
	// by the store, so the deep copy is safe outside the lock.
	out.Pixels = out.Pixels.Clone()
	return out, nil
}

// Descriptor is the index-relevant slice of an image row — everything
// but the pixel raster. Query filtering uses it to avoid deep-copying
// pixels per candidate.
type Descriptor struct {
	ID         uint64
	FOV        geo.FOV
	Scene      geo.Rect
	CapturedAt time.Time
	Origin     ImageOrigin
	ParentID   uint64
	WorkerID   string
	CampaignID uint64
	VideoID    uint64
}

// Describe returns an image's descriptor without copying pixels.
func (s *Store) Describe(id uint64) (Descriptor, error) {
	s.imagesMu.RLock()
	defer s.imagesMu.RUnlock()
	img, ok := s.images[id]
	if !ok {
		return Descriptor{}, fmt.Errorf("%w: image %d", ErrNotFound, id)
	}
	return Descriptor{
		ID:         img.ID,
		FOV:        img.FOV,
		Scene:      img.Scene,
		CapturedAt: img.TimestampCapturing,
		Origin:     img.Origin,
		ParentID:   img.ParentID,
		WorkerID:   img.WorkerID,
		CampaignID: img.CampaignID,
		VideoID:    img.VideoID,
	}, nil
}

// NumImages returns the image count.
func (s *Store) NumImages() int {
	s.imagesMu.RLock()
	defer s.imagesMu.RUnlock()
	return len(s.images)
}

// ImageIDs returns all image IDs in ascending order. The slice is
// maintained incrementally on add/delete, so this is a straight copy —
// no per-call sort.
func (s *Store) ImageIDs() []uint64 {
	s.imagesMu.RLock()
	defer s.imagesMu.RUnlock()
	return append([]uint64(nil), s.ids...)
}

// DeleteImage removes an image and all dependent rows and index entries.
func (s *Store) DeleteImage(id uint64) error {
	if s.closed.Load() {
		return ErrClosed
	}
	frame, err := s.encode(walOp{Kind: opDeleteImage, DeleteImageID: id})
	if err != nil {
		return err
	}
	s.imagesMu.Lock()
	s.featMu.Lock()
	s.annMu.Lock()
	s.kwMu.Lock()
	s.geoMu.Lock()
	unlock := func() {
		s.geoMu.Unlock()
		s.kwMu.Unlock()
		s.annMu.Unlock()
		s.featMu.Unlock()
		s.imagesMu.Unlock()
	}
	if s.closed.Load() {
		unlock()
		return ErrClosed
	}
	if err := s.applyDeleteImage(id); err != nil {
		unlock()
		return err
	}
	wait := s.enqueue(frame)
	unlock()
	return s.awaitCommit(wait)
}

// applyDeleteImage unlinks an image from every subsystem. Callers hold
// imagesMu, featMu, annMu, kwMu, and geoMu.
//
//tvdp:requires imagesMu,featMu,annMu,kwMu,geoMu
func (s *Store) applyDeleteImage(id uint64) error {
	img, ok := s.images[id]
	if !ok {
		return fmt.Errorf("%w: image %d", ErrNotFound, id)
	}
	s.mutGen.Add(1)
	_ = s.spatial.Delete(id, img.Scene)
	s.temporal.Remove(id, img.TimestampCapturing)
	for _, lsh := range s.visual {
		lsh.Remove(id)
	}
	s.text.Remove(id)
	// An image is linked once per (classification, label) however often
	// it was annotated with it; unlinkLabel is a no-op once the link is
	// gone.
	for _, a := range s.annotations[id] {
		s.unlinkLabel(a.ClassificationID, a.Label, id)
	}
	delete(s.annotations, id)
	delete(s.features, id)
	delete(s.keywords, id)
	delete(s.images, id)
	s.idsDelete(id)
	if s.mem != nil {
		s.mem.deleteImage(id)
	}
	return nil
}

// unlinkLabel drops one image from a byLabel posting list.
//
//tvdp:requires annMu
func (s *Store) unlinkLabel(classID uint64, label int, imageID uint64) {
	ids := s.byLabel[classID][label]
	for i, v := range ids {
		if v == imageID {
			s.byLabel[classID][label] = append(ids[:i], ids[i+1:]...)
			return
		}
	}
}

// ---- Features ----

// PutFeature stores (or replaces) one feature vector for an image and
// maintains the visual indexes.
func (s *Store) PutFeature(imageID uint64, kind string, vec []float64) error {
	if kind == "" || len(vec) == 0 {
		return fmt.Errorf("%w: empty feature kind or vector", ErrInvalid)
	}
	if s.closed.Load() {
		return ErrClosed
	}
	f := &Feature{ImageID: imageID, Kind: kind, Vec: append([]float64(nil), vec...)}
	frame, err := s.encode(walOp{Kind: opAddFeature, Feature: f})
	if err != nil {
		return err
	}
	s.imagesMu.RLock()
	s.featMu.Lock()
	unlock := func() { s.featMu.Unlock(); s.imagesMu.RUnlock() }
	if s.closed.Load() {
		unlock()
		return ErrClosed
	}
	if _, ok := s.images[imageID]; !ok {
		unlock()
		return fmt.Errorf("%w: image %d", ErrNotFound, imageID)
	}
	if err := s.applyFeature(f); err != nil {
		unlock()
		return err
	}
	wait := s.enqueue(frame)
	unlock()
	return s.awaitCommit(wait)
}

// applyFeature stores one vector and maintains LSH/hybrid indexes.
// Callers hold featMu plus at least a read lock on imagesMu (the hybrid
// path reads the image's scene rect).
//
//tvdp:requires featMu,imagesMu:r
func (s *Store) applyFeature(f *Feature) error {
	s.mutGen.Add(1)
	kinds := s.features[f.ImageID]
	if kinds == nil {
		kinds = make(map[string][]float64)
		s.features[f.ImageID] = kinds
	}
	kinds[f.Kind] = f.Vec
	lsh, ok := s.visual[f.Kind]
	if !ok {
		cfg := s.cfg.LSH
		var err error
		lsh, err = index.NewLSH(len(f.Vec), cfg)
		if err != nil {
			return err
		}
		s.visual[f.Kind] = lsh
	}
	if err := lsh.Insert(f.ImageID, f.Vec); err != nil {
		return err
	}
	for _, hk := range s.cfg.HybridKinds {
		if hk != f.Kind {
			continue
		}
		ht, ok := s.hybrid[f.Kind]
		if !ok {
			var err error
			ht, err = index.NewHybridTree(len(f.Vec), s.cfg.RTree)
			if err != nil {
				return err
			}
			s.hybrid[f.Kind] = ht
		}
		img, ok := s.images[f.ImageID]
		if !ok {
			return fmt.Errorf("%w: image %d", ErrNotFound, f.ImageID)
		}
		if err := ht.Insert(index.HybridItem{ID: f.ImageID, Rect: img.Scene, Vec: f.Vec}); err != nil {
			return err
		}
	}
	if s.mem != nil {
		s.mem.putFeature(f)
	}
	return nil
}

// GetFeature returns the stored vector of one kind for an image.
func (s *Store) GetFeature(imageID uint64, kind string) ([]float64, error) {
	s.featMu.RLock()
	defer s.featMu.RUnlock()
	vec, ok := s.features[imageID][kind]
	if !ok {
		return nil, fmt.Errorf("%w: image %d kind %q", ErrUnknownFeature, imageID, kind)
	}
	return append([]float64(nil), vec...), nil
}

// FeatureKinds returns the kinds stored for an image, sorted.
func (s *Store) FeatureKinds(imageID uint64) []string {
	s.featMu.RLock()
	defer s.featMu.RUnlock()
	var out []string
	for k := range s.features[imageID] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---- Classifications & annotations ----

// CreateClassification registers a labelling scheme; names are unique.
func (s *Store) CreateClassification(name string, labels []string) (uint64, error) {
	return s.PutClassification(Classification{Name: name, Labels: labels})
}

// PutClassification registers a labelling scheme row whose ID the caller
// may have pre-assigned (c.ID == 0 allocates locally, exactly as
// CreateClassification always has). The shard coordinator uses the
// pre-assigned form to replicate the catalog to every shard under one
// globally-allocated ID; the logged WAL op is identical either way.
func (s *Store) PutClassification(c Classification) (uint64, error) {
	if c.Name == "" || len(c.Labels) == 0 {
		return 0, fmt.Errorf("%w: classification needs a name and labels", ErrInvalid)
	}
	if s.closed.Load() {
		return 0, ErrClosed
	}
	s.catalogMu.Lock()
	s.annMu.Lock()
	unlock := func() { s.annMu.Unlock(); s.catalogMu.Unlock() }
	if s.closed.Load() {
		unlock()
		return 0, ErrClosed
	}
	if _, dup := s.classByName[c.Name]; dup {
		unlock()
		return 0, fmt.Errorf("%w: classification %q", ErrDuplicate, c.Name)
	}
	if c.ID == 0 {
		c.ID = s.nextID.Add(1)
	}
	c.Labels = append([]string(nil), c.Labels...)
	frame, err := s.encode(walOp{Kind: opAddClass, Classification: &c})
	if err != nil {
		unlock()
		return 0, err
	}
	if err := s.applyClassification(&c); err != nil {
		unlock()
		return 0, err
	}
	wait := s.enqueue(frame)
	unlock()
	if err := s.awaitCommit(wait); err != nil {
		return 0, err
	}
	return c.ID, nil
}

// applyClassification registers a scheme. Callers hold catalogMu and
// annMu (the empty byLabel bucket lives with the label index).
//
//tvdp:requires catalogMu,annMu
func (s *Store) applyClassification(c *Classification) error {
	if _, dup := s.classifications[c.ID]; dup {
		return fmt.Errorf("%w: classification %d", ErrDuplicate, c.ID)
	}
	s.mutGen.Add(1)
	s.bumpNextID(c.ID)
	s.classifications[c.ID] = c
	s.classByName[c.Name] = c.ID
	s.byLabel[c.ID] = make(map[int][]uint64)
	if s.mem != nil {
		s.mem.addClass(c)
	}
	return nil
}

// GetClassification looks a scheme up by ID.
func (s *Store) GetClassification(id uint64) (Classification, error) {
	s.catalogMu.RLock()
	defer s.catalogMu.RUnlock()
	c, ok := s.classifications[id]
	if !ok {
		return Classification{}, fmt.Errorf("%w: classification %d", ErrNotFound, id)
	}
	return *c, nil
}

// ClassificationByName looks a scheme up by name.
func (s *Store) ClassificationByName(name string) (Classification, error) {
	s.catalogMu.RLock()
	defer s.catalogMu.RUnlock()
	id, ok := s.classByName[name]
	if !ok {
		return Classification{}, fmt.Errorf("%w: classification %q", ErrNotFound, name)
	}
	return *s.classifications[id], nil
}

// Classifications lists all schemes sorted by ID.
func (s *Store) Classifications() []Classification {
	s.catalogMu.RLock()
	defer s.catalogMu.RUnlock()
	out := make([]Classification, 0, len(s.classifications))
	for _, c := range s.classifications {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Annotate attaches a label to an image under a classification scheme.
func (s *Store) Annotate(a Annotation) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if a.Source == "" {
		a.Source = SourceMachine
	}
	s.catalogMu.RLock()
	s.imagesMu.RLock()
	s.annMu.Lock()
	unlock := func() { s.annMu.Unlock(); s.imagesMu.RUnlock(); s.catalogMu.RUnlock() }
	if s.closed.Load() {
		unlock()
		return ErrClosed
	}
	if _, ok := s.images[a.ImageID]; !ok {
		unlock()
		return fmt.Errorf("%w: image %d", ErrNotFound, a.ImageID)
	}
	c, ok := s.classifications[a.ClassificationID]
	if !ok {
		unlock()
		return fmt.Errorf("%w: classification %d", ErrNotFound, a.ClassificationID)
	}
	if a.Label < 0 || a.Label >= len(c.Labels) {
		unlock()
		return fmt.Errorf("%w: label %d of %q", ErrUnknownLabel, a.Label, c.Name)
	}
	frame, err := s.encode(walOp{Kind: opAddAnnotation, Annotation: &a})
	if err != nil {
		unlock()
		return err
	}
	if err := s.applyAnnotation(&a); err != nil {
		unlock()
		return err
	}
	wait := s.enqueue(frame)
	unlock()
	return s.awaitCommit(wait)
}

// applyAnnotation appends one annotation row and, the first time the
// image carries this (classification, label), its label-index entry: an
// image annotated twice with one label is linked once, so ImagesByLabel
// lists it once. Replay and segment load go through here too, so
// recovered state dedupes the same way. Callers hold annMu.
//
//tvdp:requires annMu
func (s *Store) applyAnnotation(a *Annotation) error {
	s.mutGen.Add(1)
	linked := hasLabel(s.annotations[a.ImageID], a.ClassificationID, a.Label, 0)
	s.annotations[a.ImageID] = append(s.annotations[a.ImageID], *a)
	byLabel := s.byLabel[a.ClassificationID]
	if byLabel == nil {
		byLabel = make(map[int][]uint64)
		s.byLabel[a.ClassificationID] = byLabel
	}
	if !linked {
		byLabel[a.Label] = append(byLabel[a.Label], a.ImageID)
	}
	if s.mem != nil {
		s.mem.addAnnotation(a)
	}
	return nil
}

// AnnotationsFor returns all annotations on an image.
func (s *Store) AnnotationsFor(imageID uint64) []Annotation {
	s.annMu.RLock()
	defer s.annMu.RUnlock()
	return append([]Annotation(nil), s.annotations[imageID]...)
}

// ImagesByLabel returns image IDs annotated with (classificationID,
// label), ascending.
func (s *Store) ImagesByLabel(classificationID uint64, label int) []uint64 {
	s.annMu.RLock()
	defer s.annMu.RUnlock()
	ids := append([]uint64(nil), s.byLabel[classificationID][label]...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ---- Keywords ----

// AddKeywords attaches manual keywords to an image and indexes them.
func (s *Store) AddKeywords(imageID uint64, words []string) error {
	if len(words) == 0 {
		return fmt.Errorf("%w: no keywords", ErrInvalid)
	}
	if s.closed.Load() {
		return ErrClosed
	}
	frame, err := s.encode(walOp{Kind: opAddKeywords, Keyword: &keywordOp{ImageID: imageID, Words: words}})
	if err != nil {
		return err
	}
	s.imagesMu.RLock()
	s.kwMu.Lock()
	unlock := func() { s.kwMu.Unlock(); s.imagesMu.RUnlock() }
	if s.closed.Load() {
		unlock()
		return ErrClosed
	}
	if _, ok := s.images[imageID]; !ok {
		unlock()
		return fmt.Errorf("%w: image %d", ErrNotFound, imageID)
	}
	if err := s.applyKeywords(imageID, words); err != nil {
		unlock()
		return err
	}
	wait := s.enqueue(frame)
	unlock()
	return s.awaitCommit(wait)
}

// applyKeywords stores keywords and their inverted-index postings.
// Callers hold kwMu.
//
//tvdp:requires kwMu
func (s *Store) applyKeywords(imageID uint64, words []string) error {
	s.mutGen.Add(1)
	s.keywords[imageID] = append(s.keywords[imageID], words...)
	s.text.Add(imageID, words)
	if s.mem != nil {
		s.mem.addKeywords(imageID, words)
	}
	return nil
}

// KeywordsFor returns the keywords attached to an image.
func (s *Store) KeywordsFor(imageID uint64) []string {
	s.kwMu.RLock()
	defer s.kwMu.RUnlock()
	return append([]string(nil), s.keywords[imageID]...)
}

// ---- Users & API keys ----

// CreateUser registers a participant.
func (s *Store) CreateUser(name, role string) (uint64, error) {
	return s.PutUser(User{Name: name, Role: role})
}

// PutUser registers a user row, keeping a caller-pre-assigned u.ID
// (u.ID == 0 allocates locally, exactly as CreateUser always has). The
// shard coordinator pre-assigns so user IDs come from the one global
// allocator even though user rows live on shard 0 only.
func (s *Store) PutUser(u User) (uint64, error) {
	if u.Name == "" {
		return 0, fmt.Errorf("%w: user needs a name", ErrInvalid)
	}
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if u.ID == 0 {
		u.ID = s.nextID.Add(1)
	}
	frame, err := s.encode(walOp{Kind: opAddUser, User: &u})
	if err != nil {
		return 0, err
	}
	s.catalogMu.Lock()
	if s.closed.Load() {
		s.catalogMu.Unlock()
		return 0, ErrClosed
	}
	if err := s.applyUser(&u); err != nil {
		s.catalogMu.Unlock()
		return 0, err
	}
	wait := s.enqueue(frame)
	s.catalogMu.Unlock()
	if err := s.awaitCommit(wait); err != nil {
		return 0, err
	}
	return u.ID, nil
}

// applyUser registers a user row. Callers hold catalogMu.
//
//tvdp:requires catalogMu
func (s *Store) applyUser(u *User) error {
	if _, dup := s.users[u.ID]; dup {
		return fmt.Errorf("%w: user %d", ErrDuplicate, u.ID)
	}
	s.bumpNextID(u.ID)
	s.users[u.ID] = u
	if s.mem != nil {
		s.mem.addUser(u)
	}
	return nil
}

// applyAPIKey registers an issued key. Callers hold catalogMu.
//
//tvdp:requires catalogMu
func (s *Store) applyAPIKey(k *APIKey) {
	s.apiKeys[k.Key] = k
	if s.mem != nil {
		s.mem.addAPIKey(k)
	}
}

// IssueAPIKey mints a random key for the user.
func (s *Store) IssueAPIKey(userID uint64, now time.Time) (string, error) {
	if s.closed.Load() {
		return "", ErrClosed
	}
	buf := make([]byte, 16)
	if _, err := rand.Read(buf); err != nil {
		return "", fmt.Errorf("store: generating API key: %w", err)
	}
	k := &APIKey{Key: hex.EncodeToString(buf), UserID: userID, Issued: now}
	frame, err := s.encode(walOp{Kind: opAddAPIKey, APIKey: k})
	if err != nil {
		return "", err
	}
	s.catalogMu.Lock()
	if s.closed.Load() {
		s.catalogMu.Unlock()
		return "", ErrClosed
	}
	if _, ok := s.users[userID]; !ok {
		s.catalogMu.Unlock()
		return "", fmt.Errorf("%w: user %d", ErrNotFound, userID)
	}
	s.applyAPIKey(k)
	wait := s.enqueue(frame)
	s.catalogMu.Unlock()
	if err := s.awaitCommit(wait); err != nil {
		return "", err
	}
	return k.Key, nil
}

// Authenticate resolves an API key to its user.
func (s *Store) Authenticate(key string) (User, error) {
	s.catalogMu.RLock()
	defer s.catalogMu.RUnlock()
	k, ok := s.apiKeys[key]
	if !ok {
		return User{}, fmt.Errorf("%w: api key", ErrNotFound)
	}
	u, ok := s.users[k.UserID]
	if !ok {
		return User{}, fmt.Errorf("%w: user %d", ErrNotFound, k.UserID)
	}
	return *u, nil
}

// ---- Query primitives (composed by internal/query) ----
//
// Every search takes a ctx and refuses to start (or, for the scan-shaped
// probes, aborts at the index's internal checkpoints) once the context is
// done. The ctx is only ever *polled* (ctx.Err) — never waited on — so a
// search holds its subsystem read lock strictly while computing, and a
// cancelled caller cannot stall Snapshot/Close behind a lock it parked
// on.

// SearchScene returns image IDs whose scene MBR intersects r, ascending.
// The sort pins the unranked-list order of the Backend contract: results
// are identical however the corpus is partitioned, instead of leaking
// R-tree traversal order.
func (s *Store) SearchScene(ctx context.Context, r geo.Rect) ([]uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.geoMu.RLock()
	ids := s.spatial.SearchRect(r)
	s.geoMu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// SearchNearest returns up to k image IDs whose scenes are closest to p.
func (s *Store) SearchNearest(ctx context.Context, p geo.Point, k int) ([]uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.geoMu.RLock()
	defer s.geoMu.RUnlock()
	return s.spatial.NearestK(p, k), nil
}

// SearchVisual returns up to k approximate visual neighbours of vec under
// the given feature kind. The LSH probe checks ctx between hash tables
// and per scan checkpoint during re-ranking.
func (s *Store) SearchVisual(ctx context.Context, kind string, vec []float64, k int) ([]index.Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.featMu.RLock()
	defer s.featMu.RUnlock()
	lsh, ok := s.visual[kind]
	if !ok {
		return nil, fmt.Errorf("%w: no index for feature kind %q", ErrNotFound, kind)
	}
	return lsh.TopK(ctx, vec, k)
}

// SearchVisualRadius returns visual matches within distance r.
func (s *Store) SearchVisualRadius(ctx context.Context, kind string, vec []float64, r float64) ([]index.Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.featMu.RLock()
	defer s.featMu.RUnlock()
	lsh, ok := s.visual[kind]
	if !ok {
		return nil, fmt.Errorf("%w: no index for feature kind %q", ErrNotFound, kind)
	}
	return lsh.WithinRadius(ctx, vec, r)
}

// Generation returns the store's data-plane mutation generation: a
// counter bumped on every applied image, feature, annotation, keyword,
// classification, video, or delete. Cache layers stamp results with the
// generation observed before execution and serve them only while
// Generation() still matches — any write invalidates, which is
// conservative but never stale.
func (s *Store) Generation() uint64 { return s.mutGen.Load() }

// SearchVisualQuant returns up to k approximate visual neighbours via a
// full linear scan over int8 quantized codes (asymmetric distance: one
// per-query lookup table, no dequantization) followed by an exact
// full-precision re-rank of the shortlist. It is the cheap linear
// baseline of the quantized read path: same contract as SearchVisualExact
// but roughly dim·8/64 of the memory traffic per candidate.
func (s *Store) SearchVisualQuant(ctx context.Context, kind string, vec []float64, k int) ([]index.Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.featMu.RLock()
	defer s.featMu.RUnlock()
	lsh, ok := s.visual[kind]
	if !ok {
		return nil, fmt.Errorf("%w: no index for feature kind %q", ErrNotFound, kind)
	}
	return lsh.QuantTopK(ctx, vec, k)
}

// SearchVisualExact linearly re-ranks all vectors of a kind (baseline).
func (s *Store) SearchVisualExact(ctx context.Context, kind string, vec []float64, k int) ([]index.Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.featMu.RLock()
	defer s.featMu.RUnlock()
	lsh, ok := s.visual[kind]
	if !ok {
		return nil, fmt.Errorf("%w: no index for feature kind %q", ErrNotFound, kind)
	}
	return lsh.ExactTopK(ctx, vec, k)
}

// SearchHybrid runs a single-pass spatial-visual query when a hybrid tree
// is configured for the kind; ok=false means the caller must fall back to
// the two-phase plan. Availability is decided by configuration
// (Config.HybridKinds), not by whether any vector has arrived yet: a
// configured kind with an empty tree answers (nil, true, nil). That keeps
// ok a pure function of config, which is what lets a sharded deployment
// answer identically for any shard count. The tree walk checks ctx at
// every node descent.
func (s *Store) SearchHybrid(ctx context.Context, kind string, r geo.Rect, vec []float64, k int) ([]index.Match, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	s.featMu.RLock()
	defer s.featMu.RUnlock()
	ht, ok := s.hybrid[kind]
	if !ok {
		if s.hybridConfigured(kind) {
			return nil, true, nil
		}
		return nil, false, nil
	}
	ms, err := ht.SearchSpatialVisual(ctx, r, vec, k)
	return ms, true, err
}

// hybridConfigured reports whether kind is listed in Config.HybridKinds.
func (s *Store) hybridConfigured(kind string) bool {
	for _, hk := range s.cfg.HybridKinds {
		if hk == kind {
			return true
		}
	}
	return false
}

// SearchText returns keyword matches (disjunctive, TF-IDF ranked).
func (s *Store) SearchText(ctx context.Context, terms []string) ([]index.Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.kwMu.RLock()
	defer s.kwMu.RUnlock()
	return s.text.SearchAny(terms), nil
}

// SearchTextAll returns conjunctive keyword matches.
func (s *Store) SearchTextAll(ctx context.Context, terms []string) ([]index.Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.kwMu.RLock()
	defer s.kwMu.RUnlock()
	return s.text.SearchAll(terms), nil
}

// SearchTime returns image IDs captured in [from, to].
func (s *Store) SearchTime(ctx context.Context, from, to time.Time) ([]uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.geoMu.RLock()
	defer s.geoMu.RUnlock()
	return s.temporal.Range(from, to), nil
}

// ---- Scatter-gather support (consumed by internal/shard) ----
//
// These primitives expose what a deterministic cross-store merge needs:
// scores alongside IDs, timestamps alongside range hits, and corpus
// statistics separated from scoring so TF-IDF can be computed under
// global document frequencies. A single-store deployment never calls
// them; the coordinator composes them into the plain Search* contract.

// LastID returns the highest ID this store has allocated or observed.
// The shard coordinator recovers its global allocator at open as the max
// across shards.
func (s *Store) LastID() uint64 { return s.nextID.Load() }

// SearchNearestScored is SearchNearest with each hit's point-to-rect
// distance attached, selected under the (Dist, ID) total order (see
// RTree.NearestKMatches).
func (s *Store) SearchNearestScored(ctx context.Context, p geo.Point, k int) ([]index.Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.geoMu.RLock()
	defer s.geoMu.RUnlock()
	return s.spatial.NearestKMatches(p, k), nil
}

// SearchTimeEntries is SearchTime with each hit's capture timestamp
// attached, ascending in time.
func (s *Store) SearchTimeEntries(ctx context.Context, from, to time.Time) ([]index.TimeEntry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.geoMu.RLock()
	defer s.geoMu.RUnlock()
	return s.temporal.RangeEntries(from, to), nil
}

// TextStats returns this store's text-corpus statistics for terms: the
// indexed document count and per-term document frequencies. Summed
// element-wise across shards they form the global statistics
// SearchTextStats/SearchTextAllStats score under.
func (s *Store) TextStats(ctx context.Context, terms []string) (docs int, df []int, err error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	s.kwMu.RLock()
	defer s.kwMu.RUnlock()
	docs, df = s.text.DocFreqs(terms)
	return docs, df, nil
}

// SearchTextStats is SearchText scored under caller-supplied corpus
// statistics (from TextStats, possibly summed over shards).
func (s *Store) SearchTextStats(ctx context.Context, terms []string, docs int, df []int) ([]index.Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.kwMu.RLock()
	defer s.kwMu.RUnlock()
	return s.text.SearchAnyStats(terms, docs, df), nil
}

// SearchTextAllStats is SearchTextAll scored under caller-supplied corpus
// statistics (from TextStats, possibly summed over shards).
func (s *Store) SearchTextAllStats(ctx context.Context, terms []string, docs int, df []int) ([]index.Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.kwMu.RLock()
	defer s.kwMu.RUnlock()
	return s.text.SearchAllStats(terms, docs, df), nil
}
