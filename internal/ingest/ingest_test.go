package ingest

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/feature"
	"repro/internal/geo"
	"repro/internal/imagesim"
	"repro/internal/index"
	"repro/internal/store"
)

var la = geo.Point{Lat: 34.0522, Lon: -118.2437}

// testRecord builds one valid submission. seq is stamped into the first
// pixel's red channel so test extractors can recover submission order.
func testRecord(t *testing.T, seq int, workerID string) Record {
	t.Helper()
	if seq < 0 || seq > 255 {
		t.Fatalf("seq %d out of pixel range", seq)
	}
	px := imagesim.MustNew(16, 16)
	px.Fill(imagesim.RGB{R: 100, G: 120, B: 140})
	px.Pix[0] = imagesim.RGB{R: uint8(seq), G: 1, B: 1}
	brg := float64(seq % 359)
	return Record{
		Image: store.Image{
			FOV:                geo.FOV{Camera: geo.Destination(la, brg, 500), Direction: brg, Angle: 60, Radius: 100},
			Pixels:             px,
			TimestampCapturing: time.Date(2019, 2, 1, 8, 0, 0, 0, time.UTC).Add(time.Duration(seq) * time.Minute),
			TimestampUploading: time.Date(2019, 3, 1, 12, 0, 0, 0, time.UTC),
			WorkerID:           workerID,
		},
		Keywords: []string{"garbage", fmt.Sprintf("seq-%d", seq)},
	}
}

// testExtractor is a controllable feature.Extractor: it can block until
// released, fail on request, and records the seq stamps it saw in order.
type testExtractor struct {
	kind feature.Kind

	mu      sync.Mutex
	seen    []int
	failSeq map[int]bool // seq values whose extraction errors
	gate    chan struct{}
}

func newTestExtractor() *testExtractor {
	return &testExtractor{kind: "test_kind", failSeq: map[int]bool{}}
}

func (e *testExtractor) Kind() feature.Kind { return e.kind }
func (e *testExtractor) Dim() int           { return 4 }

func (e *testExtractor) Extract(img *imagesim.Image) ([]float64, error) {
	e.mu.Lock()
	gate := e.gate
	e.mu.Unlock()
	if gate != nil {
		<-gate
	}
	seq := int(img.Pix[0].R)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.failSeq[seq] {
		return nil, fmt.Errorf("induced failure for seq %d", seq)
	}
	e.seen = append(e.seen, seq)
	return []float64{float64(seq), 1, 2, 3}, nil
}

// block makes subsequent Extract calls wait; the returned func releases
// them all.
func (e *testExtractor) block() (release func()) {
	gate := make(chan struct{})
	e.mu.Lock()
	e.gate = gate
	e.mu.Unlock()
	return func() {
		e.mu.Lock()
		e.gate = nil
		e.mu.Unlock()
		close(gate)
	}
}

func (e *testExtractor) order() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int(nil), e.seen...)
}

// testEnv is a memory store, a service with one controllable extractor,
// and a started pipeline.
func testEnv(t *testing.T, cfg Config) (*store.Store, *analysis.Service, *testExtractor, *Pipeline) {
	t.Helper()
	st, err := store.Open(store.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	svc := analysis.NewService(st)
	ex := newTestExtractor()
	svc.RegisterExtractor(ex)
	p := New(st, svc, cfg)
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := p.Close(); err != nil {
			t.Errorf("pipeline close: %v", err)
		}
	})
	return st, svc, ex, p
}

func drain(t *testing.T, p *Pipeline) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func matchIDs(ms []index.Match) []uint64 {
	ids := make([]uint64, len(ms))
	for i, m := range ms {
		ids[i] = m.ID
	}
	return ids
}

func TestAsyncSubmitExtractsAndIndexes(t *testing.T) {
	st, _, _, p := testEnv(t, Config{Partitions: 2, QueueDepth: 8})
	ctx := context.Background()
	var ids []uint64
	for i := 0; i < 6; i++ {
		id, err := p.SubmitAsync(ctx, testRecord(t, i, fmt.Sprintf("w-%d", i%3)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	drain(t, p)
	for _, id := range ids {
		kinds := st.FeatureKinds(id)
		if len(kinds) != 1 || kinds[0] != "test_kind" {
			t.Fatalf("image %d kinds = %v", id, kinds)
		}
		if got := p.Status(id); got.State != "done" {
			t.Fatalf("status(%d) = %+v", id, got)
		}
		if kw := st.KeywordsFor(id); len(kw) != 2 {
			t.Fatalf("image %d keywords = %v", id, kw)
		}
	}
	// The rows are visible to search: the LSH index was maintained
	// online by the worker, not by a rebuild.
	matches, err := st.SearchVisual(ctx, "test_kind", []float64{0, 1, 2, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no visual matches after online indexing")
	}
	// Recall parity: the index the workers maintained online answers
	// every stored row's top-k probe exactly as an index built in one
	// pass over the same vectors does, and each row finds itself first.
	// Six rows fit in the re-rank shortlist, so both indexes answer by a
	// full quantized scan and their top-3 is exact (LSH buckets alone
	// once dropped row 4 from row 6's top-3 here).
	ref, err := index.NewLSH(4, store.DefaultConfig().LSH)
	if err != nil {
		t.Fatal(err)
	}
	vecs := make(map[uint64][]float64, len(ids))
	for _, id := range ids {
		if vecs[id], err = st.GetFeature(id, "test_kind"); err != nil {
			t.Fatal(err)
		}
		if err := ref.Insert(id, vecs[id]); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		online, err := st.SearchVisual(ctx, "test_kind", vecs[id], 3)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := ref.TopK(ctx, vecs[id], 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(online) == 0 || online[0].ID != id || !slices.Equal(matchIDs(online), matchIDs(batch)) {
			t.Fatalf("image %d: online top-3 %v, one-pass index %v", id, matchIDs(online), matchIDs(batch))
		}
	}
	s := p.Stats()
	if s.Persisted != 6 || s.Extracted != 6 || s.Shed != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAckPrecedesExtraction(t *testing.T) {
	st, _, ex, p := testEnv(t, Config{Partitions: 1, QueueDepth: 8})
	release := ex.block()
	id, err := p.SubmitAsync(context.Background(), testRecord(t, 1, "w-1"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Acked and WAL-durable, but extraction is still gated.
	if _, err := st.GetImage(id); err != nil {
		t.Fatalf("row not persisted at ack: %v", err)
	}
	if kinds := st.FeatureKinds(id); len(kinds) != 0 {
		t.Fatalf("features %v present before extraction", kinds)
	}
	if got := p.Status(id); got.State != string(StateQueued) {
		t.Fatalf("status = %+v", got)
	}
	release()
	drain(t, p)
	if kinds := st.FeatureKinds(id); len(kinds) != 1 {
		t.Fatalf("kinds after drain = %v", kinds)
	}
}

func TestBackpressureShedsBeforePersist(t *testing.T) {
	st, _, ex, p := testEnv(t, Config{Partitions: 1, QueueDepth: 2})
	release := ex.block()
	ctx := context.Background()
	admitted := 0
	sawBusy := false
	// Queue depth 2: with the worker gated, at most 2 entries are
	// admitted (held slots); everything past that sheds with nothing
	// persisted.
	for i := 0; i < 6; i++ {
		_, err := p.SubmitAsync(ctx, testRecord(t, i, "w-1"))
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrBusy):
			sawBusy = true
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if !sawBusy {
		t.Fatal("no ErrBusy from a full queue")
	}
	if admitted > 2 {
		t.Fatalf("admitted %d > queue depth 2", admitted)
	}
	// ErrBusy must mean "nothing persisted": a shed client's retry must
	// not create a duplicate row.
	if n := st.NumImages(); n != admitted {
		t.Fatalf("NumImages = %d, admitted = %d (shed submissions persisted rows)", n, admitted)
	}
	if s := p.Stats(); s.Shed == 0 {
		t.Fatalf("stats = %+v", s)
	}
	release()
	drain(t, p)
}

func TestPerSourceOrderingPreserved(t *testing.T) {
	_, _, ex, p := testEnv(t, Config{Partitions: 4, QueueDepth: 64})
	ctx := context.Background()
	// One source, many records: every record hashes to the same
	// partition, so extraction order must equal submission order even
	// with 4 workers running.
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := p.SubmitAsync(ctx, testRecord(t, i, "cam-7")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	drain(t, p)
	order := ex.order()
	if len(order) != n {
		t.Fatalf("extracted %d records, want %d", len(order), n)
	}
	for i, seq := range order {
		if seq != i {
			t.Fatalf("out-of-order extraction: position %d has seq %d (order %v)", i, seq, order)
		}
	}
}

func TestFailedExtractionTrackedAndSweepRedrives(t *testing.T) {
	st, _, ex, p := testEnv(t, Config{Partitions: 2, QueueDepth: 8})
	ctx := context.Background()
	ex.mu.Lock()
	ex.failSeq[3] = true
	ex.mu.Unlock()
	id, err := p.SubmitAsync(ctx, testRecord(t, 3, "w-1"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	drain(t, p)
	got := p.Status(id)
	if got.State != string(StateFailed) || got.Attempts != 1 || got.Err == "" {
		t.Fatalf("status after failure = %+v", got)
	}
	if len(st.FeatureKinds(id)) != 0 {
		t.Fatal("failed extraction wrote features")
	}
	// Clear the fault; the sweep re-drives the persisted row.
	ex.mu.Lock()
	delete(ex.failSeq, 3)
	ex.mu.Unlock()
	n, err := p.Sweep(ctx)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if n != 1 {
		t.Fatalf("sweep re-drove %d rows, want 1", n)
	}
	drain(t, p)
	if kinds := st.FeatureKinds(id); len(kinds) != 1 {
		t.Fatalf("kinds after sweep = %v", kinds)
	}
	if s := p.Stats(); s.Swept != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSweepSkipsCompleteAndQueuedRows(t *testing.T) {
	st, _, ex, p := testEnv(t, Config{Partitions: 1, QueueDepth: 8})
	ctx := context.Background()
	// One complete row.
	doneID, err := p.SubmitAsync(ctx, testRecord(t, 1, "w-1"))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, p)
	// One row still on the queue behind the gate.
	release := ex.block()
	defer release()
	if _, err := p.SubmitAsync(ctx, testRecord(t, 2, "w-1")); err != nil {
		t.Fatal(err)
	}
	n, err := p.Sweep(ctx)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if n != 0 {
		t.Fatalf("sweep re-drove %d rows, want 0 (one done, one queued)", n)
	}
	if got := p.Status(doneID); got.State != "done" {
		t.Fatalf("status = %+v", got)
	}
	_ = st
}

func TestRefreshHookFiresOffPath(t *testing.T) {
	var mu sync.Mutex
	fired := 0
	cfg := Config{Partitions: 1, QueueDepth: 16, RefreshEvery: 2,
		OnRefresh: func(context.Context) error {
			mu.Lock()
			fired++
			mu.Unlock()
			return nil
		}}
	_, _, _, p := testEnv(t, cfg)
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if _, err := p.SubmitAsync(ctx, testRecord(t, i, "w-1")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	drain(t, p)
	// Wait for the refresher to consume the signal: Drain covers the
	// workers, not the hook goroutine, so poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		f := fired
		mu.Unlock()
		if f >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refresh hook never fired (stats %+v)", p.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestVideoAsyncExtractsAllFrames(t *testing.T) {
	st, _, _, p := testEnv(t, Config{Partitions: 2, QueueDepth: 4})
	ctx := context.Background()
	frames := make([]store.Frame, 0, 3)
	for i := 0; i < 3; i++ {
		rec := testRecord(t, 10+i, "drone-1")
		frames = append(frames, store.Frame{
			Pixels: rec.Image.Pixels, FOV: rec.Image.FOV,
			CapturedAt: rec.Image.TimestampCapturing, Keywords: rec.Keywords,
		})
	}
	videoID, frameIDs, err := p.SubmitVideoAsync(ctx, VideoRecord{Description: "flight", WorkerID: "drone-1", Frames: frames})
	if err != nil {
		t.Fatalf("submit video: %v", err)
	}
	if videoID == 0 || len(frameIDs) != 3 {
		t.Fatalf("video %d frames %v", videoID, frameIDs)
	}
	drain(t, p)
	for _, id := range frameIDs {
		if kinds := st.FeatureKinds(id); len(kinds) != 1 {
			t.Fatalf("frame %d kinds = %v", id, kinds)
		}
	}
	v, err := st.GetVideo(videoID)
	if err != nil || len(v.FrameIDs) != 3 {
		t.Fatalf("video row = %+v err %v", v, err)
	}
}

func TestVideoSyncPartialFailureKeepsFrames(t *testing.T) {
	st, _, ex, p := testEnv(t, Config{Partitions: 1, QueueDepth: 4})
	ctx := context.Background()
	ex.mu.Lock()
	ex.failSeq[21] = true
	ex.mu.Unlock()
	frames := make([]store.Frame, 0, 3)
	for i := 0; i < 3; i++ {
		rec := testRecord(t, 20+i, "drone-2")
		frames = append(frames, store.Frame{
			Pixels: rec.Image.Pixels, FOV: rec.Image.FOV,
			CapturedAt: rec.Image.TimestampCapturing,
		})
	}
	videoID, results, err := p.SubmitVideoSync(ctx, VideoRecord{Description: "run", WorkerID: "drone-2", Frames: frames})
	// A per-frame extraction failure is not a video error: frames are
	// durable and a retry would duplicate them.
	if err != nil {
		t.Fatalf("sync video returned error for per-frame failure: %v", err)
	}
	if videoID == 0 || len(results) != 3 {
		t.Fatalf("video %d results %+v", videoID, results)
	}
	var failed, ok int
	for _, r := range results {
		if r.Err != "" {
			failed++
			if len(st.FeatureKinds(r.ID)) != 0 {
				t.Fatalf("failed frame %d has features", r.ID)
			}
			if got := p.Status(r.ID); got.State != string(StateFailed) {
				t.Fatalf("failed frame status = %+v", got)
			}
		} else {
			ok++
			if len(st.FeatureKinds(r.ID)) != 1 {
				t.Fatalf("ok frame %d missing features", r.ID)
			}
		}
	}
	if failed != 1 || ok != 2 {
		t.Fatalf("failed=%d ok=%d", failed, ok)
	}
	// The failed frame rides the sweep once the fault clears.
	ex.mu.Lock()
	delete(ex.failSeq, 21)
	ex.mu.Unlock()
	if n, err := p.Sweep(ctx); err != nil || n != 1 {
		t.Fatalf("sweep = %d, %v", n, err)
	}
	drain(t, p)
	for _, r := range results {
		if len(st.FeatureKinds(r.ID)) != 1 {
			t.Fatalf("frame %d not recovered", r.ID)
		}
	}
}

func TestKeywordFailureStillReturnsID(t *testing.T) {
	st, _, _, p := testEnv(t, Config{Partitions: 1, QueueDepth: 4})
	ctx := context.Background()
	rec := testRecord(t, 5, "w-1")
	rec.Keywords = []string{} // AddKeywords never called: baseline sanity
	if id, err := p.SubmitAsync(ctx, rec); err != nil || id == 0 {
		t.Fatalf("submit = %d, %v", id, err)
	}
	drain(t, p)
	// Close the store out from under the pipeline: AddImage fails, so no
	// ID; nothing persisted.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if id, err := p.SubmitAsync(ctx, testRecord(t, 6, "w-1")); !errors.Is(err, ErrStopped) || id != 0 {
		t.Fatalf("submit after close = %d, %v", id, err)
	}
}

func TestSubmitSyncMatchesInlineSemantics(t *testing.T) {
	st, _, _, p := testEnv(t, Config{Partitions: 1, QueueDepth: 4})
	ctx := context.Background()
	id, kinds, err := p.SubmitSync(ctx, testRecord(t, 9, "w-9"))
	if err != nil {
		t.Fatalf("sync submit: %v", err)
	}
	if id == 0 || len(kinds) != 1 || kinds[0] != "test_kind" {
		t.Fatalf("sync submit = %d %v", id, kinds)
	}
	if got := st.FeatureKinds(id); len(got) != 1 {
		t.Fatalf("kinds = %v", got)
	}
	// Already-extracted rows are a no-op for ExtractMissing: a second
	// sync submit of the same pixels makes a NEW row (new ID), but
	// re-driving the same ID extracts nothing.
	if got := p.Status(id); got.State != "done" {
		t.Fatalf("status = %+v", got)
	}
}

func TestDrainImmediateWhenIdle(t *testing.T) {
	_, _, _, p := testEnv(t, Config{Partitions: 1, QueueDepth: 4})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
}

func TestCloseIsIdempotentAndDrainsQueue(t *testing.T) {
	st, _, _, p := testEnv(t, Config{Partitions: 2, QueueDepth: 8})
	ctx := context.Background()
	var ids []uint64
	for i := 0; i < 4; i++ {
		id, err := p.SubmitAsync(ctx, testRecord(t, i, "w-1"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Close drains: every queued row finished extraction.
	for _, id := range ids {
		if kinds := st.FeatureKinds(id); len(kinds) != 1 {
			t.Fatalf("image %d kinds after close = %v", id, kinds)
		}
	}
}
