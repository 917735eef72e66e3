package store

import (
	"context"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/imagesim"
)

// Tests for the concurrent serving path: group-commit batching, the
// decomposed-lock store under mixed load, sorted-id maintenance, and
// read-copy isolation. Run with -race for the full guarantee.

// slowSyncFile is a WAL backend whose fsync takes a fixed wall-clock
// time. It forces concurrent mutations to pile up in the committer queue
// while a batch is syncing, making group-commit coalescing deterministic
// even on filesystems where a real fsync is near-instant.
type slowSyncFile struct {
	f     walBackend
	delay time.Duration
}

func (s *slowSyncFile) Write(p []byte) (int, error) { return s.f.Write(p) }
func (s *slowSyncFile) Sync() error {
	time.Sleep(s.delay)
	return s.f.Sync()
}
func (s *slowSyncFile) Close() error { return s.f.Close() }

func installSlowSync(t *testing.T, delay time.Duration) {
	t.Helper()
	prev := newWALBackend
	newWALBackend = func(f *os.File) walBackend { return &slowSyncFile{f: f, delay: delay} }
	t.Cleanup(func() { newWALBackend = prev })
}

// TestGroupCommitBatching proves the committer coalesces concurrent
// synced mutations: with 8 writers against a slow fsync, the fsync count
// must come in well under one per operation while every op still
// round-trips durably.
func TestGroupCommitBatching(t *testing.T) {
	installSlowSync(t, 2*time.Millisecond)
	cfg := DefaultConfig()
	cfg.Dir = t.TempDir()
	cfg.WALSync = SyncImmediate
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := s.AddImage(testImage(t, float64((w*perWriter+i)%360))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.WALStats()
	const total = writers * perWriter
	if st.Ops != total {
		t.Fatalf("WALStats.Ops = %d, want %d", st.Ops, total)
	}
	if st.Fsyncs == 0 {
		t.Fatal("SyncImmediate store recorded zero fsyncs")
	}
	if st.Fsyncs*2 > st.Ops {
		t.Fatalf("no group-commit coalescing: %d fsyncs for %d ops", st.Fsyncs, st.Ops)
	}
	t.Logf("group commit: %d ops in %d batches, %d fsyncs (%.2f ops/fsync)",
		st.Ops, st.Batches, st.Fsyncs, float64(st.Ops)/float64(st.Fsyncs))

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything acknowledged must be on disk.
	r := diskStore(t, cfg.Dir)
	defer r.Close()
	if n := r.NumImages(); n != total {
		t.Fatalf("recovered %d images, want %d", n, total)
	}
}

// TestConcurrentMixedWorkload hammers every mutation family plus the
// query surface at once against a synced disk store, then verifies no
// write was lost and recovery sees the identical state. The -race run of
// this test is the lock-decomposition correctness gate.
func TestConcurrentMixedWorkload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dir = t.TempDir()
	cfg.WALSync = SyncImmediate
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	classID, err := s.CreateClassification("cleanliness", []string{"clean", "dirty"})
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 4, 15
	var (
		writeWG sync.WaitGroup
		readWG  sync.WaitGroup
		mu      sync.Mutex
		ids     []uint64
	)
	errs := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perWriter; i++ {
				id, err := s.AddImage(testImage(t, float64((w*perWriter+i)%360)))
				if err != nil {
					errs <- err
					return
				}
				if err := s.PutFeature(id, "colour", []float64{float64(w), float64(i), 0.5}); err != nil {
					errs <- err
					return
				}
				if err := s.AddKeywords(id, []string{"street", "graffiti"}); err != nil {
					errs <- err
					return
				}
				if err := s.Annotate(Annotation{ImageID: id, ClassificationID: classID, Label: i % 2, Confidence: 1, Source: SourceHuman}); err != nil {
					errs <- err
					return
				}
				mu.Lock()
				ids = append(ids, id)
				mu.Unlock()
			}
		}(w)
	}
	// Readers run across every subsystem until the writers finish; any
	// torn read trips -race or returns inconsistent data.
	stopReads := make(chan struct{})
	for r := 0; r < 2; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				for _, id := range s.ImageIDs() {
					if _, err := s.Describe(id); err != nil && !errors.Is(err, ErrNotFound) {
						errs <- err
						return
					}
				}
				s.SearchScene(context.Background(), geo.NewRect(geo.Destination(la, 315, 3000), geo.Destination(la, 135, 3000)))
				s.SearchText(context.Background(), []string{"graffiti"})
				s.ImagesByLabel(classID, 0)
				_, _ = s.SearchVisual(context.Background(), "colour", []float64{1, 1, 0.5}, 5)
			}
		}()
	}

	writeWG.Wait()
	close(stopReads)
	readWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	mu.Lock()
	added := len(ids)
	mu.Unlock()
	if added != writers*perWriter {
		t.Fatalf("writers recorded %d images, want %d", added, writers*perWriter)
	}

	const total = writers * perWriter
	verify := func(st *Store, label string) {
		t.Helper()
		if n := st.NumImages(); n != total {
			t.Fatalf("%s: NumImages = %d, want %d", label, n, total)
		}
		got := st.ImageIDs()
		if len(got) != total {
			t.Fatalf("%s: ImageIDs len = %d, want %d", label, len(got), total)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("%s: ImageIDs not strictly ascending at %d: %v", label, i, got[i-1:i+1])
			}
		}
		for _, id := range got {
			if _, err := st.GetFeature(id, "colour"); err != nil {
				t.Fatalf("%s: lost feature for %d: %v", label, id, err)
			}
			if kw := st.KeywordsFor(id); len(kw) != 2 {
				t.Fatalf("%s: lost keywords for %d: %v", label, id, kw)
			}
			if anns := st.AnnotationsFor(id); len(anns) != 1 {
				t.Fatalf("%s: lost annotation for %d: %v", label, id, anns)
			}
		}
		if n := len(st.ImagesByLabel(classID, 0)) + len(st.ImagesByLabel(classID, 1)); n != total {
			t.Fatalf("%s: label index holds %d entries, want %d", label, n, total)
		}
	}
	verify(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := diskStore(t, cfg.Dir)
	defer r.Close()
	verify(r, "recovered")
}

// TestImageIDsSortedAcrossDeletesAndReplay is the regression test for the
// incrementally maintained id slice: interleaved adds and deletes must
// keep ImageIDs strictly ascending and exact, both live and after WAL
// replay.
func TestImageIDsSortedAcrossDeletesAndReplay(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)

	want := map[uint64]bool{}
	var all []uint64
	for i := 0; i < 20; i++ {
		id, err := s.AddImage(testImage(t, float64(i*17%360)))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, id)
		want[id] = true
	}
	// Delete from the middle, the ends, and interleaved with new adds.
	for _, i := range []int{10, 0, 19, 5, 6} {
		if err := s.DeleteImage(all[i]); err != nil {
			t.Fatal(err)
		}
		delete(want, all[i])
	}
	for i := 0; i < 4; i++ {
		id, err := s.AddImage(testImage(t, float64(i*31%360)))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = true
	}
	if err := s.DeleteImage(all[15]); err != nil {
		t.Fatal(err)
	}
	delete(want, all[15])

	check := func(st *Store, label string) {
		t.Helper()
		got := st.ImageIDs()
		if len(got) != len(want) {
			t.Fatalf("%s: %d ids, want %d", label, len(got), len(want))
		}
		for i, id := range got {
			if !want[id] {
				t.Fatalf("%s: unexpected id %d", label, id)
			}
			if i > 0 && got[i-1] >= id {
				t.Fatalf("%s: ids not strictly ascending: %v", label, got)
			}
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := diskStore(t, dir)
	check(r, "replayed")
	// Deleting a replayed id keeps the slice consistent too.
	rest := r.ImageIDs()
	if err := r.DeleteImage(rest[len(rest)/2]); err != nil {
		t.Fatal(err)
	}
	delete(want, rest[len(rest)/2])
	check(r, "replayed+delete")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGetImageMutationIsolation is the regression test for the shallow
// pixel copy: a caller scribbling on a returned image's raster must not
// alter stored state.
func TestGetImageMutationIsolation(t *testing.T) {
	s := memStore(t)
	src := testImage(t, 42)
	id, err := s.AddImage(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.GetImage(id)
	if err != nil {
		t.Fatal(err)
	}
	orig := got.Pixels.Pix[0]
	got.Pixels.Fill(imagesim.RGB{R: 1, G: 2, B: 3})

	again, err := s.GetImage(id)
	if err != nil {
		t.Fatal(err)
	}
	if again.Pixels.Pix[0] != orig {
		t.Fatalf("stored pixels mutated through returned copy: %+v != %+v", again.Pixels.Pix[0], orig)
	}
	if &again.Pixels.Pix[0] == &got.Pixels.Pix[0] {
		t.Fatal("GetImage returned shared pixel backing array")
	}
}

// TestCloseUnblocksAndFailsMutations checks the shutdown path of the
// group-commit committer: Close drains in-flight work, later mutations
// fail fast with ErrClosed, and reads keep serving memory state.
func TestCloseUnblocksAndFailsMutations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dir = t.TempDir()
	cfg.WALSync = SyncImmediate
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.AddImage(testImage(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := s.AddImage(testImage(t, 8)); !errors.Is(err, ErrClosed) {
		t.Fatalf("AddImage after Close = %v, want ErrClosed", err)
	}
	if err := s.DeleteImage(id); !errors.Is(err, ErrClosed) {
		t.Fatalf("DeleteImage after Close = %v, want ErrClosed", err)
	}
	if _, err := s.GetImage(id); err != nil {
		t.Fatalf("read after Close: %v", err)
	}
}
