package store

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/imagesim"
)

// tinyImage keeps WAL frames small so the every-offset sweep stays fast.
func tinyImage(t *testing.T, brg float64) Image {
	t.Helper()
	px := imagesim.MustNew(2, 2)
	px.Fill(imagesim.RGB{R: 10, G: 20, B: 30})
	cam := geo.Destination(la, brg, 500)
	return Image{
		FOV:                geo.FOV{Camera: cam, Direction: brg, Angle: 60, Radius: 100},
		Pixels:             px,
		TimestampCapturing: time.Date(2019, 2, 1, 8, 0, 0, 0, time.UTC).Add(time.Duration(brg) * time.Minute),
		WorkerID:           "w-1",
	}
}

// TestReopenMutateCycles is the regression test for the v1 WAL's fatal
// append-after-reopen bug: each session appended a fresh gob stream to
// the same file, so after two crash→reopen→mutate cycles replay died with
// "gob: duplicate type received" and the store was permanently locked
// out. Cycles alternate a simulated crash (store abandoned without Close)
// with a clean shutdown.
func TestReopenMutateCycles(t *testing.T) {
	dir := t.TempDir()
	total := 0
	for cycle := 0; cycle < 4; cycle++ {
		s := diskStore(t, dir)
		if got := s.NumImages(); got != total {
			t.Fatalf("cycle %d: recovered %d images, want %d", cycle, got, total)
		}
		for i := 0; i < 3; i++ {
			if _, err := s.AddImage(tinyImage(t, float64(cycle*40+i*10))); err != nil {
				t.Fatalf("cycle %d: add: %v", cycle, err)
			}
			total++
		}
		if cycle%2 == 1 {
			if err := s.Close(); err != nil {
				t.Fatalf("cycle %d: close: %v", cycle, err)
			}
		}
		// Even cycles: crash — walk away without Close.
	}
	r := diskStore(t, dir)
	defer r.Close()
	if got := r.NumImages(); got != total {
		t.Fatalf("final recovery: %d images, want %d", got, total)
	}
}

// walState is the observable state fingerprint used by the offset-sweep
// tests to check that recovery restores exactly the durable prefix.
type walState struct {
	walSize  int64
	images   int
	classes  int
	anns     int
	keywords int
	features int
	hasUser  bool
}

func fingerprint(s *Store, probeImg, probeUser uint64) walState {
	st := walState{
		images:   s.NumImages(),
		classes:  len(s.Classifications()),
		anns:     len(s.AnnotationsFor(probeImg)),
		keywords: len(s.KeywordsFor(probeImg)),
		features: len(s.FeatureKinds(probeImg)),
	}
	if probeUser != 0 {
		_, st.hasUser = s.users[probeUser]
	}
	return st
}

// recordedWorkload drives a mixed op sequence against a SyncImmediate
// store and records, after every synced op, the size of the live log
// (wal-000001.log under a fresh MANIFEST) and the expected observable
// state. Returns the checkpoints, the final log and MANIFEST bytes, and
// the probe IDs.
func recordedWorkload(t *testing.T) (cps []walState, wal, man []byte, probeImg, probeUser uint64) {
	t.Helper()
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Dir = dir
	cfg.WALSync = SyncImmediate
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName(1))
	record := func() {
		info, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		cp := fingerprint(s, probeImg, probeUser)
		cp.walSize = info.Size()
		cps = append(cps, cp)
	}
	record() // header-only log, empty state
	classID, err := s.CreateClassification("scene", []string{"clean", "littered"})
	if err != nil {
		t.Fatal(err)
	}
	record()
	probeImg, err = s.AddImage(tinyImage(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	record()
	id2, err := s.AddImage(tinyImage(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	record()
	if err := s.PutFeature(probeImg, "hist", []float64{0.25, 0.75}); err != nil {
		t.Fatal(err)
	}
	record()
	if err := s.Annotate(Annotation{ImageID: probeImg, ClassificationID: classID, Label: 1, Confidence: 1, Source: SourceHuman}); err != nil {
		t.Fatal(err)
	}
	record()
	if err := s.AddKeywords(probeImg, []string{"pole", "sidewalk"}); err != nil {
		t.Fatal(err)
	}
	record()
	probeUser, err = s.CreateUser("w-1", "worker")
	if err != nil {
		t.Fatal(err)
	}
	// probeUser became knowable only now; refresh the hasUser field of no
	// prior checkpoint (it was false there by construction).
	record()
	if err := s.DeleteImage(id2); err != nil {
		t.Fatal(err)
	}
	record()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err = os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(wal)) != cps[len(cps)-1].walSize {
		t.Fatalf("final WAL size %d != last checkpoint %d", len(wal), cps[len(cps)-1].walSize)
	}
	man, err = os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	return cps, wal, man, probeImg, probeUser
}

// TestKillAtEveryOffset is the crash-recovery property test: the recorded
// live log is cut at every byte offset and Open must recover exactly the
// synced prefix — every record whose final byte made it to disk, nothing
// after the cut. createWAL installs a log's header by temp + rename, so a
// log shorter than its header is no crash artifact: Open refuses it as
// ErrWALCorrupt.
func TestKillAtEveryOffset(t *testing.T) {
	cps, wal, man, probeImg, probeUser := recordedWorkload(t)
	// Recovery fsyncs during repair, so each offset costs real I/O; shard
	// the sweep across workers with private directories.
	workers := 8 * runtime.GOMAXPROCS(0) // I/O-bound: overlap the per-offset fsyncs
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		dir := t.TempDir()
		wg.Add(1)
		go func(w int, dir string) {
			defer wg.Done()
			if err := os.WriteFile(filepath.Join(dir, manifestFile), man, 0o644); err != nil {
				t.Error(err)
				return
			}
			walPath := filepath.Join(dir, walName(1))
			cfg := DefaultConfig()
			cfg.Dir = dir
			for k := w; k <= len(wal); k += workers {
				if err := os.WriteFile(walPath, wal[:k], 0o644); err != nil {
					t.Error(err)
					return
				}
				r, err := Open(cfg)
				if k < walHeaderSize {
					if !errors.Is(err, ErrWALCorrupt) {
						t.Errorf("offset %d (inside the header): Open = %v, want ErrWALCorrupt", k, err)
						if err == nil {
							r.Close()
						}
						return
					}
					continue
				}
				if err != nil {
					t.Errorf("offset %d: Open failed: %v", k, err)
					return
				}
				want := cps[0]
				for _, cp := range cps {
					if cp.walSize <= int64(k) {
						want = cp
					}
				}
				got := fingerprint(r, probeImg, probeUser)
				got.walSize = want.walSize
				if got != want {
					t.Errorf("offset %d: recovered %+v, want %+v", k, got, want)
				}
				r.Close()
			}
		}(w, dir)
	}
	wg.Wait()
}

// TestFaultInjectedTornWrites drives the store's own append path through
// the failpoint backend: a cut or short write mid-workload must, on
// reopen, yield exactly the records appended before the fault.
func TestFaultInjectedTornWrites(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode faultMode
	}{
		{"cut", faultCut},
		{"short-write", faultShortWrite},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// Trip partway through some frame a few records in; the exact
			// frame boundary is irrelevant — recovery must keep whole
			// frames below the fault and drop the torn one.
			restore := installFault(tc.mode, walHeaderSize+2500)
			defer restore()
			cfg := DefaultConfig()
			cfg.Dir = dir
			cfg.WALSync = SyncImmediate
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			committed := 0
			for i := 0; i < 50; i++ {
				if _, err := s.AddImage(tinyImage(t, float64(i*7%360))); err != nil {
					if !errors.Is(err, errFaultInjected) {
						t.Fatalf("add %d: %v", i, err)
					}
					break
				}
				committed++
			}
			if committed == 0 || committed == 50 {
				t.Fatalf("fault never triggered mid-workload (committed=%d)", committed)
			}
			restore()
			r := diskStore(t, dir)
			defer r.Close()
			if got := r.NumImages(); got != committed {
				t.Fatalf("recovered %d images, want %d committed before fault", got, committed)
			}
			// Torn tail was repaired in place: the store must stay
			// appendable across another cycle.
			if _, err := r.AddImage(tinyImage(t, 355)); err != nil {
				t.Fatalf("append after repair: %v", err)
			}
		})
	}
}

// TestBitFlipSurfacesCorruption flips one bit early in the live log
// (with intact records behind it) and requires Open to fail with
// ErrWALCorrupt rather than silently dropping or misreading data. Damage
// confined to the final frame, by contrast, is indistinguishable from a
// torn append and is repaired away.
func TestBitFlipSurfacesCorruption(t *testing.T) {
	build := func(t *testing.T, flipOffset int64) string {
		dir := t.TempDir()
		if flipOffset >= 0 {
			restore := installFaultMatch(faultBitFlip, flipOffset, "wal-")
			defer restore()
		}
		s := diskStore(t, dir)
		for i := 0; i < 4; i++ {
			if _, err := s.AddImage(tinyImage(t, float64(i*30))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("mid-log", func(t *testing.T) {
		// Flip inside the first frame's payload; three valid frames follow.
		dir := build(t, walHeaderSize+walFrameHeaderSize+40)
		cfg := DefaultConfig()
		cfg.Dir = dir
		_, err := Open(cfg)
		if !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("Open = %v, want ErrWALCorrupt", err)
		}
	})

	t.Run("final-frame", func(t *testing.T) {
		dir := build(t, -1)
		walPath := filepath.Join(dir, walName(1))
		data, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-3] ^= 0x40
		if err := os.WriteFile(walPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r := diskStore(t, dir)
		defer r.Close()
		if got := r.NumImages(); got != 3 {
			t.Fatalf("recovered %d images after final-frame damage, want 3", got)
		}
	})
}

// TestSnapshotCrashDiscardsStaleWAL drives the crash window at the end of
// a forced flush (Snapshot): the manifest already records the flushed
// generation, but the process died before the flushed log was removed.
// Recovery must see that the log's generation is at or below the
// manifest's FlushedGen and discard it — replaying it would re-apply ops
// the segment already holds.
func TestSnapshotCrashDiscardsStaleWAL(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	id1, err := s.AddImage(tinyImage(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil { // generation 1 → segment; wal-2 is live
		t.Fatal(err)
	}
	id2, err := s.AddImage(tinyImage(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddKeywords(id2, []string{"lamp"}); err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(filepath.Join(dir, walName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil { // generation 2 → segment; wal-2 removed
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash image: the flushed generation-2 log, still holding id2's
	// add-image and add-keywords ops, survives beside the manifest that
	// already owns it.
	if err := os.WriteFile(filepath.Join(dir, walName(2)), stale, 0o644); err != nil {
		t.Fatal(err)
	}

	r := diskStore(t, dir)
	if got := r.NumImages(); got != 2 {
		t.Fatalf("recovered %d images, want 2", got)
	}
	if _, err := r.GetImage(id1); err != nil {
		t.Fatal(err)
	}
	// The tell: replaying the stale log would double-apply, duplicating
	// id2's keywords (or failing outright on the duplicate image ID).
	if kw := r.KeywordsFor(id2); len(kw) != 1 || kw[0] != "lamp" {
		t.Fatalf("keywords for %d = %v, want exactly [lamp]", id2, kw)
	}
	if segFiles(t, dir)[walName(2)] {
		t.Fatal("stale generation-2 log survived recovery")
	}
	// The recovered store keeps its durability: new writes survive another
	// reopen.
	if _, err := r.AddImage(tinyImage(t, 30)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := diskStore(t, dir)
	defer r2.Close()
	if got := r2.NumImages(); got != 3 {
		t.Fatalf("post-recovery write lost: %d images, want 3", got)
	}
}

// TestSnapshotPlusWALOffsetSweep repeats the kill-at-every-offset check
// for a log that rides on top of a forced flush (Snapshot): segment 1
// holds three images and wal-000002.log three more, cut at every offset
// past its header — segment loading and prefix recovery must compose.
func TestSnapshotPlusWALOffsetSweep(t *testing.T) {
	src := t.TempDir()
	cfg := DefaultConfig()
	cfg.Dir = src
	cfg.WALSync = SyncImmediate
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.AddImage(tinyImage(t, float64(i*15))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(src, walName(2))
	sizes := []int64{walHeaderSize}
	for i := 0; i < 3; i++ {
		if _, err := s.AddImage(tinyImage(t, float64(100+i*15))); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, info.Size())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Everything but the live log: the MANIFEST and segment 1.
	base := map[string][]byte{}
	for name := range segFiles(t, src) {
		if name == walName(2) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		base[name] = data
	}

	workers := 8 * runtime.GOMAXPROCS(0) // I/O-bound: overlap the per-offset fsyncs
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		dir := t.TempDir()
		wg.Add(1)
		go func(w int, dir string) {
			defer wg.Done()
			for name, data := range base {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Error(err)
					return
				}
			}
			rcfg := DefaultConfig()
			rcfg.Dir = dir
			for k := walHeaderSize + w; k <= len(wal); k += workers {
				if err := os.WriteFile(filepath.Join(dir, walName(2)), wal[:k], 0o644); err != nil {
					t.Error(err)
					return
				}
				r, err := Open(rcfg)
				if err != nil {
					t.Errorf("offset %d: Open failed: %v", k, err)
					return
				}
				want := 3 // segment baseline
				for _, sz := range sizes {
					if sz <= int64(k) && sz > walHeaderSize {
						want++
					}
				}
				if got := r.NumImages(); got != want {
					t.Errorf("offset %d: recovered %d images, want %d", k, got, want)
				}
				r.Close()
			}
		}(w, dir)
	}
	wg.Wait()
}
