package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
)

// segFiles lists the segment-layout files present in dir, for asserting
// on the on-disk state machine.
func segFiles(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool, len(entries))
	for _, e := range entries {
		out[e.Name()] = true
	}
	return out
}

// TestSegmentFlushRecoverRoundtrip drives every row kind through a
// flush and a reopen: the segment must carry the whole frozen window and
// recovery must rebuild it without touching the (deleted) WAL.
func TestSegmentFlushRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	classID, err := s.CreateClassification("scene", []string{"clean", "littered"})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for i := 0; i < 3; i++ {
		id, err := s.AddImage(tinyImage(t, float64(i*30)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.PutFeature(ids[0], "hist", []float64{0.25, 0.75}); err != nil {
		t.Fatal(err)
	}
	if err := s.Annotate(Annotation{ImageID: ids[0], ClassificationID: classID, Label: 1, Confidence: 1, Source: SourceHuman}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddKeywords(ids[0], []string{"pole", "sidewalk"}); err != nil {
		t.Fatal(err)
	}
	uid, err := s.CreateUser("w-1", "worker")
	if err != nil {
		t.Fatal(err)
	}
	key, err := s.IssueAPIKey(uid, time.Date(2019, 2, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	img := tinyImage(t, 100)
	vidID, frameIDs, err := s.AddVideo("survey", "w-1", []Frame{
		{Pixels: img.Pixels, FOV: img.FOV, CapturedAt: img.TimestampCapturing, Keywords: []string{"drone"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	campID, err := s.CreateCampaign(CampaignRec{Name: "dtla", Region: geoRectAround(t), TargetCoverage: 0.5})
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot on the segment engine is a forced flush.
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	files := segFiles(t, dir)
	if !files[manifestFile] || !files[segName(1)] {
		t.Fatalf("after flush: files %v, want %s and %s", files, manifestFile, segName(1))
	}
	if files[walName(1)] {
		t.Fatalf("after flush: flushed %s still present", walName(1))
	}
	if !files[walName(2)] {
		t.Fatalf("after flush: live log %s missing", walName(2))
	}
	st := s.EngineStats()
	if st.Flushes != 1 || st.Segments != 1 || st.MemBytes != 0 {
		t.Fatalf("stats after flush: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := diskStore(t, dir)
	defer r.Close()
	if got := r.NumImages(); got != 4 { // 3 stills + 1 video frame
		t.Fatalf("recovered %d images, want 4", got)
	}
	if vec, err := r.GetFeature(ids[0], "hist"); err != nil || len(vec) != 2 {
		t.Fatalf("feature: %v %v", vec, err)
	}
	if anns := r.AnnotationsFor(ids[0]); len(anns) != 1 || anns[0].Label != 1 {
		t.Fatalf("annotations: %+v", anns)
	}
	if kw := r.KeywordsFor(ids[0]); len(kw) != 2 {
		t.Fatalf("keywords: %v", kw)
	}
	if _, err := r.Authenticate(key); err != nil {
		t.Fatalf("API key lost in flush: %v", err)
	}
	v, err := r.GetVideo(vidID)
	if err != nil || len(v.FrameIDs) != 1 || v.FrameIDs[0] != frameIDs[0] {
		t.Fatalf("video: %+v %v", v, err)
	}
	if _, err := r.GetCampaign(campID); err != nil {
		t.Fatal(err)
	}
	// The allocator must resume above the flushed high-water mark.
	nid, err := r.AddImage(tinyImage(t, 200))
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range append(ids, frameIDs...) {
		if nid == old {
			t.Fatalf("ID %d reused after recovery", nid)
		}
	}
}

func geoRectAround(t *testing.T) geo.Rect {
	t.Helper()
	return geo.Rect{MinLat: la.Lat - 1, MinLon: la.Lon - 1, MaxLat: la.Lat + 1, MaxLon: la.Lon + 1}
}

// TestSegmentCompaction checks the merge: two segments plus a live
// window collapse to one segment holding every row, inputs deleted,
// recovery unaffected.
func TestSegmentCompaction(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	for i := 0; i < 2; i++ {
		if _, err := s.AddImage(tinyImage(t, float64(i*20))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 4; i++ {
		if _, err := s.AddImage(tinyImage(t, float64(i*20))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if st := s.EngineStats(); st.Segments != 2 || st.Flushes != 2 {
		t.Fatalf("pre-compaction stats: %+v", st)
	}
	if err := s.eng.compactOnce(); err != nil {
		t.Fatal(err)
	}
	st := s.EngineStats()
	if st.Segments != 1 || st.Compactions != 1 {
		t.Fatalf("post-compaction stats: %+v", st)
	}
	files := segFiles(t, dir)
	if files[segName(1)] || files[segName(2)] || !files[segName(3)] {
		t.Fatalf("post-compaction files: %v", files)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := diskStore(t, dir)
	defer r.Close()
	if got := r.NumImages(); got != 4 {
		t.Fatalf("recovered %d images after compaction, want 4", got)
	}
}

// TestSegmentTombstones: a delete flushed into a later segment must kill
// the row from the earlier one on recovery, and compaction must drop
// both the tombstone and the dead row for good.
func TestSegmentTombstones(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	var ids []uint64
	for i := 0; i < 3; i++ {
		id, err := s.AddImage(tinyImage(t, float64(i*30)))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddKeywords(id, []string{"k"}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.Snapshot(); err != nil { // seg 1 holds all three rows
		t.Fatal(err)
	}
	if err := s.DeleteImage(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil { // seg 2 holds the tombstone
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := diskStore(t, dir)
	if got := r.NumImages(); got != 2 {
		t.Fatalf("recovered %d images, want 2 (tombstone ignored)", got)
	}
	if _, err := r.GetImage(ids[1]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted image resurrected: err = %v", err)
	}
	if kw := r.KeywordsFor(ids[1]); len(kw) != 0 {
		t.Fatalf("deleted image keywords resurrected: %v", kw)
	}
	if err := r.eng.compactOnce(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := diskStore(t, dir)
	defer r2.Close()
	if got := r2.NumImages(); got != 2 {
		t.Fatalf("post-compaction recovery: %d images, want 2", got)
	}
	if _, err := r2.GetImage(ids[1]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tombstoned row back after compaction: err = %v", err)
	}
}

// TestSegmentWALTailRecovery: ops after the last flush live only in the
// WAL tail; a crash (no Close) must replay them, rebuild the memtable,
// and let the next flush carry them into a segment.
func TestSegmentWALTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	for i := 0; i < 2; i++ {
		if _, err := s.AddImage(tinyImage(t, float64(i*20))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 5; i++ {
		if _, err := s.AddImage(tinyImage(t, float64(i*20))); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: walk away without Close.

	r := diskStore(t, dir)
	defer r.Close()
	if got := r.NumImages(); got != 5 {
		t.Fatalf("recovered %d images, want 5", got)
	}
	// Replay rebuilt the memtable: the tail ops are flushable.
	if st := r.EngineStats(); st.MemBytes == 0 {
		t.Fatal("replayed WAL tail left MemBytes == 0; next flush would drop it")
	}
	if err := r.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if st := r.EngineStats(); st.Segments != 2 || st.MemBytes != 0 {
		t.Fatalf("stats after post-recovery flush: %+v", st)
	}
}

// TestSegmentBackgroundFlush checks the data path that production uses:
// crossing FlushThreshold kicks the background worker, which flushes —
// and, at CompactSegments live segments, compacts — without any forced
// Snapshot call.
func TestSegmentBackgroundFlush(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Dir = dir
	cfg.FlushThreshold = 1 // every committed batch crosses it
	cfg.CompactSegments = 3
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 12; i++ {
		if _, err := s.AddImage(tinyImage(t, float64(i*13%360))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.EngineStats()
		if st.Flushes >= 1 && st.Compactions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background worker idle: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
		// Keep feeding so the worker has something to flush even if the
		// earlier kicks coalesced.
		if _, err := s.AddImage(tinyImage(t, 77)); err != nil {
			t.Fatal(err)
		}
	}
}

// legacyWAL encodes ops the way the retired snapshot engine's v1
// wal.gob did: one continuous gob stream.
func legacyWAL(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for i := 1; i <= 3; i++ {
		img := tinyImage(t, float64(i*20))
		img.ID = uint64(i)
		img.Scene = img.FOV.SceneLocation()
		if err := enc.Encode(walOp{Kind: opAddImage, Image: &img}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestLegacyLayoutRefused: a directory holding a file of the retired
// snapshot engine must fail Open with an error naming the file, and the
// failed Open must leave the directory exactly as it found it — the
// legacy bytes intact, no MANIFEST, no log. Serving an empty store over
// that data would look like data loss.
func TestLegacyLayoutRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		data func(t *testing.T) []byte
	}{
		{"wal.gob", legacyWAL},
		{"snapshot.gob", func(*testing.T) []byte { return []byte("legacy snapshot") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, tc.name)
			data := tc.data(t)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Dir = dir
			s, err := Open(cfg)
			if err == nil {
				s.Close()
				t.Fatalf("Open accepted a directory holding %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.name) {
				t.Fatalf("Open error %q does not name %s", err, tc.name)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s rewritten by the refused Open", tc.name)
			}
			if files := segFiles(t, dir); len(files) != 1 {
				t.Fatalf("refused Open changed the directory: %v", files)
			}
		})
	}
}

// TestParseWALSyncMode covers the -wal-sync flag-string surface.
func TestParseWALSyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want WALSyncMode
		ok   bool
	}{
		{"", SyncBatch, true},
		{"batch", SyncBatch, true},
		{"immediate", SyncImmediate, true},
		{"none", SyncNone, true},
		{"fsync", 0, false},
	} {
		m, err := ParseWALSyncMode(tc.in)
		if tc.ok && (err != nil || m != tc.want) {
			t.Fatalf("ParseWALSyncMode(%q) = %v, %v", tc.in, m, err)
		}
		if !tc.ok && err == nil {
			t.Fatalf("ParseWALSyncMode(%q) accepted", tc.in)
		}
	}
}

// TestParseWALName: walName's %06d is a minimum print width, so names
// grow past six digits after ~1M flushes; the parse must take every
// digit and reject non-log names.
func TestParseWALName(t *testing.T) {
	for _, tc := range []struct {
		in  string
		gen uint64
		ok  bool
	}{
		{"wal-000001.log", 1, true},
		{"wal-999999.log", 999999, true},
		{"wal-1000000.log", 1000000, true},
		{"wal-18446744073709551615.log", 18446744073709551615, true},
		{"wal-.log", 0, false},
		{"wal-12x.log", 0, false},
		{"wal-000001.log.tmp", 0, false},
		{"seg-000001.seg", 0, false},
		{"MANIFEST", 0, false},
	} {
		g, ok := parseWALName(tc.in)
		if ok != tc.ok || g != tc.gen {
			t.Errorf("parseWALName(%q) = %d, %v; want %d, %v", tc.in, g, ok, tc.gen, tc.ok)
		}
	}
	if name := walName(1000000); name != "wal-1000000.log" {
		t.Fatalf("walName(1000000) = %q", name)
	}
}

// TestSegmentWALChainMillionGenerations: a chain past generation 999999
// (seven-digit filenames) must open, flush, and reopen — a width-limited
// parse would misread the generation and fail the chain-contiguity
// check.
func TestSegmentWALChainMillionGenerations(t *testing.T) {
	dir := t.TempDir()
	if err := writeManifest(dir, manifest{Version: manifestVersion, FlushedGen: 999999, NextSeg: 1}); err != nil {
		t.Fatal(err)
	}
	for _, gen := range []uint64{1000000, 1000001} {
		w, err := createWAL(dir, walName(gen), gen)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
	}
	s := diskStore(t, dir)
	if _, err := s.AddImage(tinyImage(t, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := diskStore(t, dir)
	defer r.Close()
	if got := r.NumImages(); got != 1 {
		t.Fatalf("recovered %d images, want 1", got)
	}
}

// TestFlushFailureFailStop: a flush that dies after the freeze-swap
// leaves the frozen window's only durable copy in its retired WAL
// generations. The engine must fail-stop — refuse later flushes rather
// than advance FlushedGen past those generations and delete them — so a
// restart recovers every acked row.
func TestFlushFailureFailStop(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	for i := 0; i < 2; i++ {
		if _, err := s.AddImage(tinyImage(t, float64(i*20))); err != nil {
			t.Fatal(err)
		}
	}
	restore := installFaultMatch(faultCut, 0, "seg-")
	err := s.Snapshot()
	restore()
	if err == nil {
		t.Fatal("flush with torn segment write reported success")
	}
	// The first window now lives only in wal-1; this lands in wal-2.
	if _, err := s.AddImage(tinyImage(t, 50)); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err == nil {
		t.Fatal("flush after a failed flush must fail-stop, not advance FlushedGen")
	}
	if !segFiles(t, dir)[walName(1)] {
		t.Fatalf("failed window's log %s deleted; its rows have no durable copy", walName(1))
	}
	s.Close() // surfaces the recorded error; the data is already on disk
	r := diskStore(t, dir)
	defer r.Close()
	if got := r.NumImages(); got != 3 {
		t.Fatalf("recovered %d images after failed flush, want 3", got)
	}
}

// tearWALTail appends a partial frame to a closed log, modelling a tail
// whose last batch never fully hit the disk before a power loss.
func tearWALTail(t *testing.T, dir string, gen uint64) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, walName(gen)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xDE, 0xAD, 0xBE}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRotationCrashTornRetiringTail models a power loss inside the
// rotation window: the pre-created next generation is already durable
// but the retiring log's unsynced tail never hit the disk. Because the
// successor holds no frames, recovery must treat the torn tail as the
// usual bounded crash loss — repair it and continue — not refuse the
// chain.
func TestRotationCrashTornRetiringTail(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	for i := 0; i < 2; i++ {
		if _, err := s.AddImage(tinyImage(t, float64(i*20))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tearWALTail(t, dir, 1)
	w, err := createWAL(dir, walName(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	r := diskStore(t, dir)
	defer r.Close()
	if got := r.NumImages(); got != 2 {
		t.Fatalf("recovered %d images, want 2 (torn tail repaired)", got)
	}
	// The repaired chain must stay appendable and flushable.
	if _, err := r.AddImage(tinyImage(t, 70)); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot(); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailUnderLaterFramesRefused: rotation fsyncs a retiring log
// before any frame can land in its successor, so frames in a later
// generation above a torn tail prove fully-synced bytes went missing.
// The store must refuse to open — and must not repair anything on the
// failed attempt, or the refusal would vanish on the next open and serve
// a corpus with a mid-history hole.
func TestTornTailUnderLaterFramesRefused(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	for i := 0; i < 2; i++ {
		if _, err := s.AddImage(tinyImage(t, float64(i*20))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tearWALTail(t, dir, 1)
	w, err := createWAL(dir, walName(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := encodeFrame(walOp{Kind: opAddUser, User: &User{ID: 7, Name: "u", Role: "worker"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.b.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Dir = dir
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := Open(cfg); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("attempt %d: Open = %v, want ErrWALCorrupt", attempt, err)
		}
	}
}

// TestWALSyncModesRoundTrip runs a small workload under each sync mode
// on the segment engine; all three must keep the store reopenable with a
// clean Close, whatever their crash-durability windows.
func TestWALSyncModesRoundTrip(t *testing.T) {
	for _, mode := range []WALSyncMode{SyncBatch, SyncImmediate, SyncNone} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			cfg := DefaultConfig()
			cfg.Dir = dir
			cfg.WALSync = mode
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, err := s.AddImage(tinyImage(t, float64(i*20))); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r := diskStore(t, dir)
			defer r.Close()
			if got := r.NumImages(); got != 5 {
				t.Fatalf("mode %v: recovered %d images, want 5", mode, got)
			}
		})
	}
}
