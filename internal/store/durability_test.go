package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geo"
	"repro/internal/imagesim"
)

// TestTornWALTailIsTolerated simulates a crash mid-append: the live
// log's last bytes are truncated and recovery must load the intact prefix
// without error.
func TestTornWALTailIsTolerated(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	var ids []uint64
	for i := 0; i < 20; i++ {
		id, err := s.AddImage(testImage(t, float64(i*17%360)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail off the WAL.
	walPath := filepath.Join(dir, walName(1))
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, info.Size()-25); err != nil {
		t.Fatal(err)
	}
	r := diskStore(t, dir)
	defer r.Close()
	// At most the final record is lost; everything before must be intact.
	if n := r.NumImages(); n < 19 || n > 20 {
		t.Fatalf("recovered %d images from torn WAL", n)
	}
	if _, err := r.GetImage(ids[0]); err != nil {
		t.Fatalf("early image lost: %v", err)
	}
	// The store remains writable after torn-tail recovery.
	if _, err := r.AddImage(testImage(t, 200)); err != nil {
		t.Fatalf("write after torn recovery: %v", err)
	}
}

// TestWALRoundTripProperty drives a random op sequence against a durable
// store, reopens it, and checks that observable state matches a
// memory-only twin that executed the same sequence.
func TestWALRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		durable := diskStore(t, dir)
		mem := memStore(t)
		classID1, err := durable.CreateClassification("c", []string{"a", "b", "c"})
		if err != nil {
			t.Fatal(err)
		}
		classID2, err := mem.CreateClassification("c", []string{"a", "b", "c"})
		if err != nil {
			t.Fatal(err)
		}
		var dIDs, mIDs []uint64
		ops := 30 + rng.Intn(30)
		for i := 0; i < ops; i++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(dIDs) == 0: // add image
				img := Image{
					FOV: geo.FOV{
						Camera:    geo.Destination(la, rng.Float64()*360, rng.Float64()*2000),
						Direction: rng.Float64() * 359,
						Angle:     30 + rng.Float64()*90,
						Radius:    50 + rng.Float64()*100,
					},
					Pixels:             imagesim.MustNew(8, 8),
					TimestampCapturing: time.Unix(1e9+int64(rng.Intn(1e6)), 0).UTC(),
				}
				d, err := durable.AddImage(img)
				if err != nil {
					t.Fatal(err)
				}
				m, err := mem.AddImage(img)
				if err != nil {
					t.Fatal(err)
				}
				dIDs = append(dIDs, d)
				mIDs = append(mIDs, m)
			case op < 7: // feature
				j := rng.Intn(len(dIDs))
				vec := []float64{rng.Float64(), rng.Float64()}
				if err := durable.PutFeature(dIDs[j], "f", vec); err != nil {
					t.Fatal(err)
				}
				if err := mem.PutFeature(mIDs[j], "f", vec); err != nil {
					t.Fatal(err)
				}
			case op < 8: // annotation
				j := rng.Intn(len(dIDs))
				label := rng.Intn(3)
				a := Annotation{Label: label, Confidence: 1, Source: SourceHuman}
				a.ImageID, a.ClassificationID = dIDs[j], classID1
				if err := durable.Annotate(a); err != nil {
					t.Fatal(err)
				}
				a.ImageID, a.ClassificationID = mIDs[j], classID2
				if err := mem.Annotate(a); err != nil {
					t.Fatal(err)
				}
			case op < 9: // keywords
				j := rng.Intn(len(dIDs))
				words := []string{"kw" + string(rune('a'+rng.Intn(5)))}
				if err := durable.AddKeywords(dIDs[j], words); err != nil {
					t.Fatal(err)
				}
				if err := mem.AddKeywords(mIDs[j], words); err != nil {
					t.Fatal(err)
				}
			default: // delete
				j := rng.Intn(len(dIDs))
				if err := durable.DeleteImage(dIDs[j]); err != nil {
					t.Fatal(err)
				}
				if err := mem.DeleteImage(mIDs[j]); err != nil {
					t.Fatal(err)
				}
				dIDs = append(dIDs[:j], dIDs[j+1:]...)
				mIDs = append(mIDs[:j], mIDs[j+1:]...)
			}
		}
		durable.Close()
		recovered := diskStore(t, dir)
		defer recovered.Close()
		// Observable state must match the memory twin.
		if recovered.NumImages() != mem.NumImages() {
			t.Logf("image counts differ: %d vs %d", recovered.NumImages(), mem.NumImages())
			return false
		}
		for i, id := range dIDs {
			rImg, err := recovered.GetImage(id)
			if err != nil {
				t.Logf("recovered image %d missing: %v", id, err)
				return false
			}
			mImg, err := mem.GetImage(mIDs[i])
			if err != nil {
				t.Fatal(err)
			}
			if rImg.FOV != mImg.FOV || !rImg.TimestampCapturing.Equal(mImg.TimestampCapturing) {
				t.Logf("image %d state differs", id)
				return false
			}
			if len(recovered.AnnotationsFor(id)) != len(mem.AnnotationsFor(mIDs[i])) {
				t.Logf("annotation counts differ for %d", id)
				return false
			}
			if len(recovered.KeywordsFor(id)) != len(mem.KeywordsFor(mIDs[i])) {
				t.Logf("keyword counts differ for %d", id)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotThenWALProperty mixes snapshots into the op stream.
func TestSnapshotThenWALProperty(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	want := 0
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		if _, err := s.AddImage(testImage(t, float64(rng.Intn(360)))); err != nil {
			t.Fatal(err)
		}
		want++
		if i%13 == 12 {
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Close()
	r := diskStore(t, dir)
	defer r.Close()
	if r.NumImages() != want {
		t.Fatalf("recovered %d, want %d", r.NumImages(), want)
	}
}
