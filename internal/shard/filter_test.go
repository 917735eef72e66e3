package shard

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/store"
)

// bareAndSharded returns a memory-only bare store and a 4-shard
// coordinator, the two backends every test here compares.
func bareAndSharded(t *testing.T) map[string]store.Backend {
	t.Helper()
	bare, err := store.Open(store.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bare.Close() })
	return map[string]store.Backend{"bare": bare, "shards=4": memCoord(t, 4)}
}

// TestFirstTimeRangeQueriesConcurrent is the regression test for the
// temporal index's lazy sort: after shuffled (out-of-order) inserts, many
// readers issue the *first* time-range query at once, under the store's
// read lock. Every one must get the sorted answer; run it under -race.
func TestFirstTimeRangeQueriesConcurrent(t *testing.T) {
	const n, readers = 600, 8
	base := time.Date(2019, 2, 1, 8, 0, 0, 0, time.UTC)
	for name, b := range bareAndSharded(t) {
		rng := rand.New(rand.NewSource(3))
		type entry struct {
			id uint64
			at time.Time
		}
		var want []entry
		for _, p := range rng.Perm(n) {
			img := testImage(float64(p % 360))
			// p/2 repeats every capture time once, so ties fall to the ID.
			img.TimestampCapturing = base.Add(time.Duration(p/2) * time.Minute)
			id, err := b.AddImage(img)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, entry{id, img.TimestampCapturing})
		}
		sort.Slice(want, func(i, j int) bool {
			if !want[i].at.Equal(want[j].at) {
				return want[i].at.Before(want[j].at)
			}
			return want[i].id < want[j].id
		})
		from, to := base.Add(10*time.Minute), base.Add(200*time.Minute)
		var wantIDs []uint64
		for _, e := range want {
			if !e.at.Before(from) && !e.at.After(to) {
				wantIDs = append(wantIDs, e.id)
			}
		}
		got := make([][]uint64, readers)
		errs := make([]error, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got[i], errs[i] = b.SearchTime(context.Background(), from, to)
			}(i)
		}
		close(start)
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("%s reader %d: %v", name, i, errs[i])
			}
			if !reflect.DeepEqual(got[i], wantIDs) {
				t.Fatalf("%s reader %d: %d hits, want %d in (time, id) order", name, i, len(got[i]), len(wantIDs))
			}
		}
	}
}

// TestDuplicateAnnotationsLinkedOnce checks the label index dedupe through
// the Backend surface, where a coordinator merges per-shard lists: an
// image annotated twice with one label appears once, in ImagesByLabel and
// in a FilterIDs label probe, and a delete after the double annotation
// removes it everywhere.
func TestDuplicateAnnotationsLinkedOnce(t *testing.T) {
	ctx := context.Background()
	for name, b := range bareAndSharded(t) {
		ids := seedCorpus(t, b, 12)
		cls, err := b.CreateClassification("c", []string{"a", "b"})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			for rep := 0; rep < 2; rep++ {
				if err := b.Annotate(store.Annotation{ImageID: id, ClassificationID: cls, Label: 1, Confidence: 0.5}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := b.ImagesByLabel(cls, 1); !reflect.DeepEqual(got, ids) {
			t.Fatalf("%s: ImagesByLabel = %v, want %v", name, got, ids)
		}
		if err := b.DeleteImage(ids[3]); err != nil {
			t.Fatal(err)
		}
		rest := append(append([]uint64(nil), ids[:3]...), ids[4:]...)
		if got := b.ImagesByLabel(cls, 1); !reflect.DeepEqual(got, rest) {
			t.Fatalf("%s: after delete ImagesByLabel = %v, want %v", name, got, rest)
		}
		got, err := b.FilterIDs(ctx, ids, store.IDFilter{Labels: []store.LabelFilter{{ClassificationID: cls, Label: 1}}})
		if err != nil || !reflect.DeepEqual(got, rest) {
			t.Fatalf("%s: label FilterIDs = %v, %v; want %v", name, got, err, rest)
		}
	}
}

// TestFilterIDsMatchesBareStore pins the coordinator's split-and-restore:
// on a shuffled candidate list every filter returns exactly the bare
// store's answer, in the input's order, and a missing candidate fails a
// time-filtered call with ErrNotFound on both.
func TestFilterIDsMatchesBareStore(t *testing.T) {
	ctx := context.Background()
	backends := bareAndSharded(t)
	var ids []uint64
	for _, b := range backends {
		ids = seedCorpus(t, b, 60)
	}
	in := append([]uint64(nil), ids...)
	rand.New(rand.NewSource(9)).Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	from := time.Date(2019, 2, 1, 8, 30, 0, 0, time.UTC)
	near := geo.Rect{MinLat: la.Lat + 0.002, MinLon: la.Lon - 0.01, MaxLat: la.Lat + 0.01, MaxLon: la.Lon + 0.01}
	filters := []store.IDFilter{
		{Time: &store.TimeRange{From: from, To: from.Add(time.Hour)}},
		{Scene: &near},
		{Text: &store.TextFilter{Terms: []string{"Garbage", "truck"}}},
		{Text: &store.TextFilter{Terms: []string{"garbage", "TRUCK"}, MatchAll: true}},
		{Scene: &near, Text: &store.TextFilter{Terms: []string{"street"}}},
	}
	for i, f := range filters {
		want, err := backends["bare"].FilterIDs(ctx, in, f)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || len(want) == len(in) {
			t.Fatalf("filter %d keeps %d of %d: the case proves nothing", i, len(want), len(in))
		}
		got, err := backends["shards=4"].FilterIDs(ctx, in, f)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("filter %d: sharded %v, %v; bare %v", i, got, err, want)
		}
	}
	withGone := append([]uint64{ids[len(ids)-1] + 50}, in...)
	for name, b := range backends {
		if _, err := b.FilterIDs(ctx, withGone, filters[0]); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("%s: missing candidate err = %v, want ErrNotFound", name, err)
		}
	}
}
