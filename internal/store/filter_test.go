package store

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
)

// TestDuplicateAnnotationLinkedOnce pins the label index against repeated
// annotations: an image annotated three times with one (classification,
// label) is listed once by ImagesByLabel — live, after WAL replay, after
// a segment load — keeps every annotation row, and leaves the index
// entirely when deleted.
func TestDuplicateAnnotationLinkedOnce(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	cls, err := s.CreateClassification("c", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.AddImage(testImage(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	y, err := s.AddImage(testImage(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	anns := []Annotation{
		{ImageID: x, ClassificationID: cls, Label: 0, Confidence: 0.5},
		{ImageID: x, ClassificationID: cls, Label: 0, Confidence: 0.6},
		{ImageID: y, ClassificationID: cls, Label: 0, Confidence: 0.9},
		{ImageID: y, ClassificationID: cls, Label: 1, Confidence: 0.9},
		{ImageID: x, ClassificationID: cls, Label: 0, Confidence: 0.7},
	}
	for _, a := range anns {
		if err := s.Annotate(a); err != nil {
			t.Fatal(err)
		}
	}
	check := func(st *Store, stage string, label0 []uint64) {
		t.Helper()
		if got := st.ImagesByLabel(cls, 0); !reflect.DeepEqual(got, label0) {
			t.Fatalf("%s: label 0 = %v, want %v", stage, got, label0)
		}
		if got := st.ImagesByLabel(cls, 1); !reflect.DeepEqual(got, []uint64{y}) {
			t.Fatalf("%s: label 1 = %v, want [%d]", stage, got, y)
		}
	}
	check(s, "live", []uint64{x, y})
	if got := len(s.AnnotationsFor(x)); got != 3 {
		t.Fatalf("annotation rows for x = %d, want 3", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = diskStore(t, dir)
	check(s, "wal replay", []uint64{x, y})
	if err := s.Snapshot(); err != nil { // flush the memtable to a segment
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = diskStore(t, dir)
	check(s, "segment load", []uint64{x, y})
	if err := s.DeleteImage(x); err != nil {
		t.Fatal(err)
	}
	check(s, "after delete", []uint64{y})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = diskStore(t, dir)
	defer s.Close()
	check(s, "delete replayed", []uint64{y})
}

// TestFilterIDs pins each predicate of FilterIDs and the contract around
// them: input order kept, the input slice untouched, a missing candidate
// an error only where its image row is read.
func TestFilterIDs(t *testing.T) {
	s := memStore(t)
	ctx := context.Background()
	cls, err := s.CreateClassification("c", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for i := 0; i < 6; i++ {
		id, err := s.AddImage(testImage(t, float64(i*60)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if err := s.AddKeywords(id, []string{[]string{"Tent", "trash", "couch"}[i%3]}); err != nil {
			t.Fatal(err)
		}
		if err := s.Annotate(Annotation{ImageID: id, ClassificationID: cls, Label: i % 2, Confidence: float64(i) / 10}); err != nil {
			t.Fatal(err)
		}
	}
	// Reversed input: the output must follow it, not ID order.
	in := []uint64{ids[5], ids[4], ids[3], ids[2], ids[1], ids[0]}
	orig := append([]uint64(nil), in...)
	img0, err := s.Describe(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	at := func(i int) time.Time { return testImage(t, float64(i*60)).TimestampCapturing }
	cases := []struct {
		name string
		f    IDFilter
		want []uint64
	}{
		{"none", IDFilter{}, in},
		{"scene", IDFilter{Scene: &img0.Scene}, []uint64{ids[0]}},
		{"time", IDFilter{Time: &TimeRange{From: at(1), To: at(3)}}, []uint64{ids[3], ids[2], ids[1]}},
		{"label", IDFilter{Labels: []LabelFilter{{ClassificationID: cls, Label: 1}}}, []uint64{ids[5], ids[3], ids[1]}},
		{"label+conf", IDFilter{Labels: []LabelFilter{{ClassificationID: cls, Label: 1, MinConfidence: 0.3}}}, []uint64{ids[5], ids[3]}},
		{"two labels", IDFilter{Labels: []LabelFilter{{ClassificationID: cls, Label: 0}, {ClassificationID: cls, Label: 1}}}, nil},
		{"text any mixed case", IDFilter{Text: &TextFilter{Terms: []string{"tent", "COUCH"}}}, []uint64{ids[5], ids[3], ids[2], ids[0]}},
		{"text all", IDFilter{Text: &TextFilter{Terms: []string{"tent", "trash"}, MatchAll: true}}, nil},
		{"text all one", IDFilter{Text: &TextFilter{Terms: []string{"TRASH"}, MatchAll: true}}, []uint64{ids[4], ids[1]}},
		{"text empty", IDFilter{Text: &TextFilter{}}, nil},
		{"text empty term", IDFilter{Text: &TextFilter{Terms: []string{""}}}, nil},
		{"all", IDFilter{
			Time:   &TimeRange{From: at(0), To: at(4)},
			Labels: []LabelFilter{{ClassificationID: cls, Label: 0}},
			Text:   &TextFilter{Terms: []string{"trash", "tent"}},
		}, []uint64{ids[4], ids[0]}},
	}
	for _, c := range cases {
		got, err := s.FilterIDs(ctx, in, c.f)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(got) != len(c.want) || (len(got) > 0 && !reflect.DeepEqual(got, c.want)) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
	if !reflect.DeepEqual(in, orig) {
		t.Fatalf("FilterIDs modified its input: %v", in)
	}

	// A candidate that is gone: dropped by label and text predicates,
	// ErrNotFound from scene and time, which read its image row.
	gone := ids[5] + 100
	withGone := []uint64{ids[1], gone}
	got, err := s.FilterIDs(ctx, withGone, IDFilter{Text: &TextFilter{Terms: []string{"trash"}}})
	if err != nil || !reflect.DeepEqual(got, []uint64{ids[1]}) {
		t.Fatalf("text filter with a missing candidate: %v, %v", got, err)
	}
	everywhere := geo.NewRect(geo.Destination(la, 315, 5000), geo.Destination(la, 135, 5000))
	for _, f := range []IDFilter{{Scene: &everywhere}, {Time: &TimeRange{From: at(0), To: at(5)}}} {
		if _, err := s.FilterIDs(ctx, withGone, f); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%+v with a missing candidate: err = %v, want ErrNotFound", f, err)
		}
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.FilterIDs(cctx, in, IDFilter{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled: err = %v", err)
	}
}
