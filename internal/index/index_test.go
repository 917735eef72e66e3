package index

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geo"
	"repro/internal/vecmath"
)

func randRect(rng *rand.Rand) geo.Rect {
	lat := 34 + rng.Float64()*0.2
	lon := -118.4 + rng.Float64()*0.2
	return geo.Rect{
		MinLat: lat, MinLon: lon,
		MaxLat: lat + rng.Float64()*0.01, MaxLon: lon + rng.Float64()*0.01,
	}
}

func buildRTree(t testing.TB, n int, seed int64) (*RTree, []SpatialItem) {
	t.Helper()
	tr, err := NewRTree(DefaultRTreeConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	items := make([]SpatialItem, n)
	for i := range items {
		items[i] = SpatialItem{ID: uint64(i), Rect: randRect(rng)}
		if err := tr.Insert(items[i]); err != nil {
			t.Fatal(err)
		}
	}
	return tr, items
}

func idSet(ids []uint64) map[uint64]bool {
	m := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func TestNewRTreeValidation(t *testing.T) {
	if _, err := NewRTree(RTreeConfig{MaxEntries: 2}); err == nil {
		t.Fatal("tiny M accepted")
	}
	if _, err := NewRTree(RTreeConfig{MaxEntries: 8, MinEntries: 7}); err == nil {
		t.Fatal("m > M/2 accepted")
	}
	tr, err := NewRTree(RTreeConfig{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tr.size != 0 || tr.Depth() != 1 {
		t.Fatal("empty tree shape wrong")
	}
}

func TestRTreeMatchesLinearScan(t *testing.T) {
	tr, items := buildRTree(t, 500, 1)
	scan := NewLinearScan()
	for _, it := range items {
		scan.Insert(it)
	}
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 50; q++ {
		query := randRect(rng)
		query.MaxLat += 0.02
		query.MaxLon += 0.02
		got := idSet(tr.SearchRect(query))
		want := idSet(scan.SearchRect(query))
		if len(got) != len(want) {
			t.Fatalf("query %d: rtree %d hits, scan %d", q, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("query %d: missing id %d", q, id)
			}
		}
	}
}

func TestRTreeGrowsAndBalances(t *testing.T) {
	tr, _ := buildRTree(t, 2000, 3)
	if tr.size != 2000 {
		t.Fatalf("len = %d", tr.size)
	}
	if d := tr.Depth(); d < 2 || d > 6 {
		t.Fatalf("depth = %d for 2000 items", d)
	}
}

func TestRTreeInsertInvalidRect(t *testing.T) {
	tr, _ := buildRTree(t, 1, 1)
	bad := geo.Rect{MinLat: 2, MaxLat: 1}
	if err := tr.Insert(SpatialItem{ID: 9, Rect: bad}); err == nil {
		t.Fatal("invalid rect accepted")
	}
}

func TestRTreeNearestK(t *testing.T) {
	tr, items := buildRTree(t, 300, 4)
	p := geo.Point{Lat: 34.1, Lon: -118.3}
	got := tr.NearestK(p, 10)
	if len(got) != 10 {
		t.Fatalf("NearestK returned %d", len(got))
	}
	// Verify against exhaustive ordering.
	type di struct {
		id uint64
		d  float64
	}
	all := make([]di, len(items))
	for i, it := range items {
		all[i] = di{id: it.ID, d: geo.DistancePointRect(p, it.Rect)}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
	wantSet := map[uint64]bool{}
	// Allow ties at the boundary: collect distances.
	kth := all[9].d
	for _, e := range all {
		if e.d <= kth+1e-9 {
			wantSet[e.id] = true
		}
	}
	for _, id := range got {
		if !wantSet[id] {
			t.Fatalf("NearestK returned non-near id %d", id)
		}
	}
	// Results are distance-ordered.
	distOf := map[uint64]float64{}
	for _, e := range all {
		distOf[e.id] = e.d
	}
	for i := 1; i < len(got); i++ {
		if distOf[got[i]] < distOf[got[i-1]]-1e-9 {
			t.Fatal("NearestK not distance ordered")
		}
	}
	if got := tr.NearestK(p, 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
	if got := tr.NearestK(p, 1000); len(got) != 300 {
		t.Fatalf("k>n returned %d", len(got))
	}
}

func TestRTreeDelete(t *testing.T) {
	tr, items := buildRTree(t, 100, 5)
	victim := items[37]
	if err := tr.Delete(victim.ID, victim.Rect); err != nil {
		t.Fatal(err)
	}
	if tr.size != 99 {
		t.Fatalf("len after delete = %d", tr.size)
	}
	for _, id := range tr.SearchRect(victim.Rect) {
		if id == victim.ID {
			t.Fatal("deleted item still found")
		}
	}
	if err := tr.Delete(victim.ID, victim.Rect); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestRTreeSearchContainmentProperty(t *testing.T) {
	// Property: every inserted item is findable by its own rect.
	f := func(seed int64) bool {
		tr, items := buildRTree(t, 64, seed)
		for _, it := range items {
			found := false
			for _, id := range tr.SearchRect(it.Rect) {
				if id == it.ID {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGridMatchesScan(t *testing.T) {
	bounds := geo.Rect{MinLat: 33.9, MinLon: -118.5, MaxLat: 34.3, MaxLon: -118.0}
	g, err := NewGrid(bounds, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	scan := NewLinearScan()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 400; i++ {
		it := SpatialItem{ID: uint64(i), Rect: randRect(rng)}
		if err := g.Insert(it); err != nil {
			t.Fatal(err)
		}
		scan.Insert(it)
	}
	for q := 0; q < 30; q++ {
		query := randRect(rng)
		query.MaxLat += 0.05
		query.MaxLon += 0.05
		got := idSet(g.SearchRect(query))
		want := idSet(scan.SearchRect(query))
		if len(got) != len(want) {
			t.Fatalf("grid %d hits, scan %d", len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("grid missing %d", id)
			}
		}
	}
}

func TestGridValidation(t *testing.T) {
	bounds := geo.Rect{MinLat: 0, MinLon: 0, MaxLat: 1, MaxLon: 1}
	if _, err := NewGrid(bounds, 0, 5); err == nil {
		t.Fatal("zero rows accepted")
	}
	if _, err := NewGrid(geo.Rect{}, 5, 5); err == nil {
		t.Fatal("degenerate bounds accepted")
	}
	g, _ := NewGrid(bounds, 4, 4)
	outside := SpatialItem{ID: 1, Rect: geo.Rect{MinLat: 5, MinLon: 5, MaxLat: 6, MaxLon: 6}}
	if err := g.Insert(outside); err == nil {
		t.Fatal("outside insert accepted")
	}
	if got := g.SearchRect(outside.Rect); got != nil {
		t.Fatal("outside query should be empty")
	}
}

func randVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestLSHFindsNearDuplicates(t *testing.T) {
	const dim = 16
	l, err := NewLSH(dim, DefaultLSHConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	base := randVec(rng, dim)
	// id 0 is a near-duplicate of the query; the rest are random.
	if err := l.Insert(0, base); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 200; i++ {
		if err := l.Insert(uint64(i), randVec(rng, dim)); err != nil {
			t.Fatal(err)
		}
	}
	q := append([]float64(nil), base...)
	q[0] += 0.01
	got, err := l.TopK(context.Background(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("near-duplicate not found: %+v", got)
	}
}

func TestLSHRecallVsExact(t *testing.T) {
	const dim = 16
	l, err := NewLSH(dim, DefaultLSHConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	// Clustered data: LSH recall is meaningful when neighbours are near.
	for i := 0; i < 500; i++ {
		center := float64(i % 10)
		v := make([]float64, dim)
		for j := range v {
			v[j] = center + rng.NormFloat64()*0.2
		}
		if err := l.Insert(uint64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	hits, total := 0, 0
	for trial := 0; trial < 20; trial++ {
		q := make([]float64, dim)
		c := float64(trial % 10)
		for j := range q {
			q[j] = c + rng.NormFloat64()*0.2
		}
		exact, _ := l.ExactTopK(context.Background(), q, 10)
		approx, _ := l.TopK(context.Background(), q, 10)
		aset := map[uint64]bool{}
		for _, m := range approx {
			aset[m.ID] = true
		}
		for _, m := range exact {
			total++
			if aset[m.ID] {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(total)
	if recall < 0.7 {
		t.Fatalf("LSH recall = %.2f, want >= 0.7", recall)
	}
}

func TestLSHWithinRadius(t *testing.T) {
	l, _ := NewLSH(4, DefaultLSHConfig(3))
	_ = l.Insert(1, []float64{0, 0, 0, 0})
	_ = l.Insert(2, []float64{0.1, 0, 0, 0})
	_ = l.Insert(3, []float64{10, 10, 10, 10})
	got, err := l.WithinRadius(context.Background(), []float64{0, 0, 0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	set := map[uint64]bool{}
	for _, m := range got {
		set[m.ID] = true
		if m.Dist > 1 {
			t.Fatalf("match outside radius: %+v", m)
		}
	}
	if !set[1] || !set[2] || set[3] {
		t.Fatalf("radius results = %+v", got)
	}
}

// TestLSHTopKExactOnSmallIndex: an index holding no more rows than the
// re-rank shortlist answers top-k exactly. On these six unit-spaced 4-d
// rows the bucketed path used to drop row 4 from row 6's top-3.
func TestLSHTopKExactOnSmallIndex(t *testing.T) {
	ctx := context.Background()
	l, err := NewLSH(4, DefaultLSHConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := l.TopK(ctx, []float64{0, 1, 2, 3}, 3); got != nil || err != nil {
		t.Fatalf("empty index: %v, %v", got, err)
	}
	for id := uint64(1); id <= 6; id++ {
		if err := l.Insert(id, []float64{float64(id - 1), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(1); id <= 6; id++ {
		q := l.vectors[id]
		got, err := l.TopK(ctx, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := l.ExactTopK(ctx, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("row %d: top-3 %v, exact %v", id, got, want)
		}
		for i := range want {
			if got[i].ID != want[i].ID || math.Abs(got[i].Dist-want[i].Dist) > 1e-12 {
				t.Fatalf("row %d: top-3 %v, exact %v", id, got, want)
			}
		}
	}
}

func TestLSHRemoveAndReplace(t *testing.T) {
	l, _ := NewLSH(4, DefaultLSHConfig(4))
	_ = l.Insert(1, []float64{1, 2, 3, 4})
	if len(l.vectors) != 1 {
		t.Fatal("len after insert")
	}
	// Replacing moves the vector.
	_ = l.Insert(1, []float64{5, 6, 7, 8})
	if len(l.vectors) != 1 {
		t.Fatalf("len after replace = %d", len(l.vectors))
	}
	got, _ := l.ExactTopK(context.Background(), []float64{5, 6, 7, 8}, 1)
	if got[0].Dist != 0 {
		t.Fatal("replacement vector not stored")
	}
	l.Remove(1)
	if len(l.vectors) != 0 {
		t.Fatal("remove failed")
	}
	l.Remove(42) // no-op
}

func TestLSHValidation(t *testing.T) {
	if _, err := NewLSH(0, DefaultLSHConfig(1)); err == nil {
		t.Fatal("dim 0 accepted")
	}
	if _, err := NewLSH(4, LSHConfig{Tables: 0, Hashes: 1, W: 1}); err == nil {
		t.Fatal("0 tables accepted")
	}
	l, _ := NewLSH(4, DefaultLSHConfig(1))
	if err := l.Insert(1, []float64{1}); err == nil {
		t.Fatal("wrong dim insert accepted")
	}
	if _, err := l.TopK(context.Background(), []float64{1}, 3); err == nil {
		t.Fatal("wrong dim query accepted")
	}
	if got, err := l.TopK(context.Background(), []float64{1, 2, 3, 4}, 0); err != nil || got != nil {
		t.Fatal("k=0 should be empty, nil error")
	}
}

func TestInvertedBasics(t *testing.T) {
	ix := NewInverted()
	ix.Add(1, []string{"tent", "homeless"})
	ix.Add(2, []string{"trash", "bags"})
	ix.Add(3, []string{"tent", "trash"})
	if len(ix.docLens) != 3 || len(ix.postings) != 4 {
		t.Fatalf("docs=%d terms=%d", len(ix.docLens), len(ix.postings))
	}
	got := ix.SearchAny([]string{"tent"})
	set := idSet(matchIDs(got))
	if !set[1] || !set[3] || set[2] {
		t.Fatalf("tent search = %+v", got)
	}
	// Conjunctive.
	all := ix.SearchAll([]string{"tent", "trash"})
	if len(all) != 1 || all[0].ID != 3 {
		t.Fatalf("SearchAll = %+v", all)
	}
	if got := ix.SearchAll(nil); got != nil {
		t.Fatal("empty conjunctive query should be nil")
	}
	if got := ix.SearchAny([]string{"nonexistent"}); len(got) != 0 {
		t.Fatal("unknown term matched")
	}
}

func matchIDs(ms []Match) []uint64 {
	out := make([]uint64, len(ms))
	for i, m := range ms {
		out[i] = m.ID
	}
	return out
}

func TestInvertedTFIDFRanking(t *testing.T) {
	ix := NewInverted()
	// "rare" appears in one doc; "common" in all.
	ix.Add(1, []string{"rare", "common"})
	ix.Add(2, []string{"common"})
	ix.Add(3, []string{"common"})
	got := ix.SearchAny([]string{"rare", "common"})
	if got[0].ID != 1 {
		t.Fatalf("rare-term doc should rank first: %+v", got)
	}
}

func TestInvertedCaseInsensitive(t *testing.T) {
	ix := NewInverted()
	ix.Add(1, []string{"Illegal", "Dumping", "near", "5th", "St"})
	got := ix.SearchAny([]string{"DUMPING"})
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("case-insensitive search failed: %+v", got)
	}
}

func TestInvertedRemove(t *testing.T) {
	ix := NewInverted()
	ix.Add(1, []string{"tent"})
	ix.Add(2, []string{"tent"})
	ix.Remove(1)
	if len(ix.docLens) != 1 {
		t.Fatalf("docs = %d", len(ix.docLens))
	}
	got := ix.SearchAny([]string{"tent"})
	if len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("post-remove search = %+v", got)
	}
	ix.Remove(99) // no-op
}

func TestTemporalRange(t *testing.T) {
	ix := NewTemporal()
	base := time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		ix.Insert(uint64(i), base.Add(time.Duration(i)*time.Hour))
	}
	got := ix.Range(base.Add(2*time.Hour), base.Add(5*time.Hour))
	if len(got) != 4 || got[0] != 2 || got[3] != 5 {
		t.Fatalf("range = %v", got)
	}
	if got := ix.Range(base.Add(5*time.Hour), base.Add(2*time.Hour)); got != nil {
		t.Fatal("inverted range should be nil")
	}
	// Inclusive bounds.
	got = ix.Range(base, base)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("inclusive range = %v", got)
	}
}

func TestTemporalOutOfOrderInsert(t *testing.T) {
	ix := NewTemporal()
	base := time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)
	ix.Insert(2, base.Add(2*time.Hour))
	ix.Insert(0, base)
	ix.Insert(1, base.Add(time.Hour))
	got := ix.Range(base, base.Add(3*time.Hour))
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("out-of-order range = %v", got)
	}
}

func TestTemporalRemove(t *testing.T) {
	ix := NewTemporal()
	base := time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		ix.Insert(uint64(i), base.Add(time.Duration(i)*time.Minute))
	}
	ix.Remove(4, base.Add(4*time.Minute))
	got := ix.Range(base, base.Add(time.Hour))
	if len(got) != 4 || got[3] != 3 {
		t.Fatalf("range after remove = %v", got)
	}
	if len(ix.entries) != 4 {
		t.Fatalf("len = %d", len(ix.entries))
	}
	ix.Remove(4, base.Add(4*time.Minute)) // no-op
	if len(ix.entries) != 4 {
		t.Fatalf("len after repeated remove = %d", len(ix.entries))
	}
}

func TestHybridTreeMatchesBruteForce(t *testing.T) {
	const dim = 8
	ht, err := NewHybridTree(dim, DefaultRTreeConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	type rec struct {
		it HybridItem
	}
	var recs []rec
	for i := 0; i < 400; i++ {
		it := HybridItem{ID: uint64(i), Rect: randRect(rng), Vec: randVec(rng, dim)}
		if err := ht.Insert(it); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec{it})
	}
	if ht.size != 400 {
		t.Fatalf("len = %d", ht.size)
	}
	for trial := 0; trial < 15; trial++ {
		qr := randRect(rng)
		qr.MaxLat += 0.05
		qr.MaxLon += 0.05
		qv := randVec(rng, dim)
		got, err := ht.SearchSpatialVisual(context.Background(), qr, qv, 5)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force.
		var want []Match
		for _, r := range recs {
			if r.it.Rect.Intersects(qr) {
				want = append(want, Match{ID: r.it.ID, Dist: math.Sqrt(vecmath.SquaredL2(qv, r.it.Vec))})
			}
		}
		sortMatches(want)
		if len(want) > 5 {
			want = want[:5]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d matches, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("trial %d rank %d: got %d (%.4f), want %d (%.4f)",
					trial, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
			}
		}
	}
}

func TestHybridTreeSpatialOnly(t *testing.T) {
	const dim = 4
	ht, _ := NewHybridTree(dim, DefaultRTreeConfig())
	scan := NewLinearScan()
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 300; i++ {
		it := HybridItem{ID: uint64(i), Rect: randRect(rng), Vec: randVec(rng, dim)}
		_ = ht.Insert(it)
		scan.Insert(SpatialItem{ID: it.ID, Rect: it.Rect})
	}
	for q := 0; q < 20; q++ {
		query := randRect(rng)
		query.MaxLat += 0.03
		query.MaxLon += 0.03
		ms, err := ht.SearchSpatialVisual(context.Background(), query, randVec(rng, dim), 300)
		if err != nil {
			t.Fatal(err)
		}
		got := map[uint64]bool{}
		for _, m := range ms {
			got[m.ID] = true
		}
		want := idSet(scan.SearchRect(query))
		if len(got) != len(want) {
			t.Fatalf("hybrid %d hits vs scan %d", len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("hybrid missing %d", id)
			}
		}
	}
}

func TestHybridTreeValidation(t *testing.T) {
	if _, err := NewHybridTree(0, DefaultRTreeConfig()); err == nil {
		t.Fatal("dim 0 accepted")
	}
	if _, err := NewHybridTree(4, RTreeConfig{MaxEntries: 2}); err == nil {
		t.Fatal("tiny M accepted")
	}
	ht, _ := NewHybridTree(4, DefaultRTreeConfig())
	if err := ht.Insert(HybridItem{ID: 1, Rect: geo.Rect{}, Vec: []float64{1}}); err == nil {
		t.Fatal("wrong-dim vec accepted")
	}
	if _, err := ht.SearchSpatialVisual(context.Background(), geo.Rect{}, []float64{1}, 3); err == nil {
		t.Fatal("wrong-dim query accepted")
	}
	got, err := ht.SearchSpatialVisual(context.Background(), geo.Rect{MaxLat: 1, MaxLon: 1}, []float64{1, 2, 3, 4}, 3)
	if err != nil || got != nil {
		t.Fatal("empty tree query should be nil, nil")
	}
}

func TestTemporalRangeOrderedProperty(t *testing.T) {
	// However entries are inserted, Range output is time-ordered and
	// exactly the entries inside the window.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := NewTemporal()
		base := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
		type ent struct {
			id uint64
			at time.Time
		}
		n := 10 + rng.Intn(50)
		ents := make([]ent, n)
		for i := range ents {
			ents[i] = ent{id: uint64(i), at: base.Add(time.Duration(rng.Intn(10000)) * time.Second)}
			ix.Insert(ents[i].id, ents[i].at)
		}
		from := base.Add(time.Duration(rng.Intn(5000)) * time.Second)
		to := from.Add(time.Duration(rng.Intn(5000)) * time.Second)
		got := ix.Range(from, to)
		// Expected membership.
		want := map[uint64]bool{}
		for _, e := range ents {
			if !e.at.Before(from) && !e.at.After(to) {
				want[e.id] = true
			}
		}
		if len(got) != len(want) {
			return false
		}
		at := map[uint64]time.Time{}
		for _, e := range ents {
			at[e.id] = e.at
		}
		for i, id := range got {
			if !want[id] {
				return false
			}
			if i > 0 && at[got[i]].Before(at[got[i-1]]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInvertedAddRemoveInverseProperty(t *testing.T) {
	// Adding then removing a document restores prior query results.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := NewInverted()
		vocab := []string{"a", "b", "c", "d", "e"}
		for i := 0; i < 20; i++ {
			ix.Add(uint64(i), []string{vocab[rng.Intn(len(vocab))]})
		}
		term := vocab[rng.Intn(len(vocab))]
		before := matchIDs(ix.SearchAny([]string{term}))
		ix.Add(999, []string{term, "zzz"})
		ix.Remove(999)
		after := matchIDs(ix.SearchAny([]string{term}))
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return len(ix.docLens) == 20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLSHInsertFindsSelfProperty(t *testing.T) {
	// Every inserted vector is its own exact nearest neighbour through
	// the LSH path (self-bucket guarantee).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l, err := NewLSH(8, DefaultLSHConfig(seed))
		if err != nil {
			return false
		}
		vecs := make([][]float64, 30)
		for i := range vecs {
			vecs[i] = randVec(rng, 8)
			if err := l.Insert(uint64(i), vecs[i]); err != nil {
				return false
			}
		}
		for i, v := range vecs {
			got, err := l.TopK(context.Background(), v, 1)
			if err != nil || len(got) == 0 {
				return false
			}
			if got[0].Dist > 1e-12 && got[0].ID != uint64(i) {
				// A different vector may be identical only by collision;
				// with continuous gaussians that has probability zero.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Depth returns the height of the tree (1 for a root-only tree).
func (t *RTree) Depth() int {
	d := 1
	n := t.root
	for !n.leaf {
		d++
		n = n.children[0]
	}
	return d
}
