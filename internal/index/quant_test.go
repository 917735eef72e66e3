package index

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/vecmath"
)

// clusteredVecs draws vectors around a handful of centroids — the shape
// visual features actually have, and the regime where quantized
// shortlist selection has to preserve fine-grained ordering.
func clusteredVecs(rng *rand.Rand, n, dim, clusters int) [][]float64 {
	cents := make([][]float64, clusters)
	for c := range cents {
		v := make([]float64, dim)
		for d := range v {
			v[d] = rng.NormFloat64() * 10
		}
		cents[c] = v
	}
	out := make([][]float64, n)
	for i := range out {
		c := cents[i%clusters]
		v := make([]float64, dim)
		for d := range v {
			v[d] = c[d] + rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

// TestQuantTopKRecall pins the quantized full scan against the exact
// baseline: recall@10 must stay >= 0.9 and the returned distances must
// be true (rooted) distances matching the exact scan's on shared ids.
func TestQuantTopKRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, dim, k = 2000, 32, 10
	l, err := NewLSH(dim, DefaultLSHConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	vecs := clusteredVecs(rng, n, dim, 12)
	for i, v := range vecs {
		if err := l.Insert(uint64(i+1), v); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	totalRecall := 0.0
	const queries = 40
	for qi := 0; qi < queries; qi++ {
		q := vecs[rng.Intn(n)]
		exact, err := l.ExactTopK(ctx, q, k)
		if err != nil {
			t.Fatal(err)
		}
		quant, err := l.QuantTopK(ctx, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(quant) != len(exact) {
			t.Fatalf("query %d: quant returned %d, exact %d", qi, len(quant), len(exact))
		}
		want := make(map[uint64]float64, len(exact))
		for _, m := range exact {
			want[m.ID] = m.Dist
		}
		hits := 0
		for _, m := range quant {
			if d, ok := want[m.ID]; ok {
				hits++
				if diff := m.Dist - d; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("query %d id %d: quant dist %v != exact dist %v", qi, m.ID, m.Dist, d)
				}
			}
		}
		totalRecall += float64(hits) / float64(k)
	}
	if recall := totalRecall / queries; recall < 0.9 {
		t.Fatalf("quantized recall@%d = %.3f, want >= 0.9", k, recall)
	}
}

// TestWithinRadiusQuantPrefilterExact: the ErrBound-widened prefilter
// must admit no false negatives — radius results must equal a
// full-precision brute-force over the candidate set.
func TestWithinRadiusQuantPrefilterExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n, dim = 1500, 16
	l, err := NewLSH(dim, DefaultLSHConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	vecs := clusteredVecs(rng, n, dim, 8)
	for i, v := range vecs {
		if err := l.Insert(uint64(i+1), v); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		q := vecs[rng.Intn(n)]
		r := 2 + rng.Float64()*4
		got, err := l.WithinRadius(ctx, q, r)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force over the same candidate set the index probes.
		cands, err := l.candidates(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		r2 := r * r
		want := 0
		for id := range cands {
			if vecSquaredL2(q, l.vectors[id]) <= r2 {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("trial %d r=%.2f: got %d matches, brute force %d", trial, r, len(got), want)
		}
		for i := 0; i < len(got); i++ {
			if got[i].Dist > r {
				t.Fatalf("trial %d: match %d at dist %v beyond radius %v", trial, got[i].ID, got[i].Dist, r)
			}
			if i > 0 && (got[i].Dist < got[i-1].Dist ||
				(got[i].Dist == got[i-1].Dist && got[i].ID < got[i-1].ID)) {
				t.Fatalf("trial %d: results out of order at %d", trial, i)
			}
		}
	}
}

// vecSquaredL2 is a scalar reference used only by tests in this package.
func vecSquaredL2(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// TestQuantRetrainOnDrift: inserts far outside the trained range must
// retrain the quantizer (Covers goes true again) and keep search usable.
func TestQuantRetrainOnDrift(t *testing.T) {
	l, err := NewLSH(4, DefaultLSHConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		v := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		if err := l.Insert(uint64(i+1), v); err != nil {
			t.Fatal(err)
		}
	}
	// A vector three orders of magnitude outside the trained range.
	far := []float64{1000, -1000, 1000, -1000}
	if err := l.Insert(9999, far); err != nil {
		t.Fatal(err)
	}
	if !l.quantizer.Covers(far) {
		t.Fatal("quantizer not retrained to cover drifted insert")
	}
	got, err := l.QuantTopK(context.Background(), far, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 9999 || got[0].Dist > 1e-6 {
		t.Fatalf("drifted vector not its own nearest neighbour: %+v", got)
	}
}

// TestQuantSlabSwapDelete pins the code-slab swap-delete bookkeeping:
// removing a row moves the last row into its slot, and every map/slab
// structure must agree afterwards. A stale slabPos entry (or a missed
// row copy) makes the quantized scan attribute the swapped-in vector's
// distance to the wrong ID — exactly the corruption this test would
// catch.
func TestQuantSlabSwapDelete(t *testing.T) {
	const dim = 8
	rng := rand.New(rand.NewSource(11))
	l, err := NewLSH(dim, DefaultLSHConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	vecs := clusteredVecs(rng, 32, dim, 4)
	for i, v := range vecs {
		if err := l.Insert(uint64(i+1), v); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()

	check := func(deletedID, swappedID uint64) {
		t.Helper()
		// The swapped-in row's own vector must still find its ID at ~zero
		// distance via the quantized scan (it reads the slab row the
		// delete rewrote).
		got, err := l.QuantTopK(ctx, vecs[swappedID-1], 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || got[0].ID != swappedID {
			t.Fatalf("after deleting %d, quant scan lost swapped-in row %d: %v", deletedID, swappedID, got)
		}
		if got[0].Dist > 1 {
			t.Fatalf("swapped-in row %d scored distance %v against its own vector; slab row corrupt", swappedID, got[0].Dist)
		}
		// The deleted ID must be gone from every quantized result.
		all, err := l.QuantTopK(ctx, vecs[deletedID-1], len(vecs))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range all {
			if m.ID == deletedID {
				t.Fatalf("deleted ID %d still surfaces in the quantized scan", deletedID)
			}
		}
	}

	// Delete the first slab row: the last row (ID 32) swaps into slot 0.
	l.Remove(1)
	check(1, 32)
	// Delete the row that was just swapped into the middle of the slab.
	l.Remove(32)
	check(32, 31)
	// Delete the current last row (no swap happens; pure truncation).
	l.Remove(30)
	check(30, 29)
	// Drain everything; the slab must empty cleanly.
	for id := uint64(2); id <= 29; id++ {
		l.Remove(id)
	}
	l.Remove(31)
	if got, err := l.QuantTopK(ctx, vecs[0], 5); err != nil || len(got) != 0 {
		t.Fatalf("drained index returned %v (err %v)", got, err)
	}
	if len(l.slab) != 0 || len(l.slabIDs) != 0 || len(l.slabPos) != 0 {
		t.Fatalf("slab not empty after drain: %d codes, %d ids, %d positions",
			len(l.slab), len(l.slabIDs), len(l.slabPos))
	}
}

// histogramVecs draws L1-normalised histograms — the shape of the real
// color_hist feature, whose pairwise distances sit far below the LSH
// bucket width, so every vector shares one bucket.
func histogramVecs(rng *rand.Rand, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		sum := 0.0
		for d := range v {
			x := rng.Float64()
			v[d] = x * x * x
			sum += v[d]
		}
		for d := range v {
			v[d] /= sum
		}
		out[i] = v
	}
	return out
}

// unboundedTopK is the reference the bounded scans must reproduce: the
// same shortlist selection and re-rank over ids, with every quantized
// distance summed in full.
func unboundedTopK(t *testing.T, l *LSH, q []float64, k int, ids []uint64) []Match {
	t.Helper()
	lut, err := l.quantizer.Table(q)
	if err != nil {
		t.Fatal(err)
	}
	sel := newTopSelector(shortlistSize(k))
	for _, id := range ids {
		sel.offer(Match{ID: id, Dist: vecmath.SquaredL2Int8(l.row(l.slabPos[id]), lut)})
	}
	out, err := l.rerank(context.Background(), q, sel.results(), k)
	if err != nil {
		t.Fatal(err)
	}
	finalizeMatches(out)
	return out
}

// TestBoundedScansMatchUnbounded pins the early-exit scans to their
// unbounded reference, bit for bit, on a clustered corpus (where the
// bound prunes most rows) and on L1-normalised histograms (where the LSH
// probe degenerates to a full scan).
func TestBoundedScansMatchUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const dim, k, queries = 50, 10, 64
	corpora := map[string][][]float64{
		"clustered": clusteredVecs(rng, 3000, dim, 64),
		"histogram": histogramVecs(rng, 1500, dim),
	}
	ctx := context.Background()
	for name, vecs := range corpora {
		l, err := NewLSH(dim, DefaultLSHConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vecs {
			if err := l.Insert(uint64(i+1), v); err != nil {
				t.Fatal(err)
			}
		}
		for qi := 0; qi < queries; qi++ {
			q := append([]float64(nil), vecs[rng.Intn(len(vecs))]...)
			for d := range q {
				q[d] += rng.NormFloat64() * 0.01 * q[d]
			}
			got, err := l.QuantTopK(ctx, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if want := unboundedTopK(t, l, q, k, l.slabIDs); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s query %d: QuantTopK %v, unbounded %v", name, qi, got, want)
			}
			cands, err := l.candidates(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]uint64, 0, len(cands))
			for id := range cands {
				ids = append(ids, id)
			}
			got, err = l.TopK(ctx, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) == 0 {
				if len(got) != 0 {
					t.Fatalf("%s query %d: TopK %v from an empty candidate set", name, qi, got)
				}
				continue
			}
			if want := unboundedTopK(t, l, q, k, ids); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s query %d: TopK %v, unbounded %v", name, qi, got, want)
			}
		}
	}
}

// TestLSHBucketKeyPartition pins the fixed-width binary bucket key to the
// partition of the formatted "h0|h1|…|" key it replaced: two vectors
// share a bucket under one encoding exactly when they share it under the
// other, so candidates and results are unchanged.
func TestLSHBucketKeyPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	l, err := NewLSH(8, DefaultLSHConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	vecs := clusteredVecs(rng, 500, 8, 5)
	for tb := range l.tables {
		toNew := map[string]string{}
		toOld := map[string]string{}
		for _, v := range vecs {
			var sb strings.Builder
			for h := 0; h < l.cfg.Hashes; h++ {
				dot := l.offsets[tb][h] + vecmath.Dot(l.proj[tb][h], v)
				fmt.Fprintf(&sb, "%d|", int(math.Floor(dot/l.cfg.W)))
			}
			oldKey, newKey := sb.String(), string(l.appendKey(nil, tb, v))
			if k, ok := toNew[oldKey]; ok && k != newKey {
				t.Fatalf("table %d: one formatted key maps to two binary keys", tb)
			}
			if k, ok := toOld[newKey]; ok && k != oldKey {
				t.Fatalf("table %d: one binary key maps to two formatted keys", tb)
			}
			toNew[oldKey], toOld[newKey] = newKey, oldKey
		}
		if len(toNew) == len(vecs) {
			t.Fatalf("table %d: every vector in its own bucket; the check proves nothing", tb)
		}
	}
}
