package index

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/quant"
	"repro/internal/vecmath"
)

// scanCheckpoint is the cancellation-poll cadence of the candidate-scan
// loops: ctx.Err is consulted once per this many candidate distances, so
// a cancelled search returns within one checkpoint grain of work.
const scanCheckpoint = 256

// quantHeadroom widens the quantizer's trained range by this fraction of
// the observed per-dimension spread on both sides, so inserts that drift
// slightly past the seen data don't force a retrain. Each retrain covers
// the then-current data plus headroom again, which keeps retrain
// frequency logarithmic in range growth rather than per-insert.
const quantHeadroom = 0.25

// rerankAlpha and rerankFloor size the exact re-rank shortlist: the
// quantized scan keeps the best k·rerankAlpha (at least rerankFloor)
// candidates by asymmetric distance, and only those are re-scored at
// full precision. The shortlist margin absorbs quantization error in the
// ordering near the cut, so the final top-k matches the full-precision
// top-k in practice (TestQuantScanKeepsFig6Quality pins ≥ 0.9 recall@10).
const (
	rerankAlpha = 4
	rerankFloor = 32
)

// LSH is a locality-sensitive hash index for Euclidean (L2) similarity
// over feature vectors, using p-stable (Gaussian) projections (Datar et
// al., SoCG 2004) — the visual-query index of the paper's §IV-C.
//
// Alongside the full-precision vectors the index maintains an int8
// quantized twin of every vector (internal/quant): candidate scans run
// over the 8×-smaller codes via asymmetric distance tables, and only the
// final shortlist is re-ranked against the float64 vectors.
type LSH struct {
	cfg LSHConfig
	dim int
	// tables[t][bucketKey] -> ids
	tables []map[string][]uint64
	// proj[t][h] is one projection vector; offsets[t][h] its bias.
	proj    [][][]float64
	offsets [][]float64
	// vectors retains indexed data for exact re-ranking.
	vectors map[uint64][]float64
	// The int8 quantized twins live in one contiguous slab (row i is
	// slabIDs[i]'s codes, dim bytes each) rather than a map of slices:
	// the quantized scan is a sequential walk over 1/8th the memory of
	// the float vectors, with no per-candidate pointer chase — which is
	// where its speed advantage over the exact scan comes from. slabPos
	// maps id -> row for the bucketed (non-sequential) lookups; Remove
	// swap-deletes rows to keep the slab dense. quantizer covers every
	// indexed vector (retrained with fresh headroom whenever an insert
	// falls outside the trained range).
	slab      []int8
	slabIDs   []uint64
	slabPos   map[uint64]int
	quantizer *quant.Scalar
	// lutPool recycles per-query asymmetric-distance tables (256·dim
	// float64s — allocating one per query is the read path's largest
	// per-op allocation and shows up as GC tail latency at serving
	// rates). Concurrent readers each Get their own buffer.
	lutPool sync.Pool
}

// LSHConfig sizes the hash family.
type LSHConfig struct {
	// Tables is the number of independent hash tables L.
	Tables int
	// Hashes is the number of concatenated hash functions per table k.
	Hashes int
	// W is the quantisation bucket width of each projection.
	W float64
	// Seed drives projection sampling.
	Seed int64
}

// DefaultLSHConfig returns L=8 tables of k=6 hashes with W=4.
func DefaultLSHConfig(seed int64) LSHConfig {
	return LSHConfig{Tables: 8, Hashes: 6, W: 4, Seed: seed}
}

// NewLSH returns an empty index over dim-dimensional vectors.
func NewLSH(dim int, cfg LSHConfig) (*LSH, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("%w: dim %d", ErrBadConfig, dim)
	}
	if cfg.Tables <= 0 || cfg.Hashes <= 0 || cfg.W <= 0 {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	l := &LSH{
		cfg:     cfg,
		dim:     dim,
		tables:  make([]map[string][]uint64, cfg.Tables),
		proj:    make([][][]float64, cfg.Tables),
		offsets: make([][]float64, cfg.Tables),
		vectors: make(map[uint64][]float64),
		slabPos: make(map[uint64]int),
	}
	l.lutPool.New = func() any { return make([]float64, 256*dim) }
	for t := 0; t < cfg.Tables; t++ {
		l.tables[t] = make(map[string][]uint64)
		l.proj[t] = make([][]float64, cfg.Hashes)
		l.offsets[t] = make([]float64, cfg.Hashes)
		for h := 0; h < cfg.Hashes; h++ {
			v := make([]float64, dim)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			l.proj[t][h] = v
			l.offsets[t][h] = rng.Float64() * cfg.W
		}
	}
	return l, nil
}

// keyBuf holds one bucket key without a heap allocation at the default
// Hashes (6 × 8 bytes); larger configurations grow it.
type keyBuf [64]byte

// appendKey appends table t's bucket key for x to buf: the tuple of
// floor(dot/W) over the table's hashes, each as a fixed-width 8-byte
// word, so equal tuples and only equal tuples give equal keys. Lookups
// index with m[string(key)], which Go compiles without allocating.
func (l *LSH) appendKey(buf []byte, t int, x []float64) []byte {
	for h := 0; h < l.cfg.Hashes; h++ {
		dot := l.offsets[t][h] + vecmath.Dot(l.proj[t][h], x)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(math.Floor(dot/l.cfg.W))))
	}
	return buf
}

// ErrDimMismatch reports a vector of the wrong length.
var ErrDimMismatch = errors.New("index: vector dimension mismatch")

// Insert adds (id, vec). Re-inserting an ID replaces its vector.
func (l *LSH) Insert(id uint64, vec []float64) error {
	if len(vec) != l.dim {
		return fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(vec), l.dim)
	}
	if _, ok := l.vectors[id]; ok {
		l.Remove(id)
	}
	cp := append([]float64(nil), vec...)
	l.vectors[id] = cp
	var kb keyBuf
	for t := range l.tables {
		k := l.appendKey(kb[:0], t, cp)
		l.tables[t][string(k)] = append(l.tables[t][string(k)], id)
	}
	return l.encode(id, cp)
}

// encode maintains the quantized twin of one freshly inserted vector,
// retraining the quantizer over the full data (plus headroom) whenever
// the vector escapes the trained range.
func (l *LSH) encode(id uint64, vec []float64) error {
	if l.quantizer == nil || !l.quantizer.Covers(vec) {
		return l.retrain()
	}
	codes, err := l.quantizer.Encode(vec)
	if err != nil {
		return err
	}
	l.appendRow(id, codes)
	return nil
}

// appendRow adds one code row to the slab. The id must not already have
// a row (Insert removes first on replacement).
func (l *LSH) appendRow(id uint64, codes []int8) {
	l.slabPos[id] = len(l.slabIDs)
	l.slabIDs = append(l.slabIDs, id)
	l.slab = append(l.slab, codes...)
}

// row returns the code row at slab position pos.
func (l *LSH) row(pos int) []int8 {
	return l.slab[pos*l.dim : (pos+1)*l.dim]
}

// retrain refits the quantizer to every indexed vector and re-encodes
// all codes. O(n·dim), amortised by quantHeadroom: each retrain covers a
// widened range, so a drifting stream triggers retrains at most
// logarithmically often in its total range growth. Order-independent —
// min/max fitting and per-id encoding don't depend on map iteration.
func (l *LSH) retrain() error {
	all := make([][]float64, 0, len(l.vectors))
	for _, v := range l.vectors {
		all = append(all, v)
	}
	qz, err := quant.Train(all, quantHeadroom)
	if err != nil {
		return err
	}
	l.quantizer = qz
	// Re-encode existing rows in place (slab order is irrelevant to
	// results — selection is under a total order), then append rows for
	// vectors not yet in the slab (the insert that triggered retrain).
	for i, id := range l.slabIDs {
		codes, err := qz.Encode(l.vectors[id])
		if err != nil {
			return err
		}
		copy(l.row(i), codes)
	}
	for id, v := range l.vectors {
		if _, ok := l.slabPos[id]; ok {
			continue
		}
		codes, err := qz.Encode(v)
		if err != nil {
			return err
		}
		l.appendRow(id, codes)
	}
	return nil
}

// Remove deletes an ID; absent IDs are a no-op.
func (l *LSH) Remove(id uint64) {
	vec, ok := l.vectors[id]
	if !ok {
		return
	}
	var kb keyBuf
	for t := range l.tables {
		k := l.appendKey(kb[:0], t, vec)
		bucket := l.tables[t][string(k)]
		for i, v := range bucket {
			if v == id {
				l.tables[t][string(k)] = append(bucket[:i], bucket[i+1:]...)
				break
			}
		}
		if len(l.tables[t][string(k)]) == 0 {
			delete(l.tables[t], string(k))
		}
	}
	delete(l.vectors, id)
	if pos, ok := l.slabPos[id]; ok {
		last := len(l.slabIDs) - 1
		if pos != last {
			lastID := l.slabIDs[last]
			copy(l.row(pos), l.row(last))
			l.slabIDs[pos] = lastID
			l.slabPos[lastID] = pos
		}
		l.slab = l.slab[:last*l.dim]
		l.slabIDs = l.slabIDs[:last]
		delete(l.slabPos, id)
	}
}

// candidates gathers the union of bucket contents across tables, checking
// for cancellation between tables (each table probe is one hash + one
// bucket append run; the boundary between them is the natural abort
// point).
func (l *LSH) candidates(ctx context.Context, q []float64) (map[uint64]bool, error) {
	set := make(map[uint64]bool)
	var kb keyBuf
	for t := range l.tables {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, id := range l.tables[t][string(l.appendKey(kb[:0], t, q))] {
			set[id] = true
		}
	}
	return set, nil
}

// shortlistSize is the exact-re-rank shortlist length for a top-k query.
func shortlistSize(k int) int {
	if s := k * rerankAlpha; s > rerankFloor {
		return s
	}
	return rerankFloor
}

// rerank re-scores the best shortlist entries of approx at full
// precision and returns the top k by true distance (still squared;
// callers finalize). approx must already be sorted ascending.
func (l *LSH) rerank(ctx context.Context, q []float64, approx []Match, k int) ([]Match, error) {
	if shortlist := shortlistSize(k); len(approx) > shortlist {
		approx = approx[:shortlist]
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := range approx {
		approx[i].Dist = vecmath.SquaredL2(q, l.vectors[approx[i].ID])
	}
	sortMatches(approx)
	if len(approx) > k {
		approx = approx[:k]
	}
	return approx, nil
}

// TopK returns up to k approximate nearest neighbours of q, ordered by
// ascending L2 distance: LSH buckets propose candidates, the quantized
// codes order them cheaply, and the top k·rerankAlpha shortlist is
// re-ranked at full precision (so the returned ordering is exact over
// the candidate set up to quantization error at the shortlist cut). A
// candidate's quantized distance is summed only until it passes the
// shortlist's current worst (vecmath.SquaredL2Int8Bound), so rows that
// cannot enter the shortlist cost part of a row. The scan honours ctx
// between hash tables and every scanCheckpoint candidates.
func (l *LSH) TopK(ctx context.Context, q []float64, k int) ([]Match, error) {
	if len(q) != l.dim {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(q), l.dim)
	}
	if k <= 0 {
		return nil, nil
	}
	// An index no larger than the shortlist fits in it whole: the full
	// quantized scan re-ranks every row at full precision, which is exact
	// where the buckets might miss a neighbour, and costs no more.
	if len(l.slabIDs) <= shortlistSize(k) {
		return l.QuantTopK(ctx, q, k)
	}
	cands, err := l.candidates(ctx, q)
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return nil, nil
	}
	lut := l.lutPool.Get().([]float64)
	defer l.lutPool.Put(lut)
	if err := l.quantizer.TableInto(lut, q); err != nil {
		return nil, err
	}
	sel := newTopSelector(shortlistSize(k))
	scanned := 0
	for id := range cands {
		if scanned%scanCheckpoint == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		scanned++
		// A sum past the bound would only be rejected by offer.
		bound := sel.bound()
		if d := vecmath.SquaredL2Int8Bound(l.row(l.slabPos[id]), lut, bound); d <= bound {
			sel.offer(Match{ID: id, Dist: d})
		}
	}
	out, err := l.rerank(ctx, q, sel.results(), k)
	if err != nil {
		return nil, err
	}
	finalizeMatches(out)
	return out, nil
}

// QuantTopK returns up to k approximate nearest neighbours of q by a
// full quantized scan over every indexed code (no LSH bucketing), with
// the usual full-precision shortlist re-rank. It is the cheap linear
// baseline of the quantized read path: same scan shape as ExactTopK but
// reading 1 byte per dimension instead of 8. Like TopK, it stops summing
// a row once the sum passes the shortlist's current worst distance
// (vecmath.SquaredL2Int8Bound), which leaves the shortlist unchanged.
func (l *LSH) QuantTopK(ctx context.Context, q []float64, k int) ([]Match, error) {
	if len(q) != l.dim {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(q), l.dim)
	}
	if k <= 0 || len(l.slabIDs) == 0 {
		return nil, nil
	}
	lut := l.lutPool.Get().([]float64)
	defer l.lutPool.Put(lut)
	if err := l.quantizer.TableInto(lut, q); err != nil {
		return nil, err
	}
	sel := newTopSelector(shortlistSize(k))
	for pos := range l.slabIDs {
		if pos%scanCheckpoint == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		bound := sel.bound()
		if d := vecmath.SquaredL2Int8Bound(l.row(pos), lut, bound); d <= bound {
			sel.offer(Match{ID: l.slabIDs[pos], Dist: d})
		}
	}
	out, err := l.rerank(ctx, q, sel.results(), k)
	if err != nil {
		return nil, err
	}
	finalizeMatches(out)
	return out, nil
}

// WithinRadius returns all candidates within L2 distance <= r of q,
// ordered by ascending distance (the threshold visual query of §IV-C).
// The quantized codes prefilter at radius r+ErrBound — no vector within
// r of q can have a reconstruction farther than that, so the prefilter
// admits no false negatives — and only survivors pay a full-precision
// distance, compared against r².
func (l *LSH) WithinRadius(ctx context.Context, q []float64, r float64) ([]Match, error) {
	if len(q) != l.dim {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(q), l.dim)
	}
	cands, err := l.candidates(ctx, q)
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return nil, nil
	}
	lut := l.lutPool.Get().([]float64)
	defer l.lutPool.Put(lut)
	if err := l.quantizer.TableInto(lut, q); err != nil {
		return nil, err
	}
	pre := r + l.quantizer.ErrBound()
	pre2 := pre * pre
	r2 := r * r
	var out []Match
	scanned := 0
	for id := range cands {
		if scanned%scanCheckpoint == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		scanned++
		if vecmath.SquaredL2Int8(l.row(l.slabPos[id]), lut) > pre2 {
			continue
		}
		if d2 := vecmath.SquaredL2(q, l.vectors[id]); d2 <= r2 {
			out = append(out, Match{ID: id, Dist: d2})
		}
	}
	sortMatches(out)
	finalizeMatches(out)
	return out, nil
}

// ExactTopK linearly scans every indexed vector at full precision — the
// ground-truth baseline the LSH ablation (bench A2) and the quantized
// recall test compare against. The scan honours ctx every scanCheckpoint
// vectors.
func (l *LSH) ExactTopK(ctx context.Context, q []float64, k int) ([]Match, error) {
	if len(q) != l.dim {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(q), l.dim)
	}
	if k <= 0 {
		return nil, nil
	}
	sel := newTopSelector(k)
	scanned := 0
	for id, v := range l.vectors {
		if scanned%scanCheckpoint == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		scanned++
		sel.offer(Match{ID: id, Dist: vecmath.SquaredL2(q, v)})
	}
	out := sel.results()
	finalizeMatches(out)
	return out, nil
}
