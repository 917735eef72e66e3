// Package quant implements scalar int8 quantization of feature vectors:
// each dimension d gets an independent uniform grid of 256 levels over
// [Min[d], Min[d]+256·Step[d]], a vector is stored as one byte per
// dimension, and reconstruction returns the centre of the level's cell.
// That cuts vector memory 8× against []float64 — a candidate scan over
// codes stays cache-resident at corpus sizes where the full-precision
// scan is memory-bound — while the per-dimension error stays bounded by
// Step[d]/2 for every in-range coordinate.
//
// Distances against codes are computed asymmetrically (the query stays
// full-precision): Table builds a per-query 256-entry lookup table per
// dimension of squared coordinate distances, and vecmath.SquaredL2Int8
// folds a code against it with one lookup+add per dimension, no
// dequantization and no multiplies. ErrBound converts the per-dimension
// cell radii into a single L2 bound, which is what lets radius queries
// prefilter on quantized distance without false negatives.
package quant

import (
	"errors"
	"fmt"
	"math"
)

// levels is the code alphabet size of one byte.
const levels = 256

// ErrNoVectors reports Train called with nothing to fit.
var ErrNoVectors = errors.New("quant: no vectors to train on")

// ErrDimMismatch reports a vector whose length disagrees with the
// quantizer's dimensionality.
var ErrDimMismatch = errors.New("quant: vector dimension mismatch")

// Scalar is a trained per-dimension min/max quantizer. Min and Step
// define each dimension's grid; both have length Dim.
type Scalar struct {
	Min  []float64
	Step []float64
}

// Train fits a quantizer to vecs: each dimension's grid covers the
// observed [lo, hi] range widened by headroom·(hi−lo) on both sides, so
// vectors drifting slightly outside the training distribution still
// encode without an immediate retrain. headroom < 0 is treated as 0.
func Train(vecs [][]float64, headroom float64) (*Scalar, error) {
	if len(vecs) == 0 {
		return nil, ErrNoVectors
	}
	dim := len(vecs[0])
	if dim == 0 {
		return nil, fmt.Errorf("%w: zero-dimensional vectors", ErrDimMismatch)
	}
	if headroom < 0 {
		headroom = 0
	}
	lo := append([]float64(nil), vecs[0]...)
	hi := append([]float64(nil), vecs[0]...)
	for _, v := range vecs[1:] {
		if len(v) != dim {
			return nil, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(v), dim)
		}
		for d, x := range v {
			if x < lo[d] {
				lo[d] = x
			}
			if x > hi[d] {
				hi[d] = x
			}
		}
	}
	s := &Scalar{Min: make([]float64, dim), Step: make([]float64, dim)}
	for d := range lo {
		span := hi[d] - lo[d]
		pad := headroom * span
		if span == 0 {
			// Constant dimension: give the grid a small symmetric width so
			// Step stays positive and the reconstruction error stays ~0.
			pad = 1e-9 + 1e-9*abs(lo[d])
		}
		s.Min[d] = lo[d] - pad
		s.Step[d] = (span + 2*pad) / levels
	}
	return s, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Covers reports whether every coordinate of v falls inside the trained
// grid. Out-of-range coordinates still encode (they clamp to the edge
// cells) but their reconstruction error is unbounded, so index owners
// retrain when Covers goes false.
func (s *Scalar) Covers(v []float64) bool {
	if len(v) != len(s.Min) {
		return false
	}
	for d, x := range v {
		if x < s.Min[d] || x > s.Min[d]+float64(levels)*s.Step[d] {
			return false
		}
	}
	return true
}

// Encode quantizes v into a fresh int8 code vector, clamping
// out-of-range coordinates to the edge cells.
func (s *Scalar) Encode(v []float64) ([]int8, error) {
	if len(v) != len(s.Min) {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(v), len(s.Min))
	}
	codes := make([]int8, len(v))
	for d, x := range v {
		l := int((x - s.Min[d]) / s.Step[d])
		if l < 0 {
			l = 0
		} else if l > levels-1 {
			l = levels - 1
		}
		codes[d] = int8(l - 128)
	}
	return codes, nil
}

// Table builds the per-query asymmetric-distance lookup table for q:
// entry d*256+l is the squared distance between q[d] and dimension d's
// reconstruction at level l, laid out so vecmath.SquaredL2Int8 indexes
// it with the code's biased byte. Summing the entries a code selects
// yields the exact squared L2 distance between q and the code's
// reconstruction.
func (s *Scalar) Table(q []float64) ([]float64, error) {
	lut := make([]float64, levels*len(s.Min))
	if err := s.TableInto(lut, q); err != nil {
		return nil, err
	}
	return lut, nil
}

// TableInto builds the lookup table into lut, which must have length
// 256·dim — the allocation-free variant scan loops use with a pooled
// buffer (the table is 2KB per dimension; allocating one per query is
// measurable GC pressure at serving rates). Every entry is overwritten.
func (s *Scalar) TableInto(lut []float64, q []float64) error {
	if len(q) != len(s.Min) {
		return fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(q), len(s.Min))
	}
	if len(lut) != levels*len(q) {
		return fmt.Errorf("%w: lut len %d, want %d", ErrDimMismatch, len(lut), levels*len(q))
	}
	for d, x := range q {
		base := s.Min[d] + 0.5*s.Step[d]
		row := lut[d*levels : (d+1)*levels]
		for l := range row {
			diff := x - (base + float64(l)*s.Step[d])
			row[l] = diff * diff
		}
	}
	return nil
}

// ErrBound returns the maximum L2 distance between any in-range vector
// and its reconstruction: each dimension errs by at most Step[d]/2, so
// the worst case is the root of the summed squared cell radii. For any
// in-range x, |d(q,x) − d(q,Decode(Encode(x)))| <= ErrBound() by the
// triangle inequality — the margin radius prefilters add to r.
func (s *Scalar) ErrBound() float64 {
	sum := 0.0
	for _, st := range s.Step {
		r := st / 2
		sum += r * r
	}
	return math.Sqrt(sum)
}
