package quant

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vecmath"
)

func randVecs(rng *rand.Rand, n, dim int) [][]float64 {
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, dim)
		for d := range v {
			v[d] = rng.NormFloat64()*3 + float64(d)
		}
		vecs[i] = v
	}
	return vecs
}

// TestRoundTripErrorBounded: every trained vector reconstructs within
// Step[d]/2 per dimension and within ErrBound() in L2.
func TestRoundTripErrorBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vecs := randVecs(rng, 200, 17)
	s, err := Train(vecs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	bound := s.ErrBound()
	for _, v := range vecs {
		if !s.Covers(v) {
			t.Fatalf("trained vector not covered: %v", v)
		}
		codes, err := s.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := s.Decode(codes)
		if err != nil {
			t.Fatal(err)
		}
		for d := range v {
			if e := math.Abs(v[d] - rec[d]); e > s.Step[d]/2+1e-12 {
				t.Fatalf("dim %d error %v exceeds half step %v", d, e, s.Step[d]/2)
			}
		}
		if e := math.Sqrt(vecmath.SquaredL2(v, rec)); e > bound+1e-12 {
			t.Fatalf("L2 reconstruction error %v exceeds ErrBound %v", e, bound)
		}
	}
}

// TestTableMatchesDecodedDistance: the ADC table path must equal the
// plain squared distance between the query and the decoded code — the
// identity the shortlist selection and radius prefilter both rely on.
func TestTableMatchesDecodedDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vecs := randVecs(rng, 100, 24)
	s, err := Train(vecs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, 24)
	for d := range q {
		q[d] = rng.NormFloat64()*3 + float64(d)
	}
	lut, err := s.Table(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vecs {
		codes, _ := s.Encode(v)
		rec, _ := s.Decode(codes)
		adc := vecmath.SquaredL2Int8(codes, lut)
		want := vecmath.SquaredL2(q, rec)
		if math.Abs(adc-want) > 1e-9*(1+want) {
			t.Fatalf("ADC %v != decoded distance %v", adc, want)
		}
	}
}

// TestCoversAndClamping: out-of-range vectors are reported uncovered and
// encode to edge cells rather than wrapping.
func TestCoversAndClamping(t *testing.T) {
	s, err := Train([][]float64{{0, 0}, {1, 10}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Covers([]float64{2, 5}) {
		t.Fatal("out-of-range vector reported covered")
	}
	if s.Covers([]float64{0.5}) {
		t.Fatal("wrong-dim vector reported covered")
	}
	codes, err := s.Encode([]float64{100, -100})
	if err != nil {
		t.Fatal(err)
	}
	if codes[0] != 127 || codes[1] != -128 {
		t.Fatalf("expected edge-cell clamps, got %v", codes)
	}
}

// TestConstantDimension: a dimension with zero spread must still train a
// positive step and reconstruct near-exactly.
func TestConstantDimension(t *testing.T) {
	s, err := Train([][]float64{{5, 1}, {5, 2}, {5, 3}}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Step[0] <= 0 {
		t.Fatalf("constant dimension trained non-positive step %v", s.Step[0])
	}
	codes, _ := s.Encode([]float64{5, 2})
	rec, _ := s.Decode(codes)
	if math.Abs(rec[0]-5) > 1e-6 {
		t.Fatalf("constant dimension reconstructed %v, want ~5", rec[0])
	}
}

// TestTrainErrors: empty input and ragged dimensions are rejected.
func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, 0); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := Train([][]float64{{1, 2}, {3}}, 0); err == nil {
		t.Fatal("ragged training set accepted")
	}
}

// Decode reconstructs the cell-centre vector of a code.
func (s *Scalar) Decode(codes []int8) ([]float64, error) {
	if len(codes) != len(s.Min) {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(codes), len(s.Min))
	}
	v := make([]float64, len(codes))
	for d, c := range codes {
		v[d] = s.reconstruct(d, int(c)+128)
	}
	return v, nil
}

// reconstruct returns the centre of dimension d's cell for level l.
func (s *Scalar) reconstruct(d, l int) float64 {
	return s.Min[d] + (float64(l)+0.5)*s.Step[d]
}
