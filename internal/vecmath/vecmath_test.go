package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// naive reference implementations the unrolled kernels must agree with.
func naiveSquaredL2(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func naiveDot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// TestKernelsMatchNaive sweeps dimensions across the unroll boundary
// (0..67) so remainder handling of every residue class is exercised.
func TestKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for dim := 0; dim <= 67; dim++ {
		a := make([]float64, dim)
		b := make([]float64, dim)
		for i := range a {
			a[i] = rng.NormFloat64() * 10
			b[i] = rng.NormFloat64() * 10
		}
		if got, want := SquaredL2(a, b), naiveSquaredL2(a, b); math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("SquaredL2 dim %d: got %v want %v", dim, got, want)
		}
		if got, want := Dot(a, b), naiveDot(a, b); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("Dot dim %d: got %v want %v", dim, got, want)
		}
	}
}

// TestLengthMismatchPanics pins the package contract: mismatched lengths
// are a structural bug upstream and must panic, not truncate. This is
// the single shared test of the contract for every caller that
// deduplicated its local L2 loop onto this package.
func TestLengthMismatchPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: mismatched lengths did not panic", name)
			}
		}()
		f()
	}
	a, b := make([]float64, 4), make([]float64, 5)
	mustPanic("SquaredL2", func() { SquaredL2(a, b) })
	mustPanic("Dot", func() { Dot(a, b) })
	mustPanic("SquaredL2Int8", func() { SquaredL2Int8(make([]int8, 4), make([]float64, 256*3)) })
	mustPanic("SquaredL2Int8Bound", func() { SquaredL2Int8Bound(make([]int8, 4), make([]float64, 256*3), 1) })
}

// TestSquaredL2Int8BoundMatchesUnbounded pins the bounded kernel's
// contract over every residue class of the 8-wide block (dims 0..67) and
// bounds on both sides of the distance: at or under the bound the result
// is bit-identical to SquaredL2Int8; otherwise it exceeds the bound, and
// so does the unbounded distance.
func TestSquaredL2Int8BoundMatchesUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for dim := 0; dim <= 67; dim++ {
		lut := make([]float64, 256*dim)
		codes := make([]int8, dim)
		for trial := 0; trial < 50; trial++ {
			for i := range lut {
				lut[i] = rng.Float64() * rng.Float64()
			}
			for d := range codes {
				codes[d] = int8(rng.Intn(256) - 128)
			}
			full := SquaredL2Int8(codes, lut)
			bounds := []float64{full, math.Inf(1), 0, full * rng.Float64(), full * (1 + rng.Float64()), math.Nextafter(full, 0)}
			for _, bound := range bounds {
				got := SquaredL2Int8Bound(codes, lut, bound)
				switch {
				case full <= bound:
					if got != full {
						t.Fatalf("dim %d bound %v: got %v, want exactly %v", dim, bound, got, full)
					}
				case got <= bound:
					t.Fatalf("dim %d bound %v: got %v ≤ bound but full distance %v is above it", dim, bound, got, full)
				case got > full:
					t.Fatalf("dim %d bound %v: partial %v exceeds full distance %v", dim, bound, got, full)
				}
			}
		}
	}
}

// TestSquaredL2Int8Lookup checks the ADC kernel against a hand-built
// table: lut[d*256+l] keyed by the biased byte of the int8 code.
func TestSquaredL2Int8Lookup(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for dim := 0; dim <= 9; dim++ {
		lut := make([]float64, 256*dim)
		for i := range lut {
			lut[i] = rng.Float64()
		}
		codes := make([]int8, dim)
		want := 0.0
		for d := range codes {
			codes[d] = int8(rng.Intn(256) - 128)
			want += lut[d*256+int(codes[d])+128]
		}
		if got := SquaredL2Int8(codes, lut); math.Abs(got-want) > 1e-12*(1+want) {
			t.Fatalf("SquaredL2Int8 dim %d: got %v want %v", dim, got, want)
		}
	}
}

func BenchmarkSquaredL2(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 64)
	y := make([]float64, 64)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += SquaredL2(x, y)
	}
	_ = sink
}

func BenchmarkSquaredL2Int8(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	lut := make([]float64, 256*64)
	for i := range lut {
		lut[i] = rng.Float64()
	}
	codes := make([]int8, 64)
	for i := range codes {
		codes[i] = int8(rng.Intn(256) - 128)
	}
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += SquaredL2Int8(codes, lut)
	}
	_ = sink
}
