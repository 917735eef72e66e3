package index

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/vecmath"
)

// Read-path microbenchmarks at serving scale: the exact float64 scan vs
// the int8 quantized scan vs the raw kernels, over the same corpus shape
// as bench/'s search workloads (20K vectors; 64 dims here, 50 there).

const (
	benchN   = 20000
	benchDim = 64
)

func benchLSH(b *testing.B) (*LSH, []float64) {
	b.Helper()
	l, err := NewLSH(benchDim, DefaultLSHConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	vec := make([]float64, benchDim)
	for i := 0; i < benchN; i++ {
		for d := range vec {
			vec[d] = rng.NormFloat64()
		}
		if err := l.Insert(uint64(i+1), vec); err != nil {
			b.Fatal(err)
		}
	}
	q := make([]float64, benchDim)
	for d := range q {
		q[d] = rng.NormFloat64()
	}
	return l, q
}

func BenchmarkExactTopK(b *testing.B) {
	l, q := benchLSH(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.ExactTopK(ctx, q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuantTopK(b *testing.B) {
	l, q := benchLSH(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.QuantTopK(ctx, q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuantTopKClustered runs the quantized scan over the serving
// benchmark's corpus shape — 20K 50-dim vectors in 64 Gaussian clusters,
// queries near stored rows — where the shortlist bound lets most rows
// stop after a few blocks. BenchmarkQuantTopK's unclustered Gaussian
// corpus is the case where it rarely can.
func BenchmarkQuantTopKClustered(b *testing.B) {
	const dim = 50
	l, err := NewLSH(dim, DefaultLSHConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	vecs := clusteredVecs(rng, benchN, dim, 64)
	for i, v := range vecs {
		if err := l.Insert(uint64(i+1), v); err != nil {
			b.Fatal(err)
		}
	}
	qs := make([][]float64, 64)
	for i := range qs {
		q := append([]float64(nil), vecs[rng.Intn(benchN)]...)
		for d := range q {
			q[d] += rng.NormFloat64() * 0.5
		}
		qs[i] = q
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.QuantTopK(ctx, qs[i%len(qs)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuantTable(b *testing.B) {
	l, q := benchLSH(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.quantizer.Table(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelSquaredL2(b *testing.B) {
	l, q := benchLSH(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s float64
		for _, v := range l.vectors {
			s += vecmath.SquaredL2(q, v)
		}
		_ = s
	}
}

func BenchmarkKernelSquaredL2Int8(b *testing.B) {
	l, q := benchLSH(b)
	lut, err := l.quantizer.Table(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s float64
		for pos := 0; pos < len(l.slabIDs); pos++ {
			s += vecmath.SquaredL2Int8(l.row(pos), lut)
		}
		_ = s
	}
}
