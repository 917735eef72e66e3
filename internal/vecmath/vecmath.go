// Package vecmath holds the distance kernels of the read hot path. Every
// candidate scan in the platform — LSH re-rank, hybrid-tree leaf probes,
// exact baselines, kNN/kMeans — funnels through these four functions
// (SquaredL2, Dot, and the int8 table kernels SquaredL2Int8 and its
// early-exit twin SquaredL2Int8Bound), so they are written for
// throughput: 4-way unrolled with independent
// accumulators (breaking the loop-carried dependence so the FPU pipelines
// stay full) and a bounds-check-eliminating reslice up front.
//
// Contract: the float64 kernels panic on length mismatch. Equal lengths
// are a structural invariant everywhere vectors meet (indexes reject
// mismatched inserts and queries with index.ErrDimMismatch before any
// kernel runs), so a mismatch reaching this package is a bug upstream —
// silently truncating to the shorter vector, as the three pre-vecmath
// copies of this loop did, would corrupt distances instead of surfacing
// it. The panic contract is tested once, in this package, for all callers.
package vecmath

// SquaredL2 returns the squared Euclidean distance between two
// equal-length vectors. It panics if len(a) != len(b) (see the package
// contract). Callers that need the true distance take one math.Sqrt of
// the result after all comparisons are done: squared distance is
// monotone under sqrt, so ordering and thresholding (against r²) never
// need the root.
func SquaredL2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: SquaredL2 length mismatch")
	}
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// Dot returns the inner product of two equal-length vectors. It panics
// if len(a) != len(b) (see the package contract).
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// SquaredL2Int8 returns the asymmetric squared distance between a
// full-precision query and an int8-quantized vector, via a per-query
// lookup table built once by quant.Scalar.Table: lut[d*256+l] is the
// squared per-dimension distance between the query's d-th coordinate and
// reconstruction level l. The scan is dequantize-free — one byte load,
// one table load, one add per dimension; no multiplies — which is what
// makes quantized candidate scans memory-bandwidth-cheap. It panics if
// len(lut) != 256*len(codes).
// The loop walks the table forward four rows (one 1024-entry block) at a
// time instead of computing lut[i*256+...] absolute offsets: indexing a
// reslied constant-size block keeps the bounds checks out of the
// per-element address arithmetic, which measures ~20% faster than the
// absolute-offset form at serving scale.
func SquaredL2Int8(codes []int8, lut []float64) float64 {
	if len(lut) != 256*len(codes) {
		panic("vecmath: SquaredL2Int8 table size mismatch")
	}
	var s0, s1, s2, s3 float64
	i := 0
	tbl := lut
	for ; i+4 <= len(codes); i += 4 {
		blk := tbl[:1024]
		s0 += blk[int(codes[i])+128]
		s1 += blk[256+int(codes[i+1])+128]
		s2 += blk[512+int(codes[i+2])+128]
		s3 += blk[768+int(codes[i+3])+128]
		tbl = tbl[1024:]
	}
	for ; i < len(codes); i++ {
		s0 += tbl[int(codes[i])+128]
		tbl = tbl[256:]
	}
	return (s0 + s1) + (s2 + s3)
}

// SquaredL2Int8Bound is SquaredL2Int8 for a top-k scan that only needs
// distances up to bound. It adds the same table entries into the same
// four accumulators in the same order, and every 8 dimensions returns
// the partial sum (s0+s1)+(s2+s3) as soon as it exceeds bound. Table
// entries are squared distances, never negative, and float addition of a
// non-negative term never decreases a sum, so the full distance is at
// least any partial sum: a result ≤ bound is bit-identical to
// SquaredL2Int8, and a result > bound means the full distance is > bound
// too. A scan offering the result to a selector whose worst kept
// distance is bound therefore rejects exactly the rows it would have
// rejected anyway. It panics if len(lut) != 256*len(codes).
func SquaredL2Int8Bound(codes []int8, lut []float64, bound float64) float64 {
	if len(lut) != 256*len(codes) {
		panic("vecmath: SquaredL2Int8Bound table size mismatch")
	}
	var s0, s1, s2, s3 float64
	i := 0
	tbl := lut
	for ; i+8 <= len(codes); i += 8 {
		blk := tbl[:2048]
		s0 += blk[int(codes[i])+128]
		s1 += blk[256+int(codes[i+1])+128]
		s2 += blk[512+int(codes[i+2])+128]
		s3 += blk[768+int(codes[i+3])+128]
		s0 += blk[1024+int(codes[i+4])+128]
		s1 += blk[1280+int(codes[i+5])+128]
		s2 += blk[1536+int(codes[i+6])+128]
		s3 += blk[1792+int(codes[i+7])+128]
		tbl = tbl[2048:]
		if s := (s0 + s1) + (s2 + s3); s > bound {
			return s
		}
	}
	if i+4 <= len(codes) {
		blk := tbl[:1024]
		s0 += blk[int(codes[i])+128]
		s1 += blk[256+int(codes[i+1])+128]
		s2 += blk[512+int(codes[i+2])+128]
		s3 += blk[768+int(codes[i+3])+128]
		tbl = tbl[1024:]
		i += 4
	}
	for ; i < len(codes); i++ {
		s0 += tbl[int(codes[i])+128]
		tbl = tbl[256:]
	}
	return (s0 + s1) + (s2 + s3)
}
