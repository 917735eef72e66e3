package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// shuffledIndices returns a seeded permutation of [0, n).
func shuffledIndices(n int, seed int64) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx
}

// StratifiedSplit splits d preserving per-class proportions. Every class
// must contribute at least one row to each side.
func StratifiedSplit(d Dataset, trainFrac float64, seed int64) (train, test Dataset, err error) {
	if err := d.Validate(); err != nil {
		return Dataset{}, Dataset{}, err
	}
	if trainFrac <= 0 || trainFrac >= 1 {
		return Dataset{}, Dataset{}, fmt.Errorf("ml: trainFrac %.3f out of (0,1)", trainFrac)
	}
	byClass := make(map[int][]int)
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	rng := rand.New(rand.NewSource(seed))
	var trainIdx, testIdx []int
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes) // deterministic iteration
	for _, c := range classes {
		rows := byClass[c]
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		cut := int(float64(len(rows)) * trainFrac)
		if cut == 0 {
			cut = 1
		}
		if cut == len(rows) {
			cut = len(rows) - 1
		}
		if cut <= 0 {
			return Dataset{}, Dataset{}, fmt.Errorf("ml: class %d has too few rows (%d) to stratify", c, len(rows))
		}
		trainIdx = append(trainIdx, rows[:cut]...)
		testIdx = append(testIdx, rows[cut:]...)
	}
	rng.Shuffle(len(trainIdx), func(i, j int) { trainIdx[i], trainIdx[j] = trainIdx[j], trainIdx[i] })
	rng.Shuffle(len(testIdx), func(i, j int) { testIdx[i], testIdx[j] = testIdx[j], testIdx[i] })
	return d.Subset(trainIdx), d.Subset(testIdx), nil
}

// Standardizer performs per-feature z-score normalisation fitted on a
// training set and applied to any split, so test data never leaks into the
// statistics.
type Standardizer struct {
	Mean, Std []float64
}

// FitStandardizer computes per-column mean and standard deviation.
func FitStandardizer(xs [][]float64) (*Standardizer, error) {
	if len(xs) == 0 {
		return nil, ErrEmptyDataset
	}
	dim := len(xs[0])
	mean := make([]float64, dim)
	std := make([]float64, dim)
	for _, row := range xs {
		if len(row) != dim {
			return nil, ErrDimMismatch
		}
		for j, v := range row {
			mean[j] += v
		}
	}
	n := float64(len(xs))
	for j := range mean {
		mean[j] /= n
	}
	for _, row := range xs {
		for j, v := range row {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / n)
		if std[j] < 1e-12 {
			std[j] = 1 // constant feature: leave centered at zero
		}
	}
	return &Standardizer{Mean: mean, Std: std}, nil
}

// Transform returns a standardized copy of x.
func (s *Standardizer) Transform(x []float64) ([]float64, error) {
	if len(x) != len(s.Mean) {
		return nil, ErrDimMismatch
	}
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out, nil
}

// TransformAll standardizes every row.
func (s *Standardizer) TransformAll(xs [][]float64) ([][]float64, error) {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		t, err := s.Transform(x)
		if err != nil {
			return nil, fmt.Errorf("ml: standardizing row %d: %w", i, err)
		}
		out[i] = t
	}
	return out, nil
}
