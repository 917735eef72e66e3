package ml

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/par"
)

// TreeConfig controls decision-tree induction.
type TreeConfig struct {
	MaxDepth        int
	MinSamplesSplit int
	// MaxFeatures caps the number of features considered per split;
	// 0 means all (plain CART), sqrt-selection is configured by forests.
	MaxFeatures int
	Seed        int64
}

// DefaultTreeConfig returns CART-style defaults.
func DefaultTreeConfig() TreeConfig {
	return TreeConfig{MaxDepth: 12, MinSamplesSplit: 4}
}

type treeNode struct {
	// Leaf payload.
	leaf  bool
	class int
	probs []float64
	// Internal split.
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
}

// DecisionTree is a CART classifier using Gini impurity with threshold
// splits on continuous features.
type DecisionTree struct {
	Cfg     TreeConfig
	root    *treeNode
	classes int
	dim     int
	rng     *rand.Rand
}

// NewDecisionTree returns an unfitted tree.
func NewDecisionTree(cfg TreeConfig) *DecisionTree {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 12
	}
	if cfg.MinSamplesSplit < 2 {
		cfg.MinSamplesSplit = 2
	}
	return &DecisionTree{Cfg: cfg}
}

// Name implements Classifier.
func (t *DecisionTree) Name() string { return "DecisionTree" }

// Fit implements Classifier.
func (t *DecisionTree) Fit(d Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	t.classes, t.dim = d.Classes, d.Dim()
	t.rng = rand.New(rand.NewSource(t.Cfg.Seed))
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(d, idx, 0)
	return nil
}

func classCounts(d Dataset, idx []int) []int {
	counts := make([]int, d.Classes)
	for _, i := range idx {
		counts[d.Y[i]]++
	}
	return counts
}

func gini(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		g -= p * p
	}
	return g
}

func majority(counts []int) int {
	best := 0
	for c := range counts {
		if counts[c] > counts[best] {
			best = c
		}
	}
	return best
}

func (t *DecisionTree) leafFrom(counts []int, total int) *treeNode {
	probs := make([]float64, len(counts))
	if total > 0 {
		for c, n := range counts {
			probs[c] = float64(n) / float64(total)
		}
	}
	return &treeNode{leaf: true, class: majority(counts), probs: probs}
}

func (t *DecisionTree) build(d Dataset, idx []int, depth int) *treeNode {
	counts := classCounts(d, idx)
	parentGini := gini(counts, len(idx))
	if depth >= t.Cfg.MaxDepth || len(idx) < t.Cfg.MinSamplesSplit || parentGini == 0 {
		return t.leafFrom(counts, len(idx))
	}
	feats := t.candidateFeatures()
	bestFeat, bestThr := -1, 0.0
	bestScore := parentGini // must strictly improve
	for _, f := range feats {
		thr, score, ok := t.bestSplitOn(d, idx, f)
		if ok && score < bestScore-1e-12 {
			bestFeat, bestThr, bestScore = f, thr, score
		}
	}
	if bestFeat < 0 {
		return t.leafFrom(counts, len(idx))
	}
	var left, right []int
	for _, i := range idx {
		if d.X[i][bestFeat] <= bestThr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return t.leafFrom(counts, len(idx))
	}
	return &treeNode{
		feature:   bestFeat,
		threshold: bestThr,
		left:      t.build(d, left, depth+1),
		right:     t.build(d, right, depth+1),
	}
}

// candidateFeatures returns the feature subset considered at a node.
func (t *DecisionTree) candidateFeatures() []int {
	k := t.Cfg.MaxFeatures
	if k <= 0 || k >= t.dim {
		all := make([]int, t.dim)
		for i := range all {
			all[i] = i
		}
		return all
	}
	perm := t.rng.Perm(t.dim)
	return perm[:k]
}

// bestSplitOn finds the weighted-Gini-minimising threshold for feature f
// using candidate thresholds at midpoints between distinct sorted values
// (subsampled for wide nodes to bound cost).
func (t *DecisionTree) bestSplitOn(d Dataset, idx []int, f int) (thr, score float64, ok bool) {
	vals := make([]float64, len(idx))
	for i, j := range idx {
		vals[i] = d.X[j][f]
	}
	sortFloats(vals)
	// Candidate thresholds: midpoints of up to 32 evenly spaced gaps.
	var cands []float64
	step := 1
	if len(vals) > 33 {
		step = len(vals) / 32
	}
	for i := step; i < len(vals); i += step {
		if vals[i] != vals[i-1] {
			cands = append(cands, (vals[i]+vals[i-1])/2)
		}
	}
	if len(cands) == 0 {
		return 0, 0, false
	}
	best := math.Inf(1)
	bestThr := 0.0
	lc := make([]int, d.Classes)
	rc := make([]int, d.Classes)
	for _, c := range cands {
		for i := range lc {
			lc[i], rc[i] = 0, 0
		}
		nl, nr := 0, 0
		for _, j := range idx {
			if d.X[j][f] <= c {
				lc[d.Y[j]]++
				nl++
			} else {
				rc[d.Y[j]]++
				nr++
			}
		}
		if nl == 0 || nr == 0 {
			continue
		}
		w := (float64(nl)*gini(lc, nl) + float64(nr)*gini(rc, nr)) / float64(nl+nr)
		if w < best {
			best, bestThr = w, c
		}
	}
	if math.IsInf(best, 1) {
		return 0, 0, false
	}
	return bestThr, best, true
}

func sortFloats(v []float64) {
	// insertion sort is fine at node sizes; avoid sort import churn
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func (t *DecisionTree) walk(x []float64) *treeNode {
	n := t.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// Predict implements Classifier.
func (t *DecisionTree) Predict(x []float64) (int, error) {
	if t.root == nil {
		return 0, ErrNotFitted
	}
	if len(x) != t.dim {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(x), t.dim)
	}
	return t.walk(x).class, nil
}

// PredictProba implements ProbClassifier via leaf class frequencies.
func (t *DecisionTree) PredictProba(x []float64) ([]float64, error) {
	if t.root == nil {
		return nil, ErrNotFitted
	}
	if len(x) != t.dim {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(x), t.dim)
	}
	n := t.walk(x)
	out := make([]float64, t.classes)
	copy(out, n.probs)
	return out, nil
}

// ForestConfig controls random-forest training.
type ForestConfig struct {
	Trees int
	Tree  TreeConfig
	Seed  int64
}

// DefaultForestConfig returns a 25-tree forest with sqrt feature sampling.
func DefaultForestConfig(seed int64) ForestConfig {
	return ForestConfig{
		Trees: 25,
		Tree:  TreeConfig{MaxDepth: 12, MinSamplesSplit: 4},
		Seed:  seed,
	}
}

// RandomForest is a bagging ensemble of decision trees with per-node
// feature subsampling.
type RandomForest struct {
	Cfg     ForestConfig
	trees   []*DecisionTree
	classes int
	dim     int
}

// NewRandomForest returns an unfitted forest.
func NewRandomForest(cfg ForestConfig) *RandomForest {
	if cfg.Trees <= 0 {
		cfg.Trees = 25
	}
	return &RandomForest{Cfg: cfg}
}

// Name implements Classifier.
func (f *RandomForest) Name() string { return "RandomForest" }

// Fit implements Classifier. Each tree's bootstrap and split randomness is
// derived from a per-tree seed split off the forest seed, so trees are
// independent and train concurrently over the par worker pool while the
// fitted ensemble stays identical for any worker count.
func (f *RandomForest) Fit(d Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	f.classes, f.dim = d.Classes, d.Dim()
	maxFeats := f.Cfg.Tree.MaxFeatures
	if maxFeats <= 0 {
		maxFeats = int(math.Sqrt(float64(d.Dim())))
		if maxFeats < 1 {
			maxFeats = 1
		}
	}
	trees, err := par.Map(f.Cfg.Trees, func(t int) (*DecisionTree, error) {
		rng := rand.New(rand.NewSource(par.SplitSeed(f.Cfg.Seed, t)))
		// Bootstrap sample.
		idx := make([]int, d.Len())
		for i := range idx {
			idx[i] = rng.Intn(d.Len())
		}
		boot := d.Subset(idx)
		cfg := f.Cfg.Tree
		cfg.MaxFeatures = maxFeats
		cfg.Seed = rng.Int63()
		tree := NewDecisionTree(cfg)
		if err := tree.Fit(boot); err != nil {
			return nil, fmt.Errorf("ml: forest tree %d: %w", t, err)
		}
		return tree, nil
	})
	if err != nil {
		return err
	}
	f.trees = trees
	return nil
}

// PredictProba implements ProbClassifier by averaging tree leaf
// distributions.
func (f *RandomForest) PredictProba(x []float64) ([]float64, error) {
	if len(f.trees) == 0 {
		return nil, ErrNotFitted
	}
	if len(x) != f.dim {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(x), f.dim)
	}
	agg := make([]float64, f.classes)
	for _, t := range f.trees {
		p, err := t.PredictProba(x)
		if err != nil {
			return nil, err
		}
		for c, v := range p {
			agg[c] += v
		}
	}
	for c := range agg {
		agg[c] /= float64(len(f.trees))
	}
	return agg, nil
}

// Predict implements Classifier.
func (f *RandomForest) Predict(x []float64) (int, error) {
	p, err := f.PredictProba(x)
	if err != nil {
		return 0, err
	}
	return argmax(p), nil
}
