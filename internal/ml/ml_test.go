package ml

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// blobs builds an easy 3-class Gaussian-blob dataset.
func blobs(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	centers := [][]float64{{0, 0}, {5, 5}, {-5, 5}}
	d := Dataset{Classes: 3}
	for i := 0; i < n; i++ {
		c := i % 3
		d.X = append(d.X, []float64{
			centers[c][0] + rng.NormFloat64(),
			centers[c][1] + rng.NormFloat64(),
		})
		d.Y = append(d.Y, c)
	}
	return d
}

// rings builds a 2-class dataset a linear model cannot separate but trees
// and kNN can: inner disc vs outer ring.
func rings(n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := Dataset{Classes: 2}
	for i := 0; i < n; i++ {
		var r float64
		cls := i % 2
		if cls == 0 {
			r = rng.Float64() * 1.5
		} else {
			r = 3 + rng.Float64()*1.5
		}
		theta := rng.Float64() * 2 * math.Pi
		d.X = append(d.X, []float64{r * math.Cos(theta), r * math.Sin(theta)})
		d.Y = append(d.Y, cls)
	}
	return d
}

func TestDatasetValidate(t *testing.T) {
	good := blobs(30, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Dataset{}).Validate(); !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("empty dataset err = %v", err)
	}
	bad := Dataset{X: [][]float64{{1}}, Y: []int{0, 1}, Classes: 2}
	if bad.Validate() == nil {
		t.Fatal("length mismatch accepted")
	}
	bad = Dataset{X: [][]float64{{1}, {2, 3}}, Y: []int{0, 1}, Classes: 2}
	if err := bad.Validate(); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("ragged rows err = %v", err)
	}
	bad = Dataset{X: [][]float64{{1}}, Y: []int{5}, Classes: 2}
	if bad.Validate() == nil {
		t.Fatal("out-of-range label accepted")
	}
	bad = Dataset{X: [][]float64{{1}}, Y: []int{0}, Classes: 0}
	if bad.Validate() == nil {
		t.Fatal("zero classes accepted")
	}
}

func TestSubset(t *testing.T) {
	d := blobs(9, 2)
	s := d.Subset([]int{0, 3, 6})
	if s.Len() != 3 || s.Classes != 3 {
		t.Fatalf("subset = %+v", s)
	}
	for i, j := range []int{0, 3, 6} {
		if s.Y[i] != d.Y[j] {
			t.Fatal("subset labels wrong")
		}
	}
}

func allClassifiers() []Factory { return Standard(7) }

func TestAllClassifiersLearnBlobs(t *testing.T) {
	d := blobs(240, 3)
	train, test, err := StratifiedSplit(d, 0.8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range allClassifiers() {
		c := f()
		t.Run(c.Name(), func(t *testing.T) {
			res, err := Evaluate(c, train, test)
			if err != nil {
				t.Fatal(err)
			}
			if res.MacroF1 < 0.9 {
				t.Fatalf("%s blob F1 = %.3f, want >= 0.9", c.Name(), res.MacroF1)
			}
		})
	}
}

func TestNonlinearModelsBeatLinearOnRings(t *testing.T) {
	d := rings(300, 5)
	train, test, err := StratifiedSplit(d, 0.8, 6)
	if err != nil {
		t.Fatal(err)
	}
	score := func(c Classifier) float64 {
		res, err := Evaluate(c, train, test)
		if err != nil {
			t.Fatal(err)
		}
		return res.MacroF1
	}
	knn := score(NewKNN(5))
	tree := score(NewDecisionTree(DefaultTreeConfig()))
	svm := score(NewLinearSVM(DefaultLinearConfig(1)))
	if knn < 0.95 || tree < 0.95 {
		t.Fatalf("nonlinear models failed rings: knn=%.3f tree=%.3f", knn, tree)
	}
	if svm > 0.8 {
		t.Fatalf("linear SVM should not separate rings: %.3f", svm)
	}
}

func TestClassifierErrorPaths(t *testing.T) {
	for _, f := range allClassifiers() {
		c := f()
		if _, err := c.Predict([]float64{1, 2}); !errors.Is(err, ErrNotFitted) {
			t.Errorf("%s unfitted predict err = %v", c.Name(), err)
		}
		if err := c.Fit(Dataset{}); err == nil {
			t.Errorf("%s accepted empty fit", c.Name())
		}
		if err := c.Fit(blobs(30, 1)); err != nil {
			t.Fatalf("%s fit: %v", c.Name(), err)
		}
		if _, err := c.Predict([]float64{1}); !errors.Is(err, ErrDimMismatch) {
			t.Errorf("%s wrong-dim predict err = %v", c.Name(), err)
		}
	}
}

func TestProbClassifiersSumToOne(t *testing.T) {
	d := blobs(60, 8)
	probs := []ProbClassifier{
		NewKNN(5), NewGaussianNB(),
		NewLogisticRegression(DefaultLinearConfig(1)),
		NewLinearSVM(DefaultLinearConfig(1)),
		NewDecisionTree(DefaultTreeConfig()),
		NewRandomForest(DefaultForestConfig(1)),
	}
	for _, c := range probs {
		if err := c.Fit(d); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		p, err := c.PredictProba(d.X[0])
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		sum := 0.0
		for _, v := range p {
			if v < -1e-9 {
				t.Fatalf("%s negative probability %v", c.Name(), v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("%s probabilities sum to %v", c.Name(), sum)
		}
	}
}

func TestKNNMajorityVote(t *testing.T) {
	d := Dataset{
		X:       [][]float64{{0}, {0.1}, {0.2}, {10}},
		Y:       []int{0, 0, 1, 1},
		Classes: 2,
	}
	k := NewKNN(3)
	if err := k.Fit(d); err != nil {
		t.Fatal(err)
	}
	got, err := k.Predict([]float64{0.05})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("knn vote = %d, want 0", got)
	}
}

func TestGaussianNBKnownPosteriors(t *testing.T) {
	// Two well-separated 1-D classes: posterior at a class mean ~= 1.
	d := Dataset{Classes: 2}
	for i := 0; i < 50; i++ {
		d.X = append(d.X, []float64{float64(i%5) * 0.01})
		d.Y = append(d.Y, 0)
		d.X = append(d.X, []float64{10 + float64(i%5)*0.01})
		d.Y = append(d.Y, 1)
	}
	nb := NewGaussianNB()
	if err := nb.Fit(d); err != nil {
		t.Fatal(err)
	}
	p, err := nb.PredictProba([]float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if p[0] < 0.99 {
		t.Fatalf("posterior at class-0 mean = %v", p[0])
	}
}

func TestDecisionTreeDepthRespected(t *testing.T) {
	d := rings(200, 9)
	tree := NewDecisionTree(TreeConfig{MaxDepth: 3, MinSamplesSplit: 2})
	if err := tree.Fit(d); err != nil {
		t.Fatal(err)
	}
	if got := tree.Depth(); got > 3 {
		t.Fatalf("depth = %d, want <= 3", got)
	}
}

func TestDecisionTreePureLeafStopsEarly(t *testing.T) {
	d := Dataset{X: [][]float64{{1}, {2}, {3}}, Y: []int{1, 1, 1}, Classes: 2}
	tree := NewDecisionTree(DefaultTreeConfig())
	if err := tree.Fit(d); err != nil {
		t.Fatal(err)
	}
	if tree.Depth() != 0 {
		t.Fatalf("pure dataset should produce a leaf, depth = %d", tree.Depth())
	}
	got, _ := tree.Predict([]float64{99})
	if got != 1 {
		t.Fatalf("pure leaf predicts %d", got)
	}
}

func TestRandomForestDeterministicBySeed(t *testing.T) {
	d := rings(150, 10)
	preds := func(seed int64) []int {
		f := NewRandomForest(DefaultForestConfig(seed))
		if err := f.Fit(d); err != nil {
			t.Fatal(err)
		}
		out, err := PredictAll(f, d.X)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := preds(3), preds(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed forests disagree")
		}
	}
}

func TestConfusionMatrixMetrics(t *testing.T) {
	cm := NewConfusionMatrix(2)
	// 8 TP0, 2 FN0->1, 1 FP (1 predicted 0), 9 TP1.
	for i := 0; i < 8; i++ {
		_ = cm.Add(0, 0)
	}
	for i := 0; i < 2; i++ {
		_ = cm.Add(0, 1)
	}
	_ = cm.Add(1, 0)
	for i := 0; i < 9; i++ {
		_ = cm.Add(1, 1)
	}
	if cm.Total() != 20 {
		t.Fatalf("total = %d", cm.Total())
	}
	if math.Abs(cm.Accuracy()-17.0/20) > 1e-12 {
		t.Fatalf("accuracy = %v", cm.Accuracy())
	}
	per := cm.PerClass()
	// class 0: precision 8/9, recall 8/10.
	if math.Abs(per[0].Precision-8.0/9) > 1e-12 || math.Abs(per[0].Recall-0.8) > 1e-12 {
		t.Fatalf("class0 metrics = %+v", per[0])
	}
	if per[0].Support != 10 || per[1].Support != 10 {
		t.Fatalf("supports = %+v", per)
	}
	wantF1 := 2 * (8.0 / 9) * 0.8 / ((8.0 / 9) + 0.8)
	if math.Abs(per[0].F1-wantF1) > 1e-12 {
		t.Fatalf("class0 F1 = %v, want %v", per[0].F1, wantF1)
	}
	if cm.MacroF1() <= 0 || cm.MacroF1() > 1 {
		t.Fatalf("macro F1 = %v", cm.MacroF1())
	}
	if math.Abs(cm.WeightedF1()-cm.MacroF1()) > 1e-12 {
		t.Fatal("balanced supports: weighted must equal macro")
	}
	if err := cm.Add(5, 0); err == nil {
		t.Fatal("out-of-range add accepted")
	}
	if cm.String() == "" {
		t.Fatal("empty string rendering")
	}
}

func TestConfusionFromPredictions(t *testing.T) {
	cm, err := ConfusionFromPredictions([]int{0, 1, 1}, []int{0, 1, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cm.M[1][0] != 1 || cm.M[0][0] != 1 || cm.M[1][1] != 1 {
		t.Fatalf("matrix = %v", cm.M)
	}
	if _, err := ConfusionFromPredictions([]int{0}, []int{0, 1}, 2); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestPerfectAndZeroF1(t *testing.T) {
	cm, _ := ConfusionFromPredictions([]int{0, 1, 2}, []int{0, 1, 2}, 3)
	if cm.MacroF1() != 1 {
		t.Fatalf("perfect F1 = %v", cm.MacroF1())
	}
	cm2, _ := ConfusionFromPredictions([]int{0, 0, 0}, []int{1, 1, 1}, 2)
	if cm2.MacroF1() != 0 {
		t.Fatalf("all-wrong F1 = %v", cm2.MacroF1())
	}
}

func TestStratifiedSplitPreservesProportions(t *testing.T) {
	d := blobs(90, 12) // 30 per class
	train, test, err := StratifiedSplit(d, 0.8, 2)
	if err != nil {
		t.Fatal(err)
	}
	count := func(ds Dataset) []int {
		c := make([]int, 3)
		for _, y := range ds.Y {
			c[y]++
		}
		return c
	}
	for c, n := range count(train) {
		if n != 24 {
			t.Fatalf("train class %d count = %d, want 24", c, n)
		}
	}
	for c, n := range count(test) {
		if n != 6 {
			t.Fatalf("test class %d count = %d, want 6", c, n)
		}
	}
}

func TestCrossValidate(t *testing.T) {
	d := blobs(90, 13)
	scores, err := CrossValidate(func() Classifier { return NewKNN(3) }, d, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 5 {
		t.Fatalf("fold count = %d", len(scores))
	}
	if Mean(scores) < 0.9 {
		t.Fatalf("CV mean F1 = %v", Mean(scores))
	}
	if _, err := CrossValidate(func() Classifier { return NewKNN(3) }, d, 1, 1); !errors.Is(err, ErrBadFolds) {
		t.Fatalf("folds=1 err = %v", err)
	}
}

func TestStandardizer(t *testing.T) {
	xs := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	s, err := FitStandardizer(xs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.TransformAll(xs)
	if err != nil {
		t.Fatal(err)
	}
	// Column 0 standardized: mean 0.
	m := (out[0][0] + out[1][0] + out[2][0]) / 3
	if math.Abs(m) > 1e-12 {
		t.Fatalf("standardized mean = %v", m)
	}
	// Constant column maps to zeros, not NaN.
	for _, row := range out {
		if row[1] != 0 || math.IsNaN(row[1]) {
			t.Fatalf("constant column transformed to %v", row[1])
		}
	}
	if _, err := s.Transform([]float64{1}); !errors.Is(err, ErrDimMismatch) {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := FitStandardizer(nil); !errors.Is(err, ErrEmptyDataset) {
		t.Fatal("empty fit accepted")
	}
}

func TestKMeansRecoversBlobs(t *testing.T) {
	d := blobs(150, 14)
	res, err := KMeans(d.X, DefaultKMeansConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 3 {
		t.Fatalf("centroids = %d", len(res.Centroids))
	}
	// Each true center should have a centroid within 1 unit.
	for _, c := range [][]float64{{0, 0}, {5, 5}, {-5, 5}} {
		best := math.Inf(1)
		for _, cent := range res.Centroids {
			if d := math.Sqrt(SquaredL2(c, cent)); d < best {
				best = d
			}
		}
		if best > 1 {
			t.Fatalf("no centroid near %v (nearest %.2f)", c, best)
		}
	}
	// Assignments are consistent with Quantize.
	for i, p := range d.X {
		q, err := res.Quantize(p)
		if err != nil {
			t.Fatal(err)
		}
		if q != res.Assign[i] {
			t.Fatalf("assign[%d]=%d but Quantize=%d", i, res.Assign[i], q)
		}
	}
}

func TestKMeansValidation(t *testing.T) {
	if _, err := KMeans(nil, DefaultKMeansConfig(2, 1)); !errors.Is(err, ErrEmptyDataset) {
		t.Fatal("empty accepted")
	}
	pts := [][]float64{{1}, {2}}
	if _, err := KMeans(pts, DefaultKMeansConfig(3, 1)); !errors.Is(err, ErrBadK) {
		t.Fatal("k>n accepted")
	}
	if _, err := KMeans([][]float64{{1}, {2, 3}}, DefaultKMeansConfig(1, 1)); !errors.Is(err, ErrDimMismatch) {
		t.Fatal("ragged accepted")
	}
	// k == n degenerates to one point per cluster with zero inertia.
	res, err := KMeans(pts, DefaultKMeansConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-9 {
		t.Fatalf("k=n inertia = %v", res.Inertia)
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	d := blobs(120, 15)
	var prev float64 = math.Inf(1)
	for _, k := range []int{1, 2, 3, 6} {
		res, err := KMeans(d.X, DefaultKMeansConfig(k, 2))
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev+1e-9 {
			t.Fatalf("inertia increased with k=%d: %v > %v", k, res.Inertia, prev)
		}
		prev = res.Inertia
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
}

func TestEvaluateValidatesInputs(t *testing.T) {
	if _, err := Evaluate(NewKNN(1), Dataset{}, blobs(10, 1)); err == nil {
		t.Fatal("empty train accepted")
	}
	if _, err := Evaluate(NewKNN(1), blobs(10, 1), Dataset{}); err == nil {
		t.Fatal("empty test accepted")
	}
}

func TestAccuracyEqualsWeightedRecallProperty(t *testing.T) {
	// Identity: accuracy == sum(recall_c * support_c) / total.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		classes := 2 + rng.Intn(4)
		n := 20 + rng.Intn(80)
		actual := make([]int, n)
		pred := make([]int, n)
		for i := range actual {
			actual[i] = rng.Intn(classes)
			pred[i] = rng.Intn(classes)
		}
		cm, err := ConfusionFromPredictions(actual, pred, classes)
		if err != nil {
			return false
		}
		weighted := 0.0
		for _, m := range cm.PerClass() {
			weighted += m.Recall * float64(m.Support)
		}
		return math.Abs(cm.Accuracy()-weighted/float64(n)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStratifiedSplitPartitionProperty(t *testing.T) {
	// Train and test always partition the dataset: sizes sum and no row
	// appears twice (checked via label multiset).
	f := func(seed int64) bool {
		d := blobs(60, seed)
		train, test, err := StratifiedSplit(d, 0.7, seed)
		if err != nil {
			return false
		}
		if train.Len()+test.Len() != d.Len() {
			return false
		}
		count := func(ds Dataset) map[int]int {
			m := map[int]int{}
			for _, y := range ds.Y {
				m[y]++
			}
			return m
		}
		all := count(d)
		tr, te := count(train), count(test)
		for c, n := range all {
			if tr[c]+te[c] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMacroF1BoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		classes := 2 + rng.Intn(3)
		n := 10 + rng.Intn(50)
		actual := make([]int, n)
		pred := make([]int, n)
		for i := range actual {
			actual[i] = rng.Intn(classes)
			pred[i] = rng.Intn(classes)
		}
		cm, _ := ConfusionFromPredictions(actual, pred, classes)
		m := cm.MacroF1()
		w := cm.WeightedF1()
		return m >= 0 && m <= 1 && w >= 0 && w <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReportRendering(t *testing.T) {
	cm, _ := ConfusionFromPredictions([]int{0, 1, 1}, []int{0, 1, 0}, 2)
	rep := cm.Report([]string{"clean", "tent"})
	for _, want := range []string{"precision", "clean", "tent", "accuracy", "macro f1"} {
		if !containsStr(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	// Falls back to class indices when labels are short.
	rep = cm.Report(nil)
	if !containsStr(rep, "class 0") {
		t.Fatalf("report missing fallback names:\n%s", rep)
	}
}

func containsStr(s, sub string) bool {
	return strings.Contains(s, sub)
}

// Depth returns the height of the fitted tree (0 for a single leaf).
func (t *DecisionTree) Depth() int {
	var depth func(n *treeNode) int
	depth = func(n *treeNode) int {
		if n == nil || n.leaf {
			return 0
		}
		l, r := depth(n.left), depth(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return depth(t.root)
}
