package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestDenseForwardKnown(t *testing.T) {
	d := NewDense(2, 2, rand.New(rand.NewSource(1)))
	d.W = []float64{1, 2, 3, 4} // row-major: out0=[1,2], out1=[3,4]
	d.B = []float64{0.5, -0.5}
	y := d.Forward([]float64{1, 1})
	if math.Abs(y[0]-3.5) > 1e-12 || math.Abs(y[1]-6.5) > 1e-12 {
		t.Fatalf("dense forward = %v", y)
	}
}

// numericGrad checks dLoss/dx via central differences where loss = sum(y).
func numericGrad(layer Layer, x []float64, i int) float64 {
	const eps = 1e-6
	xp := append([]float64(nil), x...)
	xp[i] += eps
	yp := layer.Forward(xp)
	sp := 0.0
	for _, v := range yp {
		sp += v
	}
	xm := append([]float64(nil), x...)
	xm[i] -= eps
	ym := layer.Forward(xm)
	sm := 0.0
	for _, v := range ym {
		sm += v
	}
	return (sp - sm) / (2 * eps)
}

func TestDenseBackwardMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense(4, 3, rng)
	x := []float64{0.3, -0.7, 1.2, 0.1}
	y := d.Forward(x)
	grad := make([]float64, len(y))
	for i := range grad {
		grad[i] = 1 // loss = sum(y)
	}
	gin := d.Backward(grad)
	for i := range x {
		want := numericGrad(d, x, i)
		if math.Abs(gin[i]-want) > 1e-5 {
			t.Fatalf("dense input grad[%d] = %v, numeric %v", i, gin[i], want)
		}
	}
}

func TestConvBackwardMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := Shape{C: 2, H: 4, W: 4}
	c := NewConv2D(in, 3, 3, rng)
	x := make([]float64, in.Size())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := c.Forward(x)
	grad := make([]float64, len(y))
	for i := range grad {
		grad[i] = 1
	}
	gin := c.Backward(grad)
	for _, i := range []int{0, 5, 13, 21, 31} {
		want := numericGrad(c, x, i)
		if math.Abs(gin[i]-want) > 1e-5 {
			t.Fatalf("conv input grad[%d] = %v, numeric %v", i, gin[i], want)
		}
	}
}

func TestConvOutShapeAndFLOPs(t *testing.T) {
	in := Shape{C: 3, H: 8, W: 8}
	c := NewConv2D(in, 4, 3, rand.New(rand.NewSource(1)))
	if got := c.OutShape(in); got != (Shape{4, 8, 8}) {
		t.Fatalf("OutShape = %v", got)
	}
	wantFLOPs := int64(4 * 8 * 8 * 3 * 9)
	if c.FLOPs() != wantFLOPs {
		t.Fatalf("FLOPs = %d, want %d", c.FLOPs(), wantFLOPs)
	}
	if c.Params() != 4*3*9+4 {
		t.Fatalf("Params = %d", c.Params())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("even kernel should panic")
		}
	}()
	NewConv2D(in, 4, 2, rand.New(rand.NewSource(1)))
}

func TestReLU(t *testing.T) {
	r := NewReLU()
	y := r.Forward([]float64{-1, 0, 2})
	if y[0] != 0 || y[1] != 0 || y[2] != 2 {
		t.Fatalf("relu forward = %v", y)
	}
	g := r.Backward([]float64{5, 5, 5})
	if g[0] != 0 || g[1] != 0 || g[2] != 5 {
		t.Fatalf("relu backward = %v", g)
	}
}

func TestMaxPool(t *testing.T) {
	in := Shape{C: 1, H: 4, W: 4}
	p := NewMaxPool2(in)
	x := []float64{
		1, 2, 0, 0,
		3, 4, 0, 9,
		0, 0, 5, 6,
		0, 0, 7, 8,
	}
	y := p.Forward(x)
	want := []float64{4, 9, 0, 8}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("pool out = %v, want %v", y, want)
		}
	}
	g := p.Backward([]float64{1, 1, 1, 1})
	// Gradient flows only to argmax positions.
	if g[5] != 1 || g[7] != 1 || g[8] != 1 || g[15] != 1 {
		t.Fatalf("pool grad = %v", g)
	}
	sum := 0.0
	for _, v := range g {
		sum += v
	}
	if sum != 4 {
		t.Fatalf("pool grad mass = %v, want 4", sum)
	}
}

func TestGlobalAvgPool(t *testing.T) {
	in := Shape{C: 2, H: 2, W: 2}
	p := NewGlobalAvgPool(in)
	y := p.Forward([]float64{1, 2, 3, 4, 10, 10, 10, 10})
	if y[0] != 2.5 || y[1] != 10 {
		t.Fatalf("gap = %v", y)
	}
	g := p.Backward([]float64{4, 8})
	for i := 0; i < 4; i++ {
		if g[i] != 1 {
			t.Fatalf("gap grad = %v", g)
		}
	}
	for i := 4; i < 8; i++ {
		if g[i] != 2 {
			t.Fatalf("gap grad = %v", g)
		}
	}
}

func TestSoftmax(t *testing.T) {
	p := Softmax([]float64{1, 1, 1})
	for _, v := range p {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("uniform softmax = %v", p)
		}
	}
	// Stability under large logits.
	p = Softmax([]float64{1000, 1001})
	if math.IsNaN(p[0]) || p[1] < p[0] {
		t.Fatalf("large-logit softmax = %v", p)
	}
	sum := p[0] + p[1]
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sum = %v", sum)
	}
}

func TestNetworkShapesAndErrors(t *testing.T) {
	n := BuildMLP(4, 8, 3, 1)
	if got := n.OutShape(); got != (Shape{3, 1, 1}) {
		t.Fatalf("OutShape = %v", got)
	}
	if n.Params() != 4*8+8+8*3+3 {
		t.Fatalf("Params = %d", n.Params())
	}
	if _, err := n.Forward([]float64{1, 2}); err == nil {
		t.Fatal("wrong input length accepted")
	}
	if _, err := n.FeatureVector([]float64{1, 2, 3, 4}, 99); err == nil {
		t.Fatal("bad skip accepted")
	}
	fv, err := n.FeatureVector([]float64{1, 2, 3, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fv) != 8 {
		t.Fatalf("feature dim = %d, want 8", len(fv))
	}
}

// xorData builds the classic non-linearly-separable dataset.
func xorData() ([][]float64, []int) {
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := []int{0, 1, 1, 0}
	var X [][]float64
	var Y []int
	for rep := 0; rep < 25; rep++ {
		for i := range xs {
			X = append(X, xs[i])
			Y = append(Y, ys[i])
		}
	}
	return X, Y
}

func TestTrainLearnsXOR(t *testing.T) {
	n := BuildMLP(2, 8, 2, 42)
	X, Y := xorData()
	cfg := TrainConfig{Epochs: 200, BatchSize: 8, LR: 0.1, Momentum: 0.9, Seed: 3}
	loss, err := n.Train(X, Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.2 {
		t.Fatalf("final XOR loss = %v, want < 0.2", loss)
	}
	acc, err := n.Accuracy(X, Y)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.99 {
		t.Fatalf("XOR accuracy = %v, want ~1", acc)
	}
}

func TestTrainLossDecreases(t *testing.T) {
	n := BuildMLP(2, 8, 2, 5)
	X, Y := xorData()
	var losses []float64
	cfg := TrainConfig{Epochs: 50, BatchSize: 8, LR: 0.1, Momentum: 0.9, Seed: 4,
		Verbose: func(epoch int, loss float64) { losses = append(losses, loss) }}
	if _, err := n.Train(X, Y, cfg); err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: first %v last %v", losses[0], losses[len(losses)-1])
	}
}

func TestTrainValidation(t *testing.T) {
	n := BuildMLP(2, 4, 2, 1)
	cfg := TrainConfig{Epochs: 10, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: 1}
	if _, err := n.Train(nil, nil, cfg); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := n.Train([][]float64{{1, 2}}, []int{5}, cfg); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, err := n.Train([][]float64{{1, 2}}, []int{0, 1}, cfg); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := n.Train([][]float64{{1}}, []int{0}, cfg); err == nil {
		t.Fatal("wrong sample width accepted")
	}
}

func TestFeatureNetTrainsOnToyImages(t *testing.T) {
	cfg := FeatureNetConfig{
		In: Shape{C: 1, H: 8, W: 8}, Conv1: 4, Conv2: 4, Hidden: 16,
		Classes: 2, KernelSz: 3, Seed: 9,
	}
	net := BuildFeatureNet(cfg)
	// Class 0: bright top half; class 1: bright bottom half.
	rng := rand.New(rand.NewSource(10))
	var X [][]float64
	var Y []int
	for i := 0; i < 60; i++ {
		img := make([]float64, 64)
		cls := i % 2
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				v := rng.Float64() * 0.2
				if (cls == 0 && y < 4) || (cls == 1 && y >= 4) {
					v += 0.8
				}
				img[y*8+x] = v
			}
		}
		X = append(X, img)
		Y = append(Y, cls)
	}
	_, err := net.Train(X, Y, TrainConfig{Epochs: 15, BatchSize: 8, LR: 0.05, Momentum: 0.9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := net.Accuracy(X, Y)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("feature net accuracy = %v, want >= 0.9", acc)
	}
	fv, err := net.FeatureVector(X[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fv) != 16 {
		t.Fatalf("feature dim = %d, want 16", len(fv))
	}
}

func TestModelProfiles(t *testing.T) {
	ps := Profiles()
	if len(ps) != 3 {
		t.Fatalf("profiles = %d, want 3", len(ps))
	}
	if InceptionV3.MFLOPsAt224 <= MobileNetV1.MFLOPsAt224 {
		t.Fatal("InceptionV3 must be heavier than MobileNetV1")
	}
	if MobileNetV2.MFLOPsAt224 >= MobileNetV1.MFLOPsAt224 {
		t.Fatal("MobileNetV2 must be lighter than MobileNetV1")
	}
	// FLOPs scale quadratically with resolution.
	f224 := MobileNetV1.FLOPsAt(224)
	f112 := MobileNetV1.FLOPsAt(112)
	if math.Abs(f224/f112-4) > 1e-9 {
		t.Fatalf("FLOPs scaling = %v, want 4", f224/f112)
	}
}

func TestShapeString(t *testing.T) {
	if s := (Shape{3, 32, 32}).String(); s != "3x32x32" {
		t.Fatalf("shape string = %q", s)
	}
	if (Shape{3, 32, 32}).Size() != 3072 {
		t.Fatal("shape size wrong")
	}
}

// Params returns the total number of learnable parameters.
func (n *Network) Params() int {
	total := 0
	for _, l := range n.Layers {
		total += l.Params()
	}
	return total
}
