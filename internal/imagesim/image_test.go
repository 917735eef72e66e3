package imagesim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 5); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := New(5, -1); err == nil {
		t.Fatal("negative height accepted")
	}
	img, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if img.W != 3 || img.H != 2 || len(img.Pix) != 6 {
		t.Fatalf("bad image: %+v", img)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0,0) should panic")
		}
	}()
	MustNew(0, 0)
}

func TestAtSetClamping(t *testing.T) {
	img := MustNew(4, 4)
	red := RGB{255, 0, 0}
	img.Set(0, 0, red)
	if img.At(0, 0) != red {
		t.Fatal("round trip failed")
	}
	// Out-of-bounds reads clamp to the edge.
	if img.At(-5, -5) != red {
		t.Fatal("negative read should clamp to (0,0)")
	}
	img.Set(3, 3, RGB{0, 255, 0})
	if img.At(10, 10) != (RGB{0, 255, 0}) {
		t.Fatal("overflow read should clamp to (W-1,H-1)")
	}
	// Out-of-bounds writes are dropped silently.
	img.Set(-1, 0, RGB{1, 1, 1})
	img.Set(0, 99, RGB{1, 1, 1})
	if img.At(0, 0) != red {
		t.Fatal("out-of-bounds write leaked")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustNew(2, 2)
	a.Fill(RGB{9, 9, 9})
	b := a.Clone()
	b.Set(0, 0, RGB{1, 2, 3})
	if a.At(0, 0) != (RGB{9, 9, 9}) {
		t.Fatal("clone shares storage with original")
	}
}

func TestFillRectClipping(t *testing.T) {
	img := MustNew(4, 4)
	img.FillRect(-2, -2, 2, 2, RGB{5, 5, 5})
	if img.At(0, 0) != (RGB{5, 5, 5}) || img.At(1, 1) != (RGB{5, 5, 5}) {
		t.Fatal("clipped fill missed interior")
	}
	if img.At(2, 2) != (RGB{}) {
		t.Fatal("fill overflowed")
	}
	img.FillRect(3, 3, 100, 100, RGB{7, 7, 7})
	if img.At(3, 3) != (RGB{7, 7, 7}) {
		t.Fatal("corner fill missed")
	}
}

func TestFillCircle(t *testing.T) {
	img := MustNew(11, 11)
	img.FillCircle(5, 5, 3, RGB{1, 1, 1})
	if img.At(5, 5) != (RGB{1, 1, 1}) || img.At(5, 8) != (RGB{1, 1, 1}) {
		t.Fatal("circle interior missing")
	}
	if img.At(0, 0) != (RGB{}) || img.At(5, 9) != (RGB{}) {
		t.Fatal("circle overflow")
	}
}

func TestDrawLine(t *testing.T) {
	img := MustNew(5, 5)
	img.DrawLine(0, 0, 4, 4, RGB{2, 2, 2})
	for i := 0; i < 5; i++ {
		if img.At(i, i) != (RGB{2, 2, 2}) {
			t.Fatalf("diagonal pixel (%d,%d) not drawn", i, i)
		}
	}
	img2 := MustNew(5, 5)
	img2.DrawLine(4, 2, 0, 2, RGB{3, 3, 3}) // right-to-left horizontal
	for i := 0; i < 5; i++ {
		if img2.At(i, 2) != (RGB{3, 3, 3}) {
			t.Fatalf("horizontal pixel (%d,2) not drawn", i)
		}
	}
}

func TestHSVRoundTrip(t *testing.T) {
	f := func(r, g, b uint8) bool {
		in := RGB{r, g, b}
		out := in.ToHSV().ToRGB()
		// 8-bit quantisation allows +-2 per channel.
		d := func(a, b uint8) int {
			x := int(a) - int(b)
			if x < 0 {
				x = -x
			}
			return x
		}
		return d(in.R, out.R) <= 2 && d(in.G, out.G) <= 2 && d(in.B, out.B) <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHSVKnownColors(t *testing.T) {
	cases := []struct {
		c RGB
		h HSV
	}{
		{RGB{255, 0, 0}, HSV{0, 1, 1}},
		{RGB{0, 255, 0}, HSV{120, 1, 1}},
		{RGB{0, 0, 255}, HSV{240, 1, 1}},
		{RGB{255, 255, 255}, HSV{0, 0, 1}},
		{RGB{0, 0, 0}, HSV{0, 0, 0}},
	}
	for _, c := range cases {
		got := c.c.ToHSV()
		if math.Abs(got.H-c.h.H) > 0.5 || math.Abs(got.S-c.h.S) > 0.01 || math.Abs(got.V-c.h.V) > 0.01 {
			t.Errorf("ToHSV(%v) = %+v, want %+v", c.c, got, c.h)
		}
	}
}

func TestGray(t *testing.T) {
	if g := (RGB{255, 255, 255}).Gray(); math.Abs(g-255) > 0.01 {
		t.Fatalf("white gray = %v", g)
	}
	if g := (RGB{}).Gray(); g != 0 {
		t.Fatalf("black gray = %v", g)
	}
	// Green contributes the most luminance.
	if (RGB{0, 200, 0}).Gray() <= (RGB{200, 0, 0}).Gray() {
		t.Fatal("green should out-weigh red in luminance")
	}
}

func TestGrayPlane(t *testing.T) {
	img := MustNew(2, 1)
	img.Set(0, 0, RGB{255, 255, 255})
	p := img.GrayPlane()
	if len(p) != 2 || math.Abs(p[0]-255) > 0.01 || p[1] != 0 {
		t.Fatalf("gray plane = %v", p)
	}
}

func TestMeanRGB(t *testing.T) {
	img := MustNew(2, 1)
	img.Set(0, 0, RGB{100, 0, 0})
	img.Set(1, 0, RGB{200, 0, 0})
	r, g, b := img.MeanRGB()
	if r != 150 || g != 0 || b != 0 {
		t.Fatalf("mean = %v %v %v", r, g, b)
	}
}

func TestResize(t *testing.T) {
	img := MustNew(4, 4)
	img.FillRect(0, 0, 2, 4, RGB{255, 0, 0})
	img.FillRect(2, 0, 4, 4, RGB{0, 0, 255})
	small, err := img.Resize(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if small.At(0, 0) != (RGB{255, 0, 0}) || small.At(1, 0) != (RGB{0, 0, 255}) {
		t.Fatalf("resize content wrong: %+v", small.Pix)
	}
	if _, err := img.Resize(0, 2); err == nil {
		t.Fatal("zero-size resize accepted")
	}
	big, err := small.Resize(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if big.At(0, 0) != (RGB{255, 0, 0}) || big.At(7, 7) != (RGB{0, 0, 255}) {
		t.Fatal("upscale content wrong")
	}
}

func TestCrop(t *testing.T) {
	img := MustNew(4, 4)
	img.Set(1, 1, RGB{9, 9, 9})
	c, err := Crop(img, 1, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.W != 2 || c.H != 2 || c.At(0, 0) != (RGB{9, 9, 9}) {
		t.Fatalf("crop wrong: %+v", c)
	}
	for _, bad := range [][4]int{{-1, 0, 2, 2}, {0, 0, 5, 2}, {3, 3, 2, 2}, {0, 0, 0, 1}} {
		if _, err := Crop(img, bad[0], bad[1], bad[2], bad[3]); err == nil {
			t.Errorf("bad crop %v accepted", bad)
		}
	}
}

func TestFlipInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	img := MustNew(5, 3)
	for i := range img.Pix {
		img.Pix[i] = RGB{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))}
	}
	hh := FlipH(FlipH(img))
	vv := FlipV(FlipV(img))
	for i := range img.Pix {
		if hh.Pix[i] != img.Pix[i] {
			t.Fatal("FlipH is not an involution")
		}
		if vv.Pix[i] != img.Pix[i] {
			t.Fatal("FlipV is not an involution")
		}
	}
	h := FlipH(img)
	if h.At(0, 0) != img.At(4, 0) {
		t.Fatal("FlipH content wrong")
	}
	v := FlipV(img)
	if v.At(0, 0) != img.At(0, 2) {
		t.Fatal("FlipV content wrong")
	}
}

func TestRotateZeroIsIdentity(t *testing.T) {
	img := MustNew(6, 6)
	img.FillCircle(3, 3, 2, RGB{8, 8, 8})
	r := Rotate(img, 0)
	for i := range img.Pix {
		if r.Pix[i] != img.Pix[i] {
			t.Fatal("Rotate(0) changed image")
		}
	}
}

func TestRotate180TwiceRestoresCenterMass(t *testing.T) {
	img := MustNew(9, 9)
	img.FillRect(1, 1, 4, 4, RGB{200, 0, 0})
	once := Rotate(img, 180)
	// The red block should have moved to the opposite quadrant.
	if once.At(2, 2) == (RGB{200, 0, 0}) {
		t.Fatal("rotation did not move content")
	}
	if once.At(6, 6) != (RGB{200, 0, 0}) {
		t.Fatal("180-degree rotation misplaced content")
	}
	twice := Rotate(once, 180)
	if twice.At(2, 2) != (RGB{200, 0, 0}) {
		t.Fatal("two 180-degree rotations should restore content")
	}
}

func TestAdjustBrightness(t *testing.T) {
	img := MustNew(1, 1)
	img.Set(0, 0, RGB{100, 100, 100})
	if got := AdjustBrightness(img, 2).At(0, 0); got != (RGB{200, 200, 200}) {
		t.Fatalf("2x brightness = %v", got)
	}
	if got := AdjustBrightness(img, 10).At(0, 0); got != (RGB{255, 255, 255}) {
		t.Fatalf("brightness should clamp: %v", got)
	}
	if got := AdjustBrightness(img, 0).At(0, 0); got != (RGB{}) {
		t.Fatalf("zero brightness = %v", got)
	}
}

func TestAddGaussianNoiseBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	img := MustNew(16, 16)
	img.Fill(RGB{128, 128, 128})
	n := AddGaussianNoise(img, 10, rng)
	changed := 0
	for i, p := range n.Pix {
		if p != img.Pix[i] {
			changed++
		}
	}
	if changed < len(img.Pix)/2 {
		t.Fatalf("noise changed only %d/%d pixels", changed, len(img.Pix))
	}
	// Mean should remain close to 128.
	r, _, _ := n.MeanRGB()
	if math.Abs(r-128) > 5 {
		t.Fatalf("noise shifted mean to %v", r)
	}
}

func TestAugmentorPreservesDims(t *testing.T) {
	a := NewAugmentor(42)
	img := MustNew(32, 24)
	img.FillCircle(16, 12, 6, RGB{100, 50, 20})
	for i := 0; i < 20; i++ {
		out := a.Apply(img)
		if out.W != img.W || out.H != img.H {
			t.Fatalf("augmented dims %dx%d, want %dx%d", out.W, out.H, img.W, img.H)
		}
		if out == img {
			t.Fatal("Apply must not return the input aliased")
		}
	}
}

func TestAugmentorDeterministicBySeed(t *testing.T) {
	img := MustNew(16, 16)
	img.FillRect(2, 2, 10, 10, RGB{50, 90, 130})
	a1 := NewAugmentor(7)
	a2 := NewAugmentor(7)
	for i := 0; i < 5; i++ {
		o1, o2 := a1.Apply(img), a2.Apply(img)
		for j := range o1.Pix {
			if o1.Pix[j] != o2.Pix[j] {
				t.Fatal("same seed produced different augmentations")
			}
		}
	}
}

func TestOpString(t *testing.T) {
	names := map[Op]string{
		OpCrop: "crop", OpFlipH: "flip_h", OpFlipV: "flip_v",
		OpRotate: "rotate", OpBrightness: "brightness", OpNoise: "noise",
	}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, op.String(), want)
		}
	}
	if Op(99).String() != "op(99)" {
		t.Errorf("unknown op string = %q", Op(99).String())
	}
}

// MeanRGB returns the per-channel mean of the image in [0,255].
func (m *Image) MeanRGB() (r, g, b float64) {
	if len(m.Pix) == 0 {
		return 0, 0, 0
	}
	for _, p := range m.Pix {
		r += float64(p.R)
		g += float64(p.G)
		b += float64(p.B)
	}
	n := float64(len(m.Pix))
	return r / n, g / n, b / n
}
