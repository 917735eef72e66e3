package synth

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/imagesim"
)

func testGen(t *testing.T, n int, seed int64) *Generator {
	t.Helper()
	g, err := NewGenerator(DefaultConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGeneratorValidation(t *testing.T) {
	bad := DefaultConfig(0, 1)
	if _, err := NewGenerator(bad); err == nil {
		t.Fatal("N=0 accepted")
	}
	bad = DefaultConfig(10, 1)
	bad.ImageSize = 8
	if _, err := NewGenerator(bad); err == nil {
		t.Fatal("tiny image accepted")
	}
	bad = DefaultConfig(10, 1)
	bad.Center = geo.Point{Lat: 99}
	if _, err := NewGenerator(bad); err == nil {
		t.Fatal("bad center accepted")
	}
	bad = DefaultConfig(10, 1)
	bad.CityRadiusM = -5
	if _, err := NewGenerator(bad); err == nil {
		t.Fatal("negative radius accepted")
	}
}

func TestGenerateBalancedAndValid(t *testing.T) {
	g := testGen(t, 50, 1)
	recs := g.Generate(0)
	if len(recs) != 50 {
		t.Fatalf("got %d records", len(recs))
	}
	counts := make([]int, NumClasses)
	center := DefaultConfig(50, 1).Center
	for i, r := range recs {
		counts[r.Class]++
		if r.Image == nil || r.Image.W != 48 || r.Image.H != 48 {
			t.Fatalf("record %d image wrong", i)
		}
		if err := r.FOV.Validate(); err != nil {
			t.Fatalf("record %d FOV invalid: %v", i, err)
		}
		if d := geo.Haversine(center, r.FOV.Camera); d > 10000 {
			t.Fatalf("record %d is %0.f m from center", i, d)
		}
		if !r.UploadedAt.After(r.CapturedAt) {
			t.Fatalf("record %d uploaded before captured", i)
		}
		if len(r.Keywords) == 0 {
			t.Fatalf("record %d has no keywords", i)
		}
		if r.WorkerID == "" {
			t.Fatalf("record %d has no worker", i)
		}
	}
	for c, n := range counts {
		if n != 10 {
			t.Fatalf("class %d count = %d, want 10", c, n)
		}
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a := testGen(t, 10, 7).Generate(10)
	b := testGen(t, 10, 7).Generate(10)
	for i := range a {
		if a[i].Class != b[i].Class || a[i].FOV != b[i].FOV || !a[i].CapturedAt.Equal(b[i].CapturedAt) {
			t.Fatal("same-seed records differ")
		}
		for j := range a[i].Image.Pix {
			if a[i].Image.Pix[j] != b[i].Image.Pix[j] {
				t.Fatal("same-seed pixels differ")
			}
		}
	}
	c := testGen(t, 10, 8).Generate(10)
	same := true
	for j := range a[0].Image.Pix {
		if a[0].Image.Pix[j] != c[0].Image.Pix[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical pixels")
	}
}

func TestClassKeywordsMatch(t *testing.T) {
	g := testGen(t, 10, 2)
	for c := Class(0); int(c) < NumClasses; c++ {
		r := g.Render(c)
		found := false
		pool := classKeywords[c]
		for _, kw := range r.Keywords {
			for _, p := range pool {
				if kw == p {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("class %v record lacks class keyword: %v", c, r.Keywords)
		}
		// No duplicate keywords.
		seen := map[string]bool{}
		for _, kw := range r.Keywords {
			if seen[kw] {
				t.Fatalf("duplicate keyword %q", kw)
			}
			seen[kw] = true
		}
	}
}

// greenFraction measures how green-dominant an image is.
func greenFraction(r Record) float64 {
	n := 0
	for _, p := range r.Image.Pix {
		if int(p.G) > int(p.R)+20 && int(p.G) > int(p.B)+20 {
			n++
		}
	}
	return float64(n) / float64(len(r.Image.Pix))
}

func TestVegetationIsGreenDominant(t *testing.T) {
	g := testGen(t, 10, 3)
	veg, clean := 0.0, 0.0
	for i := 0; i < 10; i++ {
		veg += greenFraction(g.Render(OvergrownVegetation))
		clean += greenFraction(g.Render(Clean))
	}
	if veg <= clean*2 {
		t.Fatalf("vegetation green mass %.3f not >> clean %.3f", veg/10, clean/10)
	}
}

func TestEncampmentAndDumpingSharePalette(t *testing.T) {
	// The scene model deliberately gives tents and trash bags overlapping
	// base colours (the Fig. 7 confusion pair) while vegetation is
	// distinctively green.
	dist := func(a, b imagesim.RGB) float64 {
		dr := float64(a.R) - float64(b.R)
		dg := float64(a.G) - float64(b.G)
		db := float64(a.B) - float64(b.B)
		return math.Sqrt(dr*dr + dg*dg + db*db)
	}
	if d1, d2 := dist(tentBase, bagBase), dist(tentBase, vegBase); d1 >= d2/3 {
		t.Fatalf("tent-bag palette distance %.1f not well below tent-vegetation %.1f", d1, d2)
	}
}

func TestHotspotClustering(t *testing.T) {
	g := testGen(t, 10, 5)
	spots := g.hotspots[Encampment]
	if len(spots) == 0 {
		t.Fatal("no hotspots")
	}
	// Most encampment captures land within 1.5 km of some hotspot.
	near := 0
	const n = 60
	for i := 0; i < n; i++ {
		r := g.Render(Encampment)
		for _, h := range spots {
			if geo.Haversine(r.FOV.Camera, h) < 1500 {
				near++
				break
			}
		}
	}
	if near < n*6/10 {
		t.Fatalf("only %d/%d encampment captures near hotspots", near, n)
	}
}

func TestClassString(t *testing.T) {
	if BulkyItem.String() != "Bulky Item" || Clean.String() != "Clean" {
		t.Fatal("class names wrong")
	}
	if Class(99).String() != "Class(99)" {
		t.Fatal("unknown class name wrong")
	}
	if NumClasses != 5 {
		t.Fatalf("NumClasses = %d", NumClasses)
	}
}

func TestGenerateExplicitN(t *testing.T) {
	g := testGen(t, 100, 6)
	recs := g.Generate(7)
	if len(recs) != 7 {
		t.Fatalf("explicit n ignored: %d", len(recs))
	}
}

func TestGenerateFlight(t *testing.T) {
	g := testGen(t, 10, 20)
	start := geo.Point{Lat: 34.2, Lon: -118.4}
	fire := geo.Destination(start, 90, 600)
	cfg := DefaultFlightConfig(start, 1)
	cfg.Fire = &fire
	cfg.FireRadiusM = 60
	frames, err := g.GenerateFlight(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 30 {
		t.Fatalf("frames = %d", len(frames))
	}
	smokeCount := 0
	for i, f := range frames {
		if err := f.FOV.Validate(); err != nil {
			t.Fatalf("frame %d FOV: %v", i, err)
		}
		if f.Image.W != cfg.ImageSize {
			t.Fatalf("frame %d image size %d", i, f.Image.W)
		}
		if i > 0 {
			// Frames advance along the heading at speed*interval.
			d := geo.Haversine(frames[i-1].FOV.Camera, f.FOV.Camera)
			if math.Abs(d-40) > 1 {
				t.Fatalf("frame spacing = %.1f m, want 40", d)
			}
			if !f.CapturedAt.After(frames[i-1].CapturedAt) {
				t.Fatal("timestamps not increasing")
			}
		}
		if f.Smoke {
			smokeCount++
			// Ground truth consistency: the footprint covers the fire.
			if geo.Haversine(f.FOV.Camera, fire) > cfg.FootprintM+cfg.FireRadiusM+1 {
				t.Fatalf("frame %d marked smoke but far from fire", i)
			}
		}
	}
	// The leg passes over the fire: some but not all frames see smoke.
	if smokeCount == 0 || smokeCount == len(frames) {
		t.Fatalf("smoke frames = %d/%d", smokeCount, len(frames))
	}
	// No fire configured: no smoke anywhere.
	cfg2 := DefaultFlightConfig(start, 2)
	frames2, err := g.GenerateFlight(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames2 {
		if f.Smoke {
			t.Fatal("smoke without a fire")
		}
	}
}

func TestGenerateFlightValidation(t *testing.T) {
	g := testGen(t, 10, 21)
	start := geo.Point{Lat: 34.2, Lon: -118.4}
	bad := DefaultFlightConfig(start, 1)
	bad.Frames = 0
	if _, err := g.GenerateFlight(bad); err == nil {
		t.Fatal("0 frames accepted")
	}
	bad = DefaultFlightConfig(start, 1)
	bad.ImageSize = 4
	if _, err := g.GenerateFlight(bad); err == nil {
		t.Fatal("tiny image accepted")
	}
	bad = DefaultFlightConfig(geo.Point{Lat: 99}, 1)
	if _, err := g.GenerateFlight(bad); err == nil {
		t.Fatal("bad start accepted")
	}
	bad = DefaultFlightConfig(start, 1)
	bad.SpeedMps = 0
	if _, err := g.GenerateFlight(bad); err == nil {
		t.Fatal("zero speed accepted")
	}
}

func TestSmokeFramesAreVisuallyDistinct(t *testing.T) {
	g := testGen(t, 10, 22)
	// Grey smoke raises desaturated-bright pixel counts vs plain terrain.
	greyish := func(img *imagesim.Image) int {
		n := 0
		for _, p := range img.Pix {
			max := int(p.R)
			if int(p.G) > max {
				max = int(p.G)
			}
			if int(p.B) > max {
				max = int(p.B)
			}
			min := int(p.R)
			if int(p.G) < min {
				min = int(p.G)
			}
			if int(p.B) < min {
				min = int(p.B)
			}
			if max > 120 && max-min < 30 {
				n++
			}
		}
		return n
	}
	smokeTotal, clearTotal := 0, 0
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 10; i++ {
		smokeTotal += greyish(g.renderAerial(rng, 48, true))
		clearTotal += greyish(g.renderAerial(rng, 48, false))
	}
	if smokeTotal <= clearTotal {
		t.Fatalf("smoke frames not distinct: %d vs %d grey pixels", smokeTotal, clearTotal)
	}
}
