package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// la is downtown Los Angeles, the anchor of every synthetic city in TVDP.
var la = Point{Lat: 34.0522, Lon: -118.2437}

func TestPointValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Point
		ok   bool
	}{
		{"origin", Point{0, 0}, true},
		{"la", la, true},
		{"north pole", Point{90, 0}, true},
		{"south pole", Point{-90, 0}, true},
		{"dateline", Point{0, 180}, true},
		{"lat too high", Point{90.01, 0}, false},
		{"lat too low", Point{-91, 0}, false},
		{"lon too high", Point{0, 180.5}, false},
		{"lon too low", Point{0, -181}, false},
		{"nan lat", Point{math.NaN(), 0}, false},
		{"nan lon", Point{0, math.NaN()}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.p.Validate()
			if (err == nil) != c.ok {
				t.Fatalf("Validate(%v) err=%v, want ok=%v", c.p, err, c.ok)
			}
		})
	}
}

func TestHaversineKnownDistances(t *testing.T) {
	ny := Point{Lat: 40.7128, Lon: -74.0060}
	d := Haversine(la, ny)
	// LA-NYC great circle is about 3936 km.
	if d < 3.90e6 || d > 3.97e6 {
		t.Fatalf("LA-NYC distance = %.0f m, want ~3936 km", d)
	}
	if Haversine(la, la) != 0 {
		t.Fatalf("self distance = %v, want 0", Haversine(la, la))
	}
}

func TestHaversineSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a := Point{Lat: rng.Float64()*170 - 85, Lon: rng.Float64()*358 - 179}
		b := Point{Lat: rng.Float64()*170 - 85, Lon: rng.Float64()*358 - 179}
		d1, d2 := Haversine(a, b), Haversine(b, a)
		if math.Abs(d1-d2) > 1e-6 {
			t.Fatalf("asymmetric haversine: %v vs %v", d1, d2)
		}
		if d1 < 0 {
			t.Fatalf("negative distance %v", d1)
		}
	}
}

func TestHaversineTriangleInequality(t *testing.T) {
	f := func(a1, o1, a2, o2, a3, o3 float64) bool {
		p := func(a, o float64) Point {
			return Point{Lat: math.Mod(math.Abs(a), 85), Lon: math.Mod(math.Abs(o), 179)}
		}
		x, y, z := p(a1, o1), p(a2, o2), p(a3, o3)
		return Haversine(x, z) <= Haversine(x, y)+Haversine(y, z)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		start := Point{Lat: rng.Float64()*120 - 60, Lon: rng.Float64()*340 - 170}
		brg := rng.Float64() * 360
		dist := rng.Float64() * 50000
		end := Destination(start, brg, dist)
		got := Haversine(start, end)
		if math.Abs(got-dist) > 1.0 { // within 1 m over <=50 km
			t.Fatalf("Destination dist mismatch: want %.3f got %.3f", dist, got)
		}
	}
}

func TestDestinationBearingConsistency(t *testing.T) {
	// Traveling east from LA should land east of LA at same-ish latitude.
	e := Destination(la, 90, 10000)
	if e.Lon <= la.Lon {
		t.Fatalf("eastward destination lon %v not > %v", e.Lon, la.Lon)
	}
	if math.Abs(e.Lat-la.Lat) > 0.01 {
		t.Fatalf("eastward destination changed latitude too much: %v", e.Lat)
	}
	b := Bearing(la, e)
	if AngularDiff(b, 90) > 1 {
		t.Fatalf("bearing to eastward point = %v, want ~90", b)
	}
}

func TestNormalizeBearing(t *testing.T) {
	cases := map[float64]float64{0: 0, 360: 0, -90: 270, 450: 90, 720.5: 0.5, -720: 0}
	for in, want := range cases {
		if got := NormalizeBearing(in); math.Abs(got-want) > 1e-9 {
			t.Errorf("NormalizeBearing(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestAngularDiff(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0}, {0, 180, 180}, {10, 350, 20}, {90, 270, 180}, {359, 1, 2},
	}
	for _, c := range cases {
		if got := AngularDiff(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("AngularDiff(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := AngularDiff(c.b, c.a); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("AngularDiff(%v,%v) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Point{2, 3}, Point{1, 5})
	want := Rect{MinLat: 1, MinLon: 3, MaxLat: 2, MaxLon: 5}
	if r != want {
		t.Fatalf("NewRect = %+v, want %+v", r, want)
	}
	if !r.Valid() {
		t.Fatal("rect should be valid")
	}
	if !r.Contains(Point{1.5, 4}) || r.Contains(Point{0, 4}) || r.Contains(Point{1.5, 6}) {
		t.Fatal("Contains wrong")
	}
	if c := r.Center(); c != (Point{1.5, 4}) {
		t.Fatalf("Center = %v", c)
	}
	if a := r.Area(); a != 2 {
		t.Fatalf("Area = %v, want 2", a)
	}
}

func TestRectSetOps(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{1, 1, 3, 3}
	c := Rect{5, 5, 6, 6}
	if !a.Intersects(b) || a.Intersects(c) {
		t.Fatal("Intersects wrong")
	}
	u := a.Union(b)
	if u != (Rect{0, 0, 3, 3}) {
		t.Fatalf("Union = %+v", u)
	}
	ix, ok := a.Intersection(b)
	if !ok || ix != (Rect{1, 1, 2, 2}) {
		t.Fatalf("Intersection = %+v ok=%v", ix, ok)
	}
	if _, ok := a.Intersection(c); ok {
		t.Fatal("disjoint intersection should be empty")
	}
	if got := a.OverlapArea(b); got != 1 {
		t.Fatalf("OverlapArea = %v, want 1", got)
	}
	if !u.ContainsRect(a) || !u.ContainsRect(b) {
		t.Fatal("union must contain operands")
	}
	if a.Enlargement(b) != u.Area()-a.Area() {
		t.Fatal("Enlargement identity broken")
	}
}

func TestRectUnionProperties(t *testing.T) {
	f := func(a1, o1, a2, o2, a3, o3, a4, o4 float64) bool {
		m := func(v float64) float64 { return math.Mod(v, 80) }
		r1 := NewRect(Point{m(a1), m(o1)}, Point{m(a2), m(o2)})
		r2 := NewRect(Point{m(a3), m(o3)}, Point{m(a4), m(o4)})
		u := r1.Union(r2)
		return u.ContainsRect(r1) && u.ContainsRect(r2) &&
			u.Area() >= r1.Area() && u.Area() >= r2.Area() &&
			u == r2.Union(r1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRectFromPoints(t *testing.T) {
	pts := []Point{{1, 2}, {-1, 5}, {0, 0}}
	r := RectFromPoints(pts)
	for _, p := range pts {
		if !r.Contains(p) {
			t.Fatalf("MBR %+v does not contain %v", r, p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RectFromPoints(nil) should panic")
		}
	}()
	RectFromPoints(nil)
}

func TestDistancePointRect(t *testing.T) {
	r := NewRect(Destination(la, 0, 100), Destination(la, 135, 100))
	if d := DistancePointRect(r.Center(), r); d != 0 {
		t.Fatalf("inside distance = %v, want 0", d)
	}
	far := Destination(la, 270, 5000)
	d := DistancePointRect(far, r)
	if d < 4000 || d > 6000 {
		t.Fatalf("outside distance = %v, want ~5000", d)
	}
}

func TestFOVValidate(t *testing.T) {
	good := FOV{Camera: la, Direction: 45, Angle: 60, Radius: 100}
	if err := good.Validate(); err != nil {
		t.Fatalf("good FOV rejected: %v", err)
	}
	bad := []FOV{
		{Camera: Point{100, 0}, Direction: 0, Angle: 60, Radius: 100},
		{Camera: la, Direction: -1, Angle: 60, Radius: 100},
		{Camera: la, Direction: 360, Angle: 60, Radius: 100},
		{Camera: la, Direction: 0, Angle: 0, Radius: 100},
		{Camera: la, Direction: 0, Angle: 361, Radius: 100},
		{Camera: la, Direction: 0, Angle: 60, Radius: 0},
		{Camera: la, Direction: 0, Angle: 60, Radius: -5},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("bad FOV %d accepted: %+v", i, f)
		}
	}
}

func TestFOVContains(t *testing.T) {
	f := FOV{Camera: la, Direction: 0, Angle: 90, Radius: 1000} // facing north
	if !f.Contains(la) {
		t.Fatal("camera location must be contained")
	}
	north := Destination(la, 0, 500)
	if !f.Contains(north) {
		t.Fatal("point straight ahead must be contained")
	}
	tooFar := Destination(la, 0, 1500)
	if f.Contains(tooFar) {
		t.Fatal("point beyond radius must not be contained")
	}
	behind := Destination(la, 180, 500)
	if f.Contains(behind) {
		t.Fatal("point behind camera must not be contained")
	}
	edge := Destination(la, 44, 500) // just inside the 45-degree half-angle
	if !f.Contains(edge) {
		t.Fatal("point just inside sector edge must be contained")
	}
	outside := Destination(la, 50, 500)
	if f.Contains(outside) {
		t.Fatal("point outside sector must not be contained")
	}
}

func TestFOVOmnidirectional(t *testing.T) {
	f := FOV{Camera: la, Direction: 0, Angle: 360, Radius: 300}
	for brg := 0.0; brg < 360; brg += 30 {
		if !f.Contains(Destination(la, brg, 200)) {
			t.Fatalf("360-degree FOV must contain bearing %v", brg)
		}
	}
}

func TestSceneLocationContainsSector(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		f := FOV{
			Camera:    Point{Lat: 34 + rng.Float64(), Lon: -118 + rng.Float64()},
			Direction: rng.Float64() * 360,
			Angle:     10 + rng.Float64()*350,
			Radius:    50 + rng.Float64()*2000,
		}
		mbr := f.SceneLocation()
		if !mbr.Contains(f.Camera) {
			t.Fatalf("scene MBR must contain camera: %+v", f)
		}
		// Every sampled visible point must be inside the MBR.
		half := f.Angle / 2
		for j := 0; j < 20; j++ {
			brg := NormalizeBearing(f.Direction - half + rng.Float64()*f.Angle)
			p := Destination(f.Camera, brg, rng.Float64()*f.Radius)
			if !mbr.Contains(p) {
				t.Fatalf("visible point %v outside scene MBR %+v (fov %+v)", p, mbr, f)
			}
		}
	}
}

func TestSceneLocationNorthFacingIncludesArcTop(t *testing.T) {
	f := FOV{Camera: la, Direction: 0, Angle: 90, Radius: 1000}
	mbr := f.SceneLocation()
	top := Destination(la, 0, 1000)
	if mbr.MaxLat < top.Lat-1e-9 {
		t.Fatalf("north-facing scene MBR MaxLat %v below arc top %v", mbr.MaxLat, top.Lat)
	}
}

func TestFOVIntersectsRect(t *testing.T) {
	f := FOV{Camera: la, Direction: 0, Angle: 60, Radius: 1000}
	ahead := Destination(la, 0, 600)
	r1 := NewRect(Destination(ahead, 315, 50), Destination(ahead, 135, 50))
	if !f.IntersectsRect(r1) {
		t.Fatal("rect straight ahead must intersect")
	}
	behind := Destination(la, 180, 600)
	r2 := NewRect(Destination(behind, 315, 50), Destination(behind, 135, 50))
	if f.IntersectsRect(r2) {
		t.Fatal("rect behind camera must not intersect")
	}
	// Rect containing the camera always intersects.
	r3 := NewRect(Destination(la, 315, 20), Destination(la, 135, 20))
	if !f.IntersectsRect(r3) {
		t.Fatal("rect containing camera must intersect")
	}
}

func TestFOVOverlap(t *testing.T) {
	f := FOV{Camera: la, Direction: 0, Angle: 60, Radius: 500}
	same := f
	if ov := f.Overlap(same); ov < 0.99 {
		t.Fatalf("identical FOVs overlap = %v, want ~1", ov)
	}
	opposite := FOV{Camera: la, Direction: 180, Angle: 60, Radius: 500}
	if ov := f.Overlap(opposite); ov > 0.2 {
		t.Fatalf("opposite-facing overlap = %v, want small", ov)
	}
	farAway := FOV{Camera: Destination(la, 90, 5000), Direction: 0, Angle: 60, Radius: 500}
	if ov := f.Overlap(farAway); ov != 0 {
		t.Fatalf("disjoint FOVs overlap = %v, want 0", ov)
	}
	// Overlap is symmetric.
	g := FOV{Camera: Destination(la, 0, 100), Direction: 20, Angle: 80, Radius: 400}
	if a, b := f.Overlap(g), g.Overlap(f); math.Abs(a-b) > 1e-9 {
		t.Fatalf("overlap not symmetric: %v vs %v", a, b)
	}
}

func TestFOVContainsImpliesSceneMBR(t *testing.T) {
	// Property: any point the FOV contains lies inside its scene MBR.
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 60; i++ {
		f := FOV{
			Camera:    Point{Lat: 33 + rng.Float64()*2, Lon: -119 + rng.Float64()*2},
			Direction: rng.Float64() * 360,
			Angle:     20 + rng.Float64()*340,
			Radius:    50 + rng.Float64()*1500,
		}
		mbr := f.SceneLocation()
		for j := 0; j < 20; j++ {
			p := Destination(f.Camera, rng.Float64()*360, rng.Float64()*f.Radius*1.2)
			if f.Contains(p) && !mbr.Contains(p) {
				t.Fatalf("contained point %v outside scene MBR %+v (fov %+v)", p, mbr, f)
			}
		}
	}
}

func TestIntersectsRectConsistentWithContains(t *testing.T) {
	// A degenerate rect at a contained point must intersect the FOV.
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 60; i++ {
		f := FOV{
			Camera:    Point{Lat: 34 + rng.Float64(), Lon: -118 + rng.Float64()},
			Direction: rng.Float64() * 360,
			Angle:     30 + rng.Float64()*300,
			Radius:    100 + rng.Float64()*800,
		}
		p := Destination(f.Camera, rng.Float64()*360, rng.Float64()*f.Radius)
		if !f.Contains(p) {
			continue
		}
		r := Rect{MinLat: p.Lat, MinLon: p.Lon, MaxLat: p.Lat, MaxLon: p.Lon}
		if !f.IntersectsRect(r) {
			t.Fatalf("FOV contains %v but IntersectsRect says no (fov %+v)", p, f)
		}
	}
}

// ContainsRect reports whether r fully contains o.
func (r Rect) ContainsRect(o Rect) bool {
	return o.MinLat >= r.MinLat && o.MaxLat <= r.MaxLat &&
		o.MinLon >= r.MinLon && o.MaxLon <= r.MaxLon
}
