// Package synth generates the synthetic geo-tagged street-image corpus
// that stands in for the paper's 22K-image LASAN dataset (§VII-A). Each
// record carries real pixels rendered from a class-conditional scene
// model, a field-of-view spatial descriptor placed on a synthetic Los
// Angeles street grid with per-class geographic hotspots, capture/upload
// timestamps, and manual-style keywords.
//
// The scene model encodes class identity at three strengths on purpose:
//
//   - weakly in global colour (all classes share the street backdrop, and
//     encampment/dumping share a grey-blue object palette),
//   - moderately in local keypoint texture (object shapes differ), and
//   - strongly in mid-level structure (object geometry and placement),
//
// which is the property that lets the reproduction recover the paper's
// Fig. 6 ordering: CNN features > SIFT-BoW > colour histograms.
package synth

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/geo"
	"repro/internal/imagesim"
	"repro/internal/par"
)

// Class is a street-cleanliness label (paper Fig. 5).
type Class int

// The five LASAN cleanliness classes.
const (
	BulkyItem Class = iota
	IllegalDumping
	Encampment
	OvergrownVegetation
	Clean
	NumClasses int = iota
)

// ClassNames maps classes to the paper's display names.
var ClassNames = [...]string{
	"Bulky Item", "Illegal Dumping", "Encampment", "Overgrown Vegetation", "Clean",
}

// String implements fmt.Stringer.
func (c Class) String() string {
	if c < 0 || int(c) >= NumClasses {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return ClassNames[c]
}

// classKeywords seeds the manual textual descriptors per class.
var classKeywords = map[Class][]string{
	BulkyItem:           {"furniture", "couch", "mattress", "abandoned", "bulky"},
	IllegalDumping:      {"trash", "dumping", "bags", "debris", "litter"},
	Encampment:          {"tent", "homeless", "encampment", "shelter"},
	OvergrownVegetation: {"weeds", "vegetation", "overgrown", "plants"},
	Clean:               {"clean", "clear", "street"},
}

var commonKeywords = []string{"street", "sidewalk", "losangeles", "lasan", "survey"}

// GraffitiLabels is the label vocabulary of the orthogonal graffiti
// classification (§VII-B: "separate learning to identify graffiti using
// the same dataset").
var GraffitiLabels = []string{"No Graffiti", "Graffiti"}

// Record is one synthetic capture: the platform ingests these as if they
// arrived from the MediaQ-style mobile app.
type Record struct {
	Image *imagesim.Image
	Class Class
	// Graffiti marks scenes whose building band carries a spray tag —
	// an attribute orthogonal to the cleanliness class, supporting the
	// paper's multi-classification translational story.
	Graffiti   bool
	FOV        geo.FOV
	CapturedAt time.Time
	UploadedAt time.Time
	Keywords   []string
	// WorkerID identifies the simulated collection vehicle/phone.
	WorkerID string
}

// Config parameterises corpus generation.
type Config struct {
	Seed int64
	// N is the corpus size (paper: 22000; harness default is smaller).
	N int
	// ImageSize is the square pixel size of rendered scenes.
	ImageSize int
	// Center anchors the synthetic city.
	Center geo.Point
	// CityRadiusM bounds capture locations around the center.
	CityRadiusM float64
	// HotspotsPerClass controls geographic clustering: encampments and
	// dumping concentrate around this many per-class hotspots.
	HotspotsPerClass int
	// Start is the capture-period start; captures spread over Days.
	Start time.Time
	Days  int
	// Workers is the number of simulated capture devices.
	Workers int
}

// DefaultConfig returns the harness-scale configuration.
func DefaultConfig(n int, seed int64) Config {
	return Config{
		Seed: seed, N: n, ImageSize: 48,
		Center:      geo.Point{Lat: 34.0522, Lon: -118.2437},
		CityRadiusM: 8000, HotspotsPerClass: 4,
		Start: time.Date(2019, 1, 7, 6, 0, 0, 0, time.UTC), Days: 28,
		Workers: 12,
	}
}

// Generator renders class-conditional records deterministically.
type Generator struct {
	cfg      Config
	rng      *rand.Rand
	hotspots map[Class][]geo.Point
}

// NewGenerator validates the configuration and precomputes hotspots.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("synth: N = %d, want > 0", cfg.N)
	}
	if cfg.ImageSize < 16 {
		return nil, fmt.Errorf("synth: ImageSize = %d, want >= 16", cfg.ImageSize)
	}
	if err := cfg.Center.Validate(); err != nil {
		return nil, fmt.Errorf("synth: center: %w", err)
	}
	if cfg.CityRadiusM <= 0 {
		return nil, fmt.Errorf("synth: CityRadiusM = %v, want > 0", cfg.CityRadiusM)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Days <= 0 {
		cfg.Days = 1
	}
	if cfg.HotspotsPerClass <= 0 {
		cfg.HotspotsPerClass = 3
	}
	g := &Generator{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		hotspots: make(map[Class][]geo.Point),
	}
	for c := Class(0); int(c) < NumClasses; c++ {
		for i := 0; i < cfg.HotspotsPerClass; i++ {
			g.hotspots[c] = append(g.hotspots[c], g.randomCityPoint(g.rng, cfg.CityRadiusM*0.8))
		}
	}
	return g, nil
}

func (g *Generator) randomCityPoint(rng *rand.Rand, radius float64) geo.Point {
	brg := rng.Float64() * 360
	dist := math.Sqrt(rng.Float64()) * radius // uniform over the disc
	return geo.Destination(g.cfg.Center, brg, dist)
}

// location samples a capture point: clustered classes (encampment,
// dumping, vegetation) draw near a hotspot most of the time, others
// uniformly over the city.
func (g *Generator) location(rng *rand.Rand, c Class) geo.Point {
	clustered := c == Encampment || c == IllegalDumping || c == OvergrownVegetation
	if clustered && rng.Float64() < 0.8 {
		h := g.hotspots[c][rng.Intn(len(g.hotspots[c]))]
		brg := rng.Float64() * 360
		dist := math.Abs(rng.NormFloat64()) * 400
		return geo.Destination(h, brg, dist)
	}
	return g.randomCityPoint(rng, g.cfg.CityRadiusM)
}

// Generate renders n records (n <= 0 uses cfg.N) with a balanced class mix.
// Rendering fans out over the par worker pool: each record draws from its
// own rng seeded by splitting a per-call base seed with the record index,
// so the corpus is bit-identical for any worker count. The base seed is
// drawn serially from the generator's rng, so repeated Generate calls on
// one generator produce fresh (but still seed-deterministic) records.
func (g *Generator) Generate(n int) []Record {
	if n <= 0 {
		n = g.cfg.N
	}
	base := g.rng.Int63()
	out := make([]Record, n)
	par.For(n, func(i int) {
		rng := rand.New(rand.NewSource(par.SplitSeed(base, i)))
		out[i] = g.render(rng, Class(i%NumClasses))
	})
	return out
}

// Render produces one record of the given class using the generator's
// sequential rng. It is not safe for concurrent use; Generate is the
// parallel batch path.
func (g *Generator) Render(c Class) Record { return g.render(g.rng, c) }

// render produces one record of the given class, drawing all randomness
// from rng.
func (g *Generator) render(rng *rand.Rand, c Class) Record {
	// Graffiti is drawn independently of the cleanliness class, but
	// dirtier blocks are tagged more often (the correlation §VII-B's
	// cross-study looks for).
	pGraffiti := 0.12
	if c == IllegalDumping || c == Encampment {
		pGraffiti = 0.35
	}
	graffiti := rng.Float64() < pGraffiti
	img := g.renderScene(rng, c)
	if graffiti {
		g.renderGraffiti(rng, img)
	}
	cam := g.location(rng, c)
	capTime := g.cfg.Start.
		Add(time.Duration(rng.Intn(g.cfg.Days*24)) * time.Hour).
		Add(time.Duration(rng.Intn(3600)) * time.Second)
	upTime := capTime.Add(time.Duration(1+rng.Intn(240)) * time.Minute)
	kws := []string{commonKeywords[rng.Intn(len(commonKeywords))]}
	pool := classKeywords[c]
	kws = append(kws, pool[rng.Intn(len(pool))])
	if rng.Float64() < 0.5 {
		kws = append(kws, pool[rng.Intn(len(pool))])
	}
	if graffiti {
		kws = append(kws, "graffiti")
	}
	return Record{
		Image:    img,
		Class:    c,
		Graffiti: graffiti,
		FOV: geo.FOV{
			Camera:    cam,
			Direction: math.Floor(rng.Float64()*360*100) / 100,
			Angle:     40 + rng.Float64()*40,
			Radius:    60 + rng.Float64()*120,
		},
		CapturedAt: capTime,
		UploadedAt: upTime,
		Keywords:   dedupe(kws),
		WorkerID:   fmt.Sprintf("worker-%02d", rng.Intn(g.cfg.Workers)),
	}
}

func dedupe(ss []string) []string {
	seen := make(map[string]bool, len(ss))
	out := ss[:0]
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
