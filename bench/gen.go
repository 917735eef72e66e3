package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/api"
	"repro/internal/geo"
	"repro/internal/imagesim"
	"repro/internal/synth"
)

// The generator owns every input: given a seed it produces the same corpus,
// the same queries and the same upload images on every run, and it keeps its
// own copy of each row so that answers can be checked without asking the
// server what it stored.

// splitmix is a rand.Source64 that costs nothing to seed, so every operation
// can derive its own generator from (seed, stream, index) and the op stream
// is the same whichever worker happens to pick an index up.
type splitmix struct{ s uint64 }

func (r *splitmix) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
func (r *splitmix) Int63() int64 { return int64(r.Uint64() >> 1) }
func (r *splitmix) Seed(int64)   {}

// Streams keep the random sequences of unrelated purposes apart.
const (
	streamCorpus uint64 = iota + 1
	streamPool
	streamWarm
	streamOpen
	streamClosed
	streamRecall
	streamImage
	streamTrace
	streamVerify
)

func newRand(seed int64, stream, i uint64) *rand.Rand {
	src := &splitmix{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream<<56 ^ i*0xd1342543de82ef95}
	src.Uint64()
	return rand.New(src)
}

const (
	vecDim      = 50 // dimension of color_hist, the only feature kind served
	featureKind = "color_hist"
	className   = "scene"
	vocabSize   = 2000
	cityRadiusM = 8000
	corpusDays  = 28
	topK        = 10
)

var (
	cityCenter  = geo.Point{Lat: 34.0522, Lon: -118.2437}
	corpusStart = time.Date(2019, 1, 7, 6, 0, 0, 0, time.UTC)
	classLabels = []string{"bulky", "dumping", "encampment", "vegetation", "clean"}
)

// row is the generator's copy of one stored image.
type row struct {
	id    uint64
	fov   geo.FOV
	scene geo.Rect
	at    time.Time
	kws   []string
	label int
	vec   []float64
	// pix is kept only for rows made from rendered images (mixed_city),
	// where reads fetch pixels back.
	pix *imagesim.Image
}

// corpus is the preloaded data set of one workload.
type corpus struct {
	rows []row
	// firstID is the id of rows[0]; preloaded ids are consecutive.
	firstID uint64
	// noise is the per-dimension standard deviation added to a stored
	// vector to make a visual query that is near it but equal to none.
	noise float64
}

// row returns the preloaded row with the given id, or nil.
func (c *corpus) row(id uint64) *row {
	if id < c.firstID || id-c.firstID >= uint64(len(c.rows)) {
		return nil
	}
	return &c.rows[id-c.firstID]
}

func word(k uint64) string { return fmt.Sprintf("kw%04d", k) }

func randomFOV(r *rand.Rand) geo.FOV {
	cam := geo.Destination(cityCenter, r.Float64()*360, cityRadiusM*math.Sqrt(r.Float64()))
	return geo.FOV{Camera: cam, Direction: r.Float64() * 360, Angle: 60, Radius: 30 + 70*r.Float64()}
}

// genCorpus makes n rows: 50-dim vectors in 64 Gaussian clusters, three
// keywords each from a Zipf vocabulary, one of five labels, capture times
// spread over 28 days (all distinct, so time order is total), and FOVs over
// an 8 km disc.
func genCorpus(seed int64, n int) *corpus {
	r := newRand(seed, streamCorpus, 0)
	centers := make([][]float64, 64)
	for i := range centers {
		centers[i] = make([]float64, vecDim)
		for j := range centers[i] {
			centers[i][j] = r.NormFloat64() * 4
		}
	}
	zipf := rand.NewZipf(r, 1.1, 1, vocabSize-1)
	c := &corpus{rows: make([]row, n), firstID: 1, noise: 0.03}
	span := int64(corpusDays * 24 * 3600)
	for i := range c.rows {
		ctr := centers[r.Intn(len(centers))]
		vec := make([]float64, vecDim)
		for j := range vec {
			vec[j] = ctr[j] + r.NormFloat64()*0.1
		}
		fov := randomFOV(r)
		c.rows[i] = row{
			id:    uint64(i + 1),
			fov:   fov,
			scene: fov.SceneLocation(),
			at:    corpusStart.Add(time.Duration(r.Int63n(span))*time.Second + time.Duration(i)),
			kws:   []string{word(zipf.Uint64()), word(zipf.Uint64()), word(zipf.Uint64())},
			label: r.Intn(len(classLabels)),
			vec:   vec,
		}
	}
	return c
}

// raster fills a small image with seeded pixels; search workloads never read
// it back, it only gives the stored rows a realistic payload.
func raster(r *rand.Rand, side int) *imagesim.Image {
	img := imagesim.MustNew(side, side)
	for i := range img.Pix {
		v := r.Uint64()
		img.Pix[i] = imagesim.RGB{R: uint8(v), G: uint8(v >> 8), B: uint8(v >> 16)}
	}
	return img
}

// qkind is one of the six query shapes of the search mix.
type qkind uint8

const (
	qLSH qkind = iota
	qQuant
	qRectVisual
	qRect
	qTextTime
	qLabelTime
	numQKinds
)

var qkindNames = [numQKinds]string{"visual_lsh", "visual_quant", "rect_visual", "rect", "text_time", "label_time"}

// query is one search in the generator's own terms; request() renders it for
// the API and the oracle answers it from the generator's rows.
type query struct {
	kind     qkind
	vec      []float64
	rect     geo.Rect
	terms    []string
	from, to time.Time
	label    int
	limit    int
}

// genQuery draws one query of the search mix: 40 % visual top-10 (LSH), 15 %
// visual quant, 15 % rect + visual, 10 % rect, 10 % text + time, 10 % label +
// time. Every continuous parameter is random, so two draws are never the
// same query.
func (c *corpus) genQuery(r *rand.Rand) query {
	var q query
	switch p := r.Intn(100); {
	case p < 40:
		q.kind = qLSH
	case p < 55:
		q.kind = qQuant
	case p < 70:
		q.kind = qRectVisual
	case p < 80:
		q.kind = qRect
	case p < 90:
		q.kind = qTextTime
	default:
		q.kind = qLabelTime
	}
	if q.kind <= qRectVisual {
		q.vec = c.queryVec(r)
	}
	if q.kind == qRectVisual || q.kind == qRect {
		ctr := geo.Destination(cityCenter, r.Float64()*360, cityRadiusM*math.Sqrt(r.Float64()))
		half := 300 + 400*r.Float64()
		q.rect = geo.NewRect(geo.Destination(ctr, 225, half*math.Sqrt2), geo.Destination(ctr, 45, half*math.Sqrt2))
		q.limit = 50
	}
	if q.kind == qTextTime || q.kind == qLabelTime {
		q.from = corpusStart.Add(time.Duration(r.Int63n(int64((corpusDays*24 - 12) * time.Hour))))
		q.to = q.from.Add(12 * time.Hour)
		q.limit = 50
	}
	switch q.kind {
	case qTextTime:
		zipf := rand.NewZipf(r, 1.1, 1, vocabSize-1)
		q.terms = []string{word(zipf.Uint64()), word(zipf.Uint64())}
	case qLabelTime:
		q.label = r.Intn(len(classLabels))
	}
	return q
}

func (c *corpus) queryVec(r *rand.Rand) []float64 {
	base := c.rows[r.Intn(len(c.rows))].vec
	vec := make([]float64, len(base))
	for j := range vec {
		vec[j] = base[j] + r.NormFloat64()*c.noise
	}
	return vec
}

// The clause types of api.SearchRequest are anonymous, so the literals below
// have to spell them out.
func (q query) request() api.SearchRequest {
	var req api.SearchRequest
	req.Limit = q.limit
	if q.vec != nil {
		req.Visual = &struct {
			Kind   string    `json:"kind"`
			Vector []float64 `json:"vector"`
			K      int       `json:"k"`
			Exact  bool      `json:"exact,omitempty"`
			Quant  bool      `json:"quant,omitempty"`
		}{Kind: featureKind, Vector: q.vec, K: topK, Quant: q.kind == qQuant}
	}
	if q.kind == qRectVisual || q.kind == qRect {
		req.Spatial = &struct {
			MinLat float64 `json:"min_lat"`
			MinLon float64 `json:"min_lon"`
			MaxLat float64 `json:"max_lat"`
			MaxLon float64 `json:"max_lon"`
		}{q.rect.MinLat, q.rect.MinLon, q.rect.MaxLat, q.rect.MaxLon}
	}
	if q.kind == qTextTime || q.kind == qLabelTime {
		req.Temporal = &struct {
			From time.Time `json:"from"`
			To   time.Time `json:"to"`
		}{q.from, q.to}
	}
	if q.kind == qTextTime {
		req.Textual = &struct {
			Terms    []string `json:"terms"`
			MatchAll bool     `json:"match_all"`
		}{Terms: q.terms}
	}
	if q.kind == qLabelTime {
		req.Categorical = &struct {
			Classification string  `json:"classification"`
			Label          string  `json:"label"`
			MinConfidence  float64 `json:"min_confidence"`
		}{Classification: className, Label: classLabels[q.label]}
	}
	return req
}

// exactRequest asks for the full-precision top-k of vec, the search the crash
// step uses to find an image by its own feature.
func exactRequest(vec []float64) api.SearchRequest {
	req := query{kind: qLSH, vec: vec}.request()
	req.Visual.Exact = true
	return req
}

// uploads renders the images the write workloads send. A small pool of scenes
// is rendered once; upload i clones pool[i % len] and repaints a few pixels
// chosen by (stream, i), so every upload is a different image and the
// generator can rebuild any of them later from its index alone.
type uploads struct {
	seed int64
	pool []synth.Record
}

const uploadWorkers = 16

func genUploads(seed int64, poolSize, side int) (*uploads, error) {
	cfg := synth.DefaultConfig(poolSize, seed)
	cfg.ImageSize = side
	cfg.Workers = uploadWorkers
	g, err := synth.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	return &uploads{seed: seed, pool: g.Generate(poolSize)}, nil
}

// image rebuilds upload (stream, i).
func (u *uploads) image(stream, i uint64) *imagesim.Image {
	img := u.pool[i%uint64(len(u.pool))].Image.Clone()
	r := newRand(u.seed, streamImage, stream<<48^i)
	for k := 0; k < 24; k++ {
		img.Pix[r.Intn(len(img.Pix))] = imagesim.HSV{H: r.Float64() * 360, S: r.Float64(), V: r.Float64()}.ToRGB()
	}
	return img
}

func (u *uploads) request(stream, i uint64) api.UploadImageRequest {
	base := u.pool[i%uint64(len(u.pool))]
	return api.UploadImageRequest{
		FOV:        api.FOVFromGeo(base.FOV),
		Pixels:     api.EncodePixels(u.image(stream, i)),
		CapturedAt: base.CapturedAt.Add(time.Duration(i) * time.Second),
		Keywords:   base.Keywords,
		WorkerID:   fmt.Sprintf("w%02d", i%uploadWorkers),
	}
}
