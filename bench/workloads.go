package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/store"
	"repro/internal/synth"
)

// Everything a run depends on is frozen here: corpus sizes, mixes, arrival
// rates and phase shares. The rates were chosen once, on the 2-core reference
// box at the commit that added the benchmark, as a round number near 40 % of
// each workload's closed-loop throughput; they are never computed at run
// time, so two commits always face the same offered load.

// loadWorkers is the number of generator connections (nproc of the reference
// box). All load comes from this one process.
const loadWorkers = 2

const (
	rasterSide = 8  // side of the seeded rasters of the search corpus
	imageSide  = 48 // side of the rendered images of the write workloads
)

// scale sizes one run. The full scale is what BENCHMARK.json measures; the
// smoke scale exists for the tests.
type scale struct {
	searchRows int     // rows preloaded for the two search workloads
	cityRows   int     // rendered records preloaded for mixed_city
	setups     int     // set-ups per run; setup_s is their median
	restarts   int     // kill/restart cycles per run; recovery_s is their median
	recallN    int     // queries of the recall pass
	rateScale  float64 // multiplies every frozen rate
}

var (
	fullScale  = scale{searchRows: 20000, cityRows: 3000, setups: 3, restarts: 3, recallN: 300, rateScale: 1}
	smokeScale = scale{searchRows: 2000, cityRows: 300, setups: 1, restarts: 1, recallN: 40, rateScale: 0.2}
)

// Shares of --seconds. A run with tracing off spends them on the open-loop
// phase and the closed-loop phase; one second of unmeasured warm-up at the
// open-loop rate precedes them.
const (
	openShare   = 0.6
	closedShare = 0.4
	warmup      = time.Second
)

type opClass uint8

const (
	clsSearch     opClass = iota
	clsUpload             // async: 202 at WAL commit
	clsUploadSync         // ?mode=sync: 201 when extracted and indexed
	clsAnnotate
	clsMeta
	clsPixels
	numClasses
)

var classNames = [numClasses]string{"search", "upload", "upload_sync", "annotate", "meta", "pixels"}

// op is one request, built by a workload's generator from (stream, index).
type op struct {
	class  opClass
	stream uint64
	idx    uint64
	q      *query
	search api.SearchRequest
	upload api.UploadImageRequest
	id     uint64 // target row of annotate, meta and pixels
	label  int
}

// workload is one traffic shape. See BENCHMARK.json for why each exists.
type workload struct {
	name       string
	shards     int
	serverArgs []string
	rate       float64 // open-loop arrivals per second (frozen)
	writes     bool    // uploads are acked, so the crash step verifies them
	// build generates the inputs and fills dir in-process; it is the part of
	// set-up that precedes starting the server.
	build func(e *env) error
	// gen returns request i of a stream. closed selects the closed-loop
	// variant where a workload has one.
	gen func(e *env, stream, i uint64, closed bool) *op
}

var workloads = []*workload{
	{name: "search_distinct", shards: 1, rate: 900, build: buildSearch,
		gen: func(e *env, stream, i uint64, _ bool) *op {
			q := e.corpus.genQuery(newRand(e.seed, stream, i))
			return &op{class: clsSearch, stream: stream, idx: i, q: &q, search: q.request()}
		}},
	{name: "search_repeat", shards: 1, rate: 3500, build: buildSearch,
		gen: func(e *env, stream, i uint64, _ bool) *op {
			return e.pooledSearch(newRand(e.seed, stream, i), stream, i)
		}},
	{name: "ingest_stream", shards: 1, rate: 450, writes: true, build: buildEmpty,
		gen: func(e *env, stream, i uint64, closed bool) *op {
			o := &op{class: clsUpload, stream: stream, idx: i, upload: e.up.request(stream, i)}
			if closed {
				o.class = clsUploadSync
			}
			return o
		}},
	{name: "mixed_city", shards: 4, rate: 1000, writes: true, build: buildCity,
		serverArgs: []string{"-shards", "4"},
		gen: func(e *env, stream, i uint64, _ bool) *op {
			r := newRand(e.seed, stream, i)
			switch p := r.Intn(100); {
			case p < 55:
				return e.pooledSearch(r, stream, i)
			case p < 70:
				return &op{class: clsUpload, stream: stream, idx: i, upload: e.up.request(stream, i)}
			case p < 80:
				return &op{class: clsAnnotate, stream: stream, idx: i, id: e.preloadedID(r), label: r.Intn(len(classLabels))}
			case p < 90:
				return &op{class: clsMeta, stream: stream, idx: i, id: e.preloadedID(r)}
			default:
				return &op{class: clsPixels, stream: stream, idx: i, id: e.preloadedID(r)}
			}
		}},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ack is one upload the server confirmed; (stream, idx) rebuild its image.
type ack struct {
	id, stream, idx uint64
}

// checked is a sampled search response kept for the oracle.
type checked struct {
	q    *query
	resp api.SearchResponse
}

// env is the state of one run of one workload.
type env struct {
	w         *workload
	sc        scale
	seed      int64
	paths     paths
	serverBin string
	runDir    string // removed when the run ends
	dir       string // the server's -dir
	key       string

	corpus *corpus  // the generator's copy of the preloaded rows
	pool   []query  // fixed query pool (search_repeat, mixed_city)
	up     *uploads // upload images (write workloads)

	srv     *server
	clients []*api.Client

	mu       sync.Mutex
	acks     []ack
	checks   []checked
	failures []string
	lastAck  [loadWorkers]uint64 // per connection, for the monotone-id check

	searches, cacheHits, shared atomic.Uint64
	shed429                     atomic.Uint64
}

const sampleEvery = 20 // every 20th search of a read-only workload goes to the oracle

func (e *env) fail(o *op, err error) {
	var ae *api.APIError
	if errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests {
		e.shed429.Add(1)
	}
	e.mu.Lock()
	if len(e.failures) < 8 {
		e.failures = append(e.failures, fmt.Sprintf("%s #%d: %v", classNames[o.class], o.idx, err))
	}
	e.mu.Unlock()
}

// pooledSearch draws from the fixed query pool with Zipf(1.1) popularity.
func (e *env) pooledSearch(r *rand.Rand, stream, i uint64) *op {
	q := &e.pool[rand.NewZipf(r, 1.1, 1, uint64(len(e.pool)-1)).Uint64()]
	return &op{class: clsSearch, stream: stream, idx: i, q: q, search: q.request()}
}

func (e *env) preloadedID(r *rand.Rand) uint64 {
	return e.corpus.rows[r.Intn(len(e.corpus.rows))].id
}

// exec sends one request on connection w and checks the reply. A transport
// error, a non-2xx status or a malformed answer is a failed operation.
func (e *env) exec(w int, o *op) bool {
	c := e.clients[w]
	var err error
	switch o.class {
	case clsSearch:
		var resp api.SearchResponse
		if resp, err = c.Search(o.search); err == nil {
			err = e.onSearch(o, resp)
		}
	case clsUpload, clsUploadSync:
		var resp api.UploadImageResponse
		if o.class == clsUpload {
			resp, err = c.UploadImageAsync(o.upload)
		} else {
			resp, err = c.UploadImage(o.upload)
		}
		if err == nil {
			err = e.onUpload(w, o, resp)
		}
	case clsAnnotate:
		err = c.Annotate(o.id, api.AnnotateRequest{Classification: className, Label: classLabels[o.label], Confidence: 1})
	case clsMeta:
		var m api.ImageMeta
		if m, err = c.GetImage(o.id); err == nil {
			want := e.corpus.row(o.id)
			if m.ID != o.id || !near(m.FOV.Lat, want.fov.Camera.Lat) || !near(m.FOV.Lon, want.fov.Camera.Lon) || !m.CapturedAt.Equal(want.at) {
				err = fmt.Errorf("metadata of image %d does not match what was stored", o.id)
			}
		}
	case clsPixels:
		var p api.PixelsDTO
		if p, err = c.GetPixels(o.id); err == nil {
			want := e.corpus.row(o.id).pix
			if p.W != want.W || p.H != want.H || len(p.Data) != (want.W*want.H*3+2)/3*4 {
				err = fmt.Errorf("pixels of image %d: %dx%d, %d base64 bytes", o.id, p.W, p.H, len(p.Data))
			}
		}
	}
	if err != nil {
		e.fail(o, err)
		return false
	}
	return true
}

func (e *env) onSearch(o *op, resp api.SearchResponse) error {
	e.searches.Add(1)
	switch {
	case strings.Contains(resp.Plan, "result-cache hit"):
		e.cacheHits.Add(1)
	case strings.Contains(resp.Plan, "shared in-flight"):
		e.shared.Add(1)
	}
	if !e.w.writes {
		// The corpus never changes, so the answer is known: keep every
		// 20th response for the oracle, which runs after the phase.
		if o.idx%sampleEvery == 0 {
			e.mu.Lock()
			e.checks = append(e.checks, checked{o.q, resp})
			e.mu.Unlock()
		}
		return nil
	}
	// Rows arrive while searches run, so only the form can be checked.
	limit := o.q.limit
	if o.q.vec != nil {
		limit = topK
	}
	if len(resp.Results) > limit {
		return fmt.Errorf("%s: %d hits, limit %d", qkindNames[o.q.kind], len(resp.Results), limit)
	}
	for _, h := range resp.Results {
		if h.ID == 0 || h.Score < 0 {
			return fmt.Errorf("%s: malformed hit (%d, %g)", qkindNames[o.q.kind], h.ID, h.Score)
		}
	}
	return nil
}

func (e *env) onUpload(w int, o *op, resp api.UploadImageResponse) error {
	if resp.ID <= e.lastAck[w] {
		return fmt.Errorf("upload acked id %d after %d on the same connection", resp.ID, e.lastAck[w])
	}
	if o.class == clsUpload && len(resp.PendingKinds) == 0 || o.class == clsUploadSync && len(resp.FeatureKinds) == 0 {
		return fmt.Errorf("upload %d acked without feature kinds", resp.ID)
	}
	e.lastAck[w] = resp.ID
	e.mu.Lock()
	e.acks = append(e.acks, ack{resp.ID, o.stream, o.idx})
	e.mu.Unlock()
	return nil
}

// ---- set-up: generating inputs and loading the directory in-process ----

// openLoader opens dir for bulk loading. Preloading is not what the workloads
// measure, so it skips per-batch durability and flushes once at the end.
func openLoader(dir string, shards int) (*core.Platform, string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	p, err := core.Open(core.Config{Dir: dir, ShardCount: shards, WALSync: store.SyncNone, FlushThreshold: 1 << 30})
	if err != nil {
		return nil, "", err
	}
	uid, err := p.Store.CreateUser("bench", "researcher")
	if err != nil {
		return nil, "", errors.Join(err, p.Close())
	}
	key, err := p.Store.IssueAPIKey(uid, time.Now())
	if err != nil {
		return nil, "", errors.Join(err, p.Close())
	}
	if _, err := p.CreateClassification(className, classLabels); err != nil {
		return nil, "", errors.Join(err, p.Close())
	}
	return p, key, nil
}

func closeLoader(p *core.Platform) error {
	if err := p.Store.Snapshot(); err != nil {
		return errors.Join(err, p.Close())
	}
	return p.Close()
}

// parallel runs f(i) for i in [0, n) on four goroutines and returns the first
// error.
func parallel(n int, f func(i int) error) error {
	const workers = 4
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n && errs[w] == nil; i += workers {
				errs[w] = f(i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// buildSearch preloads the seeded corpus of the two search workloads: vectors
// go in by PutFeature, so no extraction runs, and ids are assigned by the
// generator, so the same seed always serves the same store.
func buildSearch(e *env) error {
	e.corpus = genCorpus(e.seed, e.sc.searchRows)
	r := newRand(e.seed, streamPool, 0)
	e.pool = make([]query, 64)
	for i := range e.pool {
		e.pool[i] = e.corpus.genQuery(r)
	}
	p, key, err := openLoader(e.dir, 1)
	if err != nil {
		return err
	}
	e.key = key
	cls, err := p.Store.ClassificationByName(className)
	if err != nil {
		return errors.Join(err, p.Close())
	}
	err = parallel(len(e.corpus.rows), func(i int) error {
		row := &e.corpus.rows[i]
		img := store.Image{ID: row.id, FOV: row.fov, Pixels: raster(newRand(e.seed, streamImage, uint64(i)), rasterSide), TimestampCapturing: row.at}
		if _, err := p.Store.AddImage(img); err != nil {
			return err
		}
		if err := p.Store.PutFeature(row.id, featureKind, row.vec); err != nil {
			return err
		}
		if err := p.Store.AddKeywords(row.id, row.kws); err != nil {
			return err
		}
		return p.Store.Annotate(store.Annotation{ImageID: row.id, ClassificationID: cls.ID, Label: row.label, Confidence: 1, Source: store.SourceHuman, AnnotatedAt: row.at})
	})
	if err != nil {
		return errors.Join(err, p.Close())
	}
	return closeLoader(p)
}

// buildEmpty prepares ingest_stream: an empty durable directory holding only
// the account, and the pool of rendered scenes the uploads are cut from.
func buildEmpty(e *env) error {
	var err error
	if e.up, err = genUploads(e.seed, 1024, imageSide); err != nil {
		return err
	}
	e.corpus = &corpus{noise: 0}
	p, key, err := openLoader(e.dir, 1)
	if err != nil {
		return err
	}
	e.key = key
	return closeLoader(p)
}

// buildCity preloads mixed_city through the real ingest path: rendered
// records go through Platform.IngestRecord, so features are truly extracted,
// across four shards.
func buildCity(e *env) error {
	cfg := synth.DefaultConfig(e.sc.cityRows, e.seed)
	cfg.ImageSize = imageSide
	cfg.Workers = uploadWorkers
	g, err := synth.NewGenerator(cfg)
	if err != nil {
		return err
	}
	recs := g.Generate(e.sc.cityRows)
	if e.up, err = genUploads(e.seed+1, 64, imageSide); err != nil {
		return err
	}
	p, key, err := openLoader(e.dir, e.w.shards)
	if err != nil {
		return err
	}
	e.key = key
	// Ingest serially: ids then follow record order, which makes the store
	// the same on every run of a seed.
	hist := feature.NewColorHistogram()
	e.corpus = &corpus{rows: make([]row, len(recs)), noise: 0.002}
	ctx := context.Background()
	for i, rec := range recs {
		id, err := p.IngestRecord(ctx, rec)
		if err != nil {
			return errors.Join(err, p.Close())
		}
		if i == 0 {
			e.corpus.firstID = id
		}
		if id != e.corpus.firstID+uint64(i) {
			return errors.Join(fmt.Errorf("record %d got id %d, ids are not consecutive", i, id), p.Close())
		}
		if err := p.AnnotateHuman(id, className, int(rec.Class), rec.CapturedAt); err != nil {
			return errors.Join(err, p.Close())
		}
		vec, err := hist.Extract(rec.Image)
		if err != nil {
			return errors.Join(err, p.Close())
		}
		e.corpus.rows[i] = row{id: id, fov: rec.FOV, scene: rec.FOV.SceneLocation(), at: rec.CapturedAt, kws: rec.Keywords, label: int(rec.Class), vec: vec, pix: rec.Image}
	}
	r := newRand(e.seed, streamPool, 0)
	e.pool = make([]query, 256)
	for i := range e.pool {
		e.pool[i] = e.corpus.genQuery(r)
		if e.pool[i].kind == qTextTime {
			kws := e.corpus.rows[r.Intn(len(e.corpus.rows))].kws
			e.pool[i].terms = []string{kws[r.Intn(len(kws))]}
		}
	}
	return closeLoader(p)
}

// setup does one complete set-up — generate, load, start the server — and
// returns how long it took until the first authenticated 2xx.
func (e *env) setup(rep int) (time.Duration, error) {
	e.dir = filepath.Join(e.runDir, fmt.Sprintf("data-%d", rep))
	begin := time.Now()
	if err := e.w.build(e); err != nil {
		return 0, fmt.Errorf("building %s: %w", e.w.name, err)
	}
	srv, _, err := startServer(e.serverBin, e.dir, e.key, e.w.serverArgs...)
	if err != nil {
		return 0, err
	}
	e.srv = srv
	return time.Since(begin), nil
}

// connect gives each worker its own client with exactly one keep-alive
// connection.
func (e *env) connect() {
	e.clients = make([]*api.Client, loadWorkers)
	for i := range e.clients {
		c := api.NewClientTimeout(e.srv.baseURL, e.key, 20*time.Second)
		c.HTTP.Transport = &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		e.clients[i] = c
	}
	e.prime()
}

// prime sends one search over the whole capture period, alone, before any
// concurrent load. The temporal index sorts itself lazily on the first range
// query after a start, and it does so under the store's *read* lock
// (index.Temporal.ensureSorted from Store.SearchTime): two first queries
// arriving together sort the same slice at once and leave it corrupt, after
// which time-range queries silently lose hits for the life of the process.
// The benchmark found this (a text + time query of search_repeat answered 18,
// 0 or the correct 28 hits from run to run); it cannot fix it, since it may
// not change the program, so it makes sure the first sort happens alone.
// Failures here surface in the load phases, so the error is not handled.
func (e *env) prime() {
	q := query{kind: qTextTime, from: corpusStart.Add(-time.Hour), to: corpusStart.Add((corpusDays + 1) * 24 * time.Hour), terms: []string{word(0)}, limit: 1}
	_, _ = e.clients[0].Search(q.request())
}

func (e *env) disconnect() {
	for _, c := range e.clients {
		c.HTTP.CloseIdleConnections()
	}
}
