package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/feature"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/ingest"
	"repro/internal/quant"
	qengine "repro/internal/query"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/vecmath"
)

// Shares of --seconds in the traced run. The first part drives a real child
// server open loop, as the untraced run does, for the figures that need the
// real process (tails, per-class latencies, counters, disk traffic). The rest
// runs the same layers in-process, where the benchmark can put decorators
// between them: one closed-loop client, so the spans of a request nest by
// time.
const (
	traceOpenShare   = 0.35
	traceHTTPShare   = 0.25
	tracePlainShare  = 0.10
	traceDirectShare = 0.15
	traceMicroShare  = 0.15
)

func share(seconds, s float64) time.Duration {
	return time.Duration(seconds * s * float64(time.Second))
}

// stack is the platform assembled in-process the way core.Open assembles it,
// twice over one store: once with the benchmark's decorators between the
// layers, once without (to measure what the decorators cost).
type stack struct {
	raw    store.Backend
	rec    *recorder
	tb     *tracedBackend
	traced side
	plain  side
}

// side is one api.Server over the store, listening on loopback.
type side struct {
	pipe *ingest.Pipeline
	http *http.Server
	url  string
}

// openStore opens dir the way the server's flags make core.Open open it.
func openStore(dir string, w *workload) (store.Backend, error) {
	if w.shards > 1 {
		return shard.Open(shard.Config{Dir: dir, ShardCount: w.shards})
	}
	cfg := store.DefaultConfig()
	cfg.Dir = dir
	return store.Open(cfg)
}

func newSide(st store.Backend, ex feature.Extractor, wrap func(http.Handler) http.Handler) (side, error) {
	svc := analysis.NewService(st)
	svc.RegisterExtractor(ex)
	pipe := ingest.New(st, svc, ingest.DefaultConfig())
	if err := pipe.Start(context.Background()); err != nil {
		return side{}, err
	}
	srv := api.NewServer(st, svc, pipe, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return side{}, errors.Join(err, pipe.Close())
	}
	hs := &http.Server{Handler: wrap(srv)}
	go hs.Serve(ln)
	return side{pipe: pipe, http: hs, url: "http://" + ln.Addr().String()}, nil
}

func (s side) close() error {
	return errors.Join(s.http.Close(), s.pipe.Close())
}

// openStack opens the workload's directory in-process and returns the stack
// and the time the open took, sweep of unextracted rows included.
func openStack(e *env) (*stack, time.Duration, error) {
	begin := time.Now()
	raw, err := openStore(e.dir, e.w)
	if err != nil {
		return nil, 0, err
	}
	s := &stack{raw: raw, rec: newRecorder()}
	s.tb = &tracedBackend{Backend: raw, r: s.rec}
	hist := feature.NewColorHistogram()
	if s.traced, err = newSide(s.tb, tracedExtractor{hist, s.rec}, func(h http.Handler) http.Handler { return traceHandler(s.rec, h) }); err != nil {
		return nil, 0, errors.Join(err, raw.Close())
	}
	if _, err := s.traced.pipe.Sweep(context.Background()); err != nil {
		return nil, 0, errors.Join(err, s.traced.close(), raw.Close())
	}
	opened := time.Since(begin)
	if s.plain, err = newSide(raw, hist, func(h http.Handler) http.Handler { return h }); err != nil {
		return nil, 0, errors.Join(err, s.traced.close(), raw.Close())
	}
	return s, opened, nil
}

func (s *stack) close() error {
	return errors.Join(s.traced.close(), s.plain.close(), s.raw.Close())
}

// opTransport stamps each request with the op index the generator is on.
type opTransport struct {
	base http.RoundTripper
	op   int64
}

func (t *opTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r.Header.Set(opHeader, strconv.FormatInt(t.op, 10))
	return t.base.RoundTrip(r)
}

// layerMetrics lists every per-layer metric with its unit; a traced run emits
// all of them, zero where a workload does not exercise the layer.
var layerMetrics = [][2]string{
	{"api.transport_ms", "ms"}, {"api.handler_self_ms", "ms"}, {"api.search_resp_bytes", "B"}, {"api.upload_decode_ms", "ms"},
	{"api.search_p50_ms", "ms"}, {"api.search_p95_ms", "ms"}, {"api.search_p99_ms", "ms"}, {"api.search_max_ms", "ms"},
	{"api.upload_ack_p50_ms", "ms"}, {"api.upload_ack_p95_ms", "ms"}, {"api.upload_ack_p99_ms", "ms"}, {"api.upload_ack_max_ms", "ms"},
	{"api.fetch_p50_ms", "ms"}, {"api.fetch_p95_ms", "ms"}, {"api.annotate_p50_ms", "ms"},
	{"api.requests", "count"}, {"api.failed", "count"}, {"api.shed_429", "count"},
	{"query.run_self_ms", "ms"}, {"query.candidates_per_result", "ratio"}, {"query.backend_calls_per_search", "count"},
	{"query.cache_hit_ratio", "ratio"}, {"query.cache_shared_ratio", "ratio"}, {"query.cache_hit_ms", "ms"},
	{"store.search_visual_ms", "ms"}, {"store.search_visual_quant_ms", "ms"}, {"store.search_scene_ms", "ms"},
	{"store.search_text_ms", "ms"}, {"store.search_time_ms", "ms"}, {"store.images_by_label_ms", "ms"},
	{"index.lsh_search_us", "us"}, {"index.quant_scan_us", "us"}, {"index.exact_scan_us", "us"}, {"index.rtree_range_us", "us"},
	{"index.inverted_lookup_us", "us"}, {"index.temporal_range_us", "us"}, {"index.hybrid_search_us", "us"},
	{"vecmath.sql2_ns_per_dim", "ns"}, {"vecmath.sql2_int8_ns_per_dim", "ns"}, {"quant.encode_us", "us"},
	{"index.lsh_insert_us", "us"}, {"index.rtree_insert_us", "us"},
	{"shard.search_ms", "ms"}, {"shard.add_image_ms", "ms"}, {"shard.row_skew", "ratio"},
	{"ingest.submit_async_ms", "ms"}, {"ingest.submit_sync_ms", "ms"}, {"ingest.index_lag_p50_ms", "ms"},
	{"ingest.drain_ms", "ms"}, {"ingest.shed_ratio", "ratio"}, {"ingest.swept", "count"},
	{"feature.color_hist_extract_ms", "ms"},
	{"store.add_image_ms", "ms"}, {"store.put_feature_ms", "ms"}, {"store.annotate_ms", "ms"},
	{"store.wal_ops_per_batch", "ratio"}, {"store.wal_fsyncs_per_op", "ratio"},
	{"store.flushes", "count"}, {"store.compactions", "count"}, {"store.segments", "count"}, {"store.segment_bytes", "B"},
	{"store.disk_bytes_per_user_byte", "ratio"}, {"store.write_bytes_per_user_byte", "ratio"},
	{"store.get_image_ms", "ms"}, {"store.open_ms", "ms"}, {"store.heap_bytes_per_image", "B"},
	{"loadgen.lateness_p95_ms", "ms"}, {"loadgen.trace_overhead_pct", "%"},
}

// runTraced is the run with tracing on: it produces every per-layer metric.
func runTraced(e *env, seconds float64) (*outcome, error) {
	out := &outcome{Correct: true, Metrics: map[string]metric{}}
	for _, m := range layerMetrics {
		out.set(m[0], 0, m[1])
	}
	set := func(name string, v float64) {
		m, ok := out.Metrics[name]
		if !ok {
			panic("bench: unlisted layer metric " + name)
		}
		m.Value = v
		out.Metrics[name] = m
	}
	if err := e.tracedServerPart(out, set, share(seconds, traceOpenShare)); err != nil {
		return nil, err
	}

	// The rest runs in this process, on the directory the killed server left.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st, opened, err := openStack(e)
	if err != nil {
		return nil, err
	}
	defer st.close()
	runtime.GC()
	runtime.ReadMemStats(&after)
	set("store.open_ms", ms(opened))
	if n := st.raw.NumImages(); n > 0 && after.HeapAlloc > before.HeapAlloc {
		set("store.heap_bytes_per_image", float64(after.HeapAlloc-before.HeapAlloc)/float64(n))
	}
	set("ingest.swept", float64(st.traced.pipe.Stats().Swept))

	// One closed-loop client against the decorated server, then against the
	// plain one: the difference is what tracing costs.
	tr := &opTransport{base: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
	client := func(url string) {
		c := api.NewClientTimeout(url, e.key, 20*time.Second)
		c.HTTP.Transport = tr
		e.clients = []*api.Client{c}
	}
	gen := func(i uint64) *op {
		o := e.w.gen(e, streamTrace, i, i%2 == 1)
		tr.op = int64(i)
		return o
	}
	client(st.traced.url)
	traced, _ := runClosed(share(seconds, traceHTTPShare), 1, gen, e.exec)
	out.count(traced)
	httpSpans := len(st.rec.snapshot())
	client(st.plain.url)
	plain, _ := runClosed(share(seconds, tracePlainShare), 1, gen, e.exec)
	out.count(plain)
	tr.base.(*http.Transport).CloseIdleConnections()
	e.clients = nil
	if a, b := percentile(latencies(traced, nil), 50), percentile(latencies(plain, nil), 50); b > 0 {
		set("loadgen.trace_overhead_pct", 100*(a-b)/b)
	}

	// The same op stream straight into the layers below the API.
	if err := e.directReplay(st, out, set, share(seconds, traceDirectShare)); err != nil {
		return nil, err
	}
	spans := st.rec.snapshot()
	e.spanMetrics(out, set, spans, httpSpans, traced)
	e.storeCounters(st, set)
	e.microMetrics(set, share(seconds, traceMicroShare))

	e.verifySamples(out)
	for _, f := range e.failures {
		out.notes = append(out.notes, "failed: "+f)
	}
	if out.Failed > 0 {
		out.Correct = false
	}
	return out, writeTrace(filepath.Join(e.paths.out, "trace-"+e.w.name+".json"), spans)
}

func writeTrace(path string, spans []span) error {
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// tracedServerPart drives a real child server open loop at the frozen rate
// and reports what only the real process can show.
func (e *env) tracedServerPart(out *outcome, set func(string, float64), dur time.Duration) error {
	if _, err := e.setup(0); err != nil {
		return err
	}
	e.connect()
	preloaded := dirBytes(e.dir)
	rate := e.w.rate * e.sc.rateScale
	out.count(runOpen(rate, warmup, loadWorkers, e.phase(streamWarm, false), e.exec))
	open := runOpen(rate, dur, loadWorkers, e.phase(streamOpen, false), e.exec)
	out.count(open)
	ended := time.Now()

	class := func(cs ...opClass) []float64 {
		return latencies(open, func(s sample) bool {
			for _, c := range cs {
				if s.class == c {
					return true
				}
			}
			return false
		})
	}
	for prefix, ls := range map[string][]float64{"api.search": class(clsSearch), "api.upload_ack": class(clsUpload)} {
		if len(ls) > 0 {
			set(prefix+"_p50_ms", percentile(ls, 50))
			set(prefix+"_p95_ms", percentile(ls, 95))
			set(prefix+"_p99_ms", percentile(ls, 99))
			set(prefix+"_max_ms", ls[len(ls)-1])
		}
	}
	set("api.fetch_p50_ms", percentile(class(clsMeta, clsPixels), 50))
	set("api.fetch_p95_ms", percentile(class(clsMeta, clsPixels), 95))
	set("api.annotate_p50_ms", percentile(class(clsAnnotate), 50))
	set("api.requests", float64(len(open)))
	set("api.failed", float64(countFailed(open)))
	set("api.shed_429", float64(e.shed429.Load()))
	if n := e.searches.Load(); n > 0 {
		set("query.cache_hit_ratio", float64(e.cacheHits.Load())/float64(n))
		set("query.cache_shared_ratio", float64(e.shared.Load())/float64(n))
	}
	set("loadgen.lateness_p95_ms", percentile(lateness(open), 95))
	out.notes = append(out.notes, fmt.Sprintf("server part: open loop %.0f/s for %s on %d connections, %d sent, %d failed", rate, dur, loadWorkers, len(open), countFailed(open)))

	if e.w.writes {
		// Drain: how long after the last arrival the pipeline still works.
		for {
			st, err := e.clients[0].IngestStats()
			if err != nil {
				return err
			}
			if st.Pending == 0 && st.Extracted+st.Failed >= st.Persisted {
				set("ingest.drain_ms", ms(time.Since(ended)))
				if st.Submitted > 0 {
					set("ingest.shed_ratio", float64(st.Shed)/float64(st.Submitted))
				}
				break
			}
			if time.Since(ended) > 30*time.Second {
				return fmt.Errorf("ingest pipeline did not drain in 30 s (%d pending)", st.Pending)
			}
			time.Sleep(time.Millisecond)
		}
		if user := float64(len(e.acks) * imageSide * imageSide * 3); user > 0 {
			set("store.disk_bytes_per_user_byte", float64(dirBytes(e.dir)-preloaded)/user)
			if wb, err := e.srv.writeBytes(); err == nil {
				set("store.write_bytes_per_user_byte", wb/user)
			}
		}
	}
	set("shard.row_skew", rowSkew(e.dir, e.w.shards))
	e.disconnect()
	e.srv.kill()
	e.srv = nil
	e.clients = nil
	return nil
}

// rowSkew is the largest shard directory over the mean shard directory, in
// bytes; 1 for a single store.
func rowSkew(dir string, shards int) float64 {
	if shards <= 1 {
		return 1
	}
	var max, sum float64
	for i := 0; i < shards; i++ {
		b := float64(dirBytes(filepath.Join(dir, fmt.Sprintf("shard-%03d", i))))
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(shards))
}

// engineQuery renders a query the way the search handler does.
func (q query) engineQuery() qengine.Query {
	out := qengine.Query{Limit: q.limit}
	if q.vec != nil {
		out.Visual = &qengine.VisualClause{Kind: featureKind, Vec: q.vec, K: topK, Quant: q.kind == qQuant}
	}
	if q.kind == qRectVisual || q.kind == qRect {
		r := q.rect
		out.Spatial = &qengine.SpatialClause{Rect: &r}
	}
	if q.kind == qTextTime || q.kind == qLabelTime {
		out.Temporal = &qengine.TemporalClause{From: q.from, To: q.to}
	}
	if q.kind == qTextTime {
		out.Textual = &qengine.TextualClause{Terms: q.terms}
	}
	if q.kind == qLabelTime {
		out.Categorical = &qengine.CategoricalClause{Classification: className, Label: classLabels[q.label]}
	}
	return out
}

// directReplay feeds the op stream to query.Engine.Run and to the pipeline's
// submit calls directly, with a root span around each, so their self time can
// be told from the store calls under them.
func (e *env) directReplay(st *stack, out *outcome, set func(string, float64), dur time.Duration) error {
	eng := qengine.NewCached(st.tb, 0)
	ctx := context.Background()
	var lags, decodes []float64
	var runs int
	calls := st.rec.calls.Load()
	begin := time.Now()
	for i := uint64(0); time.Since(begin) < dur; i++ {
		o := e.w.gen(e, streamTrace, i, i%2 == 1)
		out.Attempted++
		var err error
		switch o.class {
		case clsSearch:
			sctx, id, done := st.rec.root(ctx, int64(i), "query.run")
			var rs []qengine.Result
			var plan qengine.Plan
			rs, plan, err = eng.Run(sctx, o.q.engineQuery())
			if err == nil && strings.Contains(plan.String(), "result-cache hit") {
				st.rec.rename(id, "query.run_hit")
			}
			done(len(rs))
			runs++
		case clsUpload, clsUploadSync:
			// What the upload handler does before it reaches the pipeline:
			// decode the JSON body and the base64 raster.
			body, merr := json.Marshal(o.upload)
			if merr != nil {
				return merr
			}
			t0 := time.Now()
			var req api.UploadImageRequest
			if err = json.Unmarshal(body, &req); err != nil {
				break
			}
			img, derr := req.Pixels.Decode()
			if err = derr; err != nil {
				break
			}
			decodes = append(decodes, ms(time.Since(t0)))
			rec := ingest.Record{Image: store.Image{FOV: req.FOV.ToGeo(), Pixels: img, TimestampCapturing: req.CapturedAt, WorkerID: req.WorkerID}, Keywords: req.Keywords}
			var id uint64
			if o.class == clsUploadSync {
				sctx, _, done := st.rec.root(ctx, int64(i), "ingest.submit_sync")
				id, _, err = st.traced.pipe.SubmitSync(sctx, rec)
				done(1)
			} else {
				sctx, _, done := st.rec.root(ctx, int64(i), "ingest.submit_async")
				id, err = st.traced.pipe.SubmitAsync(sctx, rec)
				done(1)
				acked := time.Now()
				for err == nil && st.traced.pipe.Status(id).State != "done" {
					if time.Since(acked) > 10*time.Second {
						err = fmt.Errorf("image %d not indexed 10 s after its ack", id)
					}
					time.Sleep(50 * time.Microsecond)
				}
				lags = append(lags, ms(time.Since(acked)))
			}
			if err == nil {
				e.acks = append(e.acks, ack{id, streamTrace, i})
			}
		default:
			// Annotate and fetch have no layer of their own between the API
			// and the store; their store calls were traced in the HTTP part.
			out.Attempted--
			continue
		}
		if err != nil {
			out.Failed++
			e.fail(o, err)
		}
	}
	if runs > 0 {
		set("query.backend_calls_per_search", float64(st.rec.calls.Load()-calls)/float64(runs))
	}
	set("ingest.index_lag_p50_ms", median(lags))
	set("api.upload_decode_ms", median(decodes))
	return nil
}

// spanMetrics turns the recorded spans into the per-layer times. Times are
// medians in ms.
func (e *env) spanMetrics(out *outcome, set func(string, float64), spans []span, httpSpans int, traced []sample) {
	self := selfTimes(spans)
	by := map[string][]float64{}     // durations by span name
	selfBy := map[string][]float64{} // self times by span name
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		by[s.Name] = append(by[s.Name], ms(s.dur()))
		selfBy[s.Name] = append(selfBy[s.Name], ms(self[s.ID]))
	}
	// With one client the children of a span run one after another inside
	// it, so their durations plus the parent's self time must add up to the
	// parent; where they do not, spans overlapped and the shares are off.
	// The same pass counts what the store returned to each engine run.
	kidsDur := map[int32]time.Duration{}
	kidsItems := map[int32]int{}
	for _, s := range spans {
		if s.Parent != 0 && s.End > 0 {
			kidsDur[s.Parent] += s.dur()
			kidsItems[s.Parent] += s.Items
		}
	}
	var results, candidates int
	var worst float64
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		if d, ok := kidsDur[s.ID]; ok && s.dur() > 0 {
			worst = math.Max(worst, math.Abs(float64(d+self[s.ID]-s.dur()))/float64(s.dur()))
		}
		if s.Name == "query.run" {
			results += s.Items
			candidates += kidsItems[s.ID]
		}
	}
	if results > 0 {
		set("query.candidates_per_result", float64(candidates)/float64(results))
	}
	med := func(name string) float64 { return median(by[name]) }
	set("query.run_self_ms", median(selfBy["query.run"]))
	set("query.cache_hit_ms", med("query.run_hit"))
	for _, n := range []string{"search_visual", "search_visual_quant", "search_scene", "search_text", "search_time", "images_by_label", "add_image", "put_feature", "annotate", "get_image"} {
		set("store."+n+"_ms", med("store."+n))
	}
	set("feature.color_hist_extract_ms", med("feature.color_hist_extract"))
	set("ingest.submit_async_ms", med("ingest.submit_async"))
	set("ingest.submit_sync_ms", med("ingest.submit_sync"))
	if e.w.shards > 1 {
		var search []float64
		for name, ds := range by {
			if strings.HasPrefix(name, "store.search_") {
				search = append(search, ds...)
			}
		}
		set("shard.search_ms", median(search))
		set("shard.add_image_ms", med("store.add_image"))
	}

	// API: match each handler span of the HTTP part with what the client saw.
	client := map[int64]float64{}
	for i, s := range traced {
		client[int64(i)] = ms(s.end - s.start)
	}
	var transport, handlerSelf, respBytes []float64
	qself := median(selfBy["query.run"])
	if hit := median(selfBy["query.run_hit"]); e.w.name == "search_repeat" {
		qself = hit // nearly every search of this workload is a cache hit
	}
	shares := map[string]float64{}
	for _, s := range spans[:httpSpans] {
		if s.End == 0 {
			continue
		}
		layer := strings.SplitN(s.Name, ".", 2)[0]
		shares[layer] += ms(self[s.ID])
		if s.Parent != 0 || !strings.HasPrefix(s.Name, "api.handler") {
			continue
		}
		if c, ok := client[s.Req]; ok {
			transport = append(transport, c-ms(s.dur()))
		}
		hs := ms(self[s.ID])
		if strings.HasSuffix(s.Name, "/search") {
			respBytes = append(respBytes, float64(s.Items))
			// The engine cannot be wrapped inside the API server, so its own
			// time, measured by direct replay, is taken off here.
			q := qself
			if q > hs {
				q = hs
			}
			hs -= q
			shares["api"] -= q
			shares["query"] += q
		}
		handlerSelf = append(handlerSelf, hs)
	}
	set("api.transport_ms", median(transport))
	set("api.handler_self_ms", median(handlerSelf))
	set("api.search_resp_bytes", median(respBytes))

	var total float64
	for _, v := range shares {
		total += v
	}
	if total > 0 {
		layers := make([]string, 0, len(shares))
		for l := range shares {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return shares[layers[i]] > shares[layers[j]] })
		parts := make([]string, len(layers))
		for i, l := range layers {
			parts[i] = fmt.Sprintf("%s %.0f%%", l, 100*shares[l]/total)
		}
		out.notes = append(out.notes, "self-time shares of the traced HTTP part (store includes the indexes under it): "+strings.Join(parts, ", "))
	}
	out.notes = append(out.notes, fmt.Sprintf("%d spans recorded; children plus self time differ from the parent span by at most %.2g of it", len(spans), worst))
}

// storeCounters reads the Go-reachable counters of the in-process store.
func (e *env) storeCounters(st *stack, set func(string, float64)) {
	if s, ok := st.raw.(*store.Store); ok {
		w, g := s.WALStats(), s.EngineStats()
		if w.Batches > 0 {
			set("store.wal_ops_per_batch", float64(w.Ops)/float64(w.Batches))
		}
		if w.Ops > 0 {
			set("store.wal_fsyncs_per_op", float64(w.Fsyncs)/float64(w.Ops))
		}
		set("store.flushes", float64(g.Flushes))
		set("store.compactions", float64(g.Compactions))
	}
	// Segments are counted on disk, which also works over the coordinator.
	var segs, bytes float64
	filepath.Walk(e.dir, func(path string, fi os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(path, ".seg") {
			segs++
			bytes += float64(fi.Size())
		}
		return nil
	})
	set("store.segments", segs)
	set("store.segment_bytes", bytes)
}

// timeEach runs fn repeatedly for about dur and returns the median time of
// one call in microseconds.
func timeEach(dur time.Duration, fn func(i int)) float64 {
	var us []float64
	begin := time.Now()
	for i := 0; time.Since(begin) < dur || i < 3; i++ {
		t0 := time.Now()
		fn(i)
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(us)
}

// microRows caps the uploads added to the micro-benchmark's rows and the
// rows the hybrid tree holds (its inserts are the slowest of the five indexes);
// building the indexes must fit the time the traced run has.
const microRows = 4000

// sink receives the kernels' results so the compiler keeps the timed loops.
var sink float64

// microMetrics calls the index and kernel functions directly, on indexes built
// from the workload's own rows (the generator's copy, uploads included).
func (e *env) microMetrics(set func(string, float64), dur time.Duration) {
	rows := append([]row(nil), e.corpus.rows...)
	for _, a := range e.acks {
		if len(rows) >= microRows {
			break
		}
		base := e.up.pool[a.idx%uint64(len(e.up.pool))]
		rows = append(rows, row{id: a.id, scene: base.FOV.SceneLocation(), at: base.CapturedAt, kws: base.Keywords, vec: e.uploadVec(a.stream, a.idx)})
	}
	if len(rows) == 0 {
		return
	}
	lsh, _ := index.NewLSH(vecDim, index.DefaultLSHConfig(1))
	rt, _ := index.NewRTree(index.DefaultRTreeConfig())
	hy, _ := index.NewHybridTree(vecDim, index.DefaultRTreeConfig())
	inv, tmp := index.NewInverted(), index.NewTemporal()
	var lshIns, rtIns []float64
	for i, r := range rows {
		t0 := time.Now()
		lsh.Insert(r.id, r.vec)
		t1 := time.Now()
		rt.Insert(index.SpatialItem{ID: r.id, Rect: r.scene})
		t2 := time.Now()
		lshIns = append(lshIns, float64(t1.Sub(t0))/float64(time.Microsecond))
		rtIns = append(rtIns, float64(t2.Sub(t1))/float64(time.Microsecond))
		inv.Add(r.id, r.kws)
		tmp.Insert(r.id, r.at)
		if i < microRows {
			hy.Insert(index.HybridItem{ID: r.id, Rect: r.scene, Vec: r.vec})
		}
	}
	set("index.lsh_insert_us", median(lshIns))
	set("index.rtree_insert_us", median(rtIns))

	c := &corpus{rows: rows, noise: e.corpus.noise}
	qs := make([]query, 64)
	r := newRand(e.seed, streamTrace, 1)
	for i := range qs {
		qs[i] = c.genQuery(r)
		qs[i].vec = c.queryVec(r)
		ctr := rows[r.Intn(len(rows))].scene.Center()
		qs[i].rect = geo.NewRect(geo.Destination(ctr, 225, 700), geo.Destination(ctr, 45, 700))
		qs[i].from = rows[r.Intn(len(rows))].at
		qs[i].to = qs[i].from.Add(12 * time.Hour)
		qs[i].terms = rows[r.Intn(len(rows))].kws[:1]
	}
	ctx := context.Background()
	slot := dur / 11
	q := func(i int) *query { return &qs[i%len(qs)] }
	set("index.lsh_search_us", timeEach(slot, func(i int) { lsh.TopK(ctx, q(i).vec, topK) }))
	set("index.quant_scan_us", timeEach(slot, func(i int) { lsh.QuantTopK(ctx, q(i).vec, topK) }))
	set("index.exact_scan_us", timeEach(slot, func(i int) { lsh.ExactTopK(ctx, q(i).vec, topK) }))
	set("index.rtree_range_us", timeEach(slot, func(i int) { rt.SearchRect(q(i).rect) }))
	set("index.inverted_lookup_us", timeEach(slot, func(i int) { inv.SearchAny(q(i).terms) }))
	set("index.temporal_range_us", timeEach(slot, func(i int) { tmp.Range(q(i).from, q(i).to) }))
	set("index.hybrid_search_us", timeEach(slot, func(i int) { hy.SearchSpatialVisual(ctx, q(i).rect, q(i).vec, topK) }))

	// Kernels: a thousand calls a sample, so the clock is not what is timed.
	vecs := make([][]float64, 0, 1000)
	for i := 0; i < 1000; i++ {
		vecs = append(vecs, rows[i%len(rows)].vec)
	}
	qz, err := quant.Train(vecs, 0.25)
	if err != nil {
		return
	}
	codes := make([][]int8, len(vecs))
	for i, v := range vecs {
		codes[i], _ = qz.Encode(v)
	}
	lut, _ := qz.Table(qs[0].vec)
	perCall := float64(len(vecs)) * vecDim
	set("vecmath.sql2_ns_per_dim", 1000*timeEach(slot, func(int) {
		for _, v := range vecs {
			sink += vecmath.SquaredL2(qs[0].vec, v)
		}
	})/perCall)
	set("vecmath.sql2_int8_ns_per_dim", 1000*timeEach(slot, func(int) {
		for _, cd := range codes {
			sink += vecmath.SquaredL2Int8(cd, lut)
		}
	})/perCall)
	set("quant.encode_us", timeEach(slot, func(int) {
		for _, v := range vecs {
			cd, _ := qz.Encode(v)
			sink += float64(cd[0])
		}
	})/float64(len(vecs)))
}
