package main

import (
	"bytes"
	"context"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/feature"
	"repro/internal/geo"
	"repro/internal/imagesim"
	"repro/internal/index"
	"repro/internal/store"
)

// Tracing lives entirely in the benchmark: spans are recorded around the
// calls into each layer's public functions, by decorators the traced run puts
// between the layers. Nothing inside the program is instrumented.

// span is one timed call. Times are nanoseconds since the recorder started;
// parent is the id of the span that caused it (0 for a root), req the op
// index of the request it belongs to.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Items counts what the call returned (candidate ids, response bytes).
	Items int `json:"items,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	begin time.Time
	mu    sync.Mutex
	spans []span
	// byG maps a goroutine to the span it is serving, so calls that carry
	// no context (AddImage, PutFeature, GetImage …) still find their parent
	// when they run on the request's goroutine, and are roots when they run
	// on a pipeline worker.
	byG sync.Map
	// calls counts every backend call, including the per-candidate ones
	// (Describe, GetFeature) that are too hot to give spans.
	calls atomic.Int64
}

func newRecorder() *recorder { return &recorder{begin: time.Now()} }

type spanKey struct{}

// noCtx is what the decorators of context-less calls hand to child.
var noCtx = context.Background()

// start opens a span and returns its id. parent 0 makes a root.
func (r *recorder) start(parent int32, req int64, name string) int32 {
	now := int64(time.Since(r.begin))
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

// rename relabels an open span once its kind is known (a cache hit).
func (r *recorder) rename(id int32, name string) {
	r.mu.Lock()
	r.spans[id-1].Name = name
	r.mu.Unlock()
}

func (r *recorder) end(id int32, items int) {
	now := int64(time.Since(r.begin))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.spans[id-1].Items = items
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// goid returns the current goroutine's id, read from the first line of its
// stack trace ("goroutine 123 [running]:"). It costs about a microsecond and
// is only paid by calls that have no context to carry their parent.
func goid() int64 {
	var buf [32]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	b = b[:bytes.IndexByte(b, ' ')]
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// parentOf finds the span a call belongs to: the one in ctx if there is one,
// else the one bound to the calling goroutine, else none.
func (r *recorder) parentOf(ctx context.Context) (parent int32, req int64) {
	var id int32
	if v, ok := ctx.Value(spanKey{}).(int32); ok {
		id = v
	} else if v, ok := r.byG.Load(goid()); ok {
		id = v.(int32)
	} else {
		return 0, -1
	}
	r.mu.Lock()
	req = r.spans[id-1].Req
	r.mu.Unlock()
	return id, req
}

// root opens a root span on the calling goroutine and binds the goroutine to
// it; the returned context carries it and done closes it.
func (r *recorder) root(ctx context.Context, req int64, name string) (context.Context, int32, func(items int)) {
	id := r.start(0, req, name)
	g := goid()
	r.byG.Store(g, id)
	return context.WithValue(ctx, spanKey{}, id), id, func(items int) {
		r.byG.Delete(g)
		r.end(id, items)
	}
}

// child times fn as a child of whatever span the call belongs to.
func (r *recorder) child(ctx context.Context, name string, fn func() int) {
	parent, req := r.parentOf(ctx)
	id := r.start(parent, req, name)
	r.end(id, fn())
}

// selfTimes returns, for every span, its duration minus the part of that
// interval its children cover (children clipped to the parent, overlaps
// counted once). Spans still open are skipped.
func selfTimes(spans []span) map[int32]time.Duration {
	kids := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End > 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int32]time.Duration, len(spans))
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals within p.
func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < p.Start {
			a = p.Start
		}
		if b > p.End {
			b = p.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	// Insertion sort: a span has a handful of children.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].a < ivs[j-1].a; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var total, end int64
	end = p.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// ---- decorators ----

// opHeader carries the generator's op index to the handler wrapper, so a
// handler span can be matched with what the client observed.
const opHeader = "X-Bench-Op"

// traceHandler wraps the API server: one root span per request.
func traceHandler(r *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		op, err := strconv.ParseInt(req.Header.Get(opHeader), 10, 64)
		if err != nil {
			op = -1
		}
		ctx, _, done := r.root(req.Context(), op, "api.handler "+req.Method+" "+routeOf(req.URL.Path))
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, req.WithContext(ctx))
		done(cw.n)
	})
}

// routeOf replaces numeric path segments, so spans group by route.
func routeOf(path string) string {
	parts := strings.Split(path, "/")
	for i, p := range parts {
		if _, err := strconv.ParseUint(p, 10, 64); err == nil {
			parts[i] = "#"
		}
	}
	return strings.Join(parts, "/")
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

// tracedBackend times the store calls the workloads make. It embeds the
// interface, so methods it does not name pass through untimed.
type tracedBackend struct {
	store.Backend
	r *recorder
}

func matches(ms []index.Match, err error) int {
	if err != nil {
		return 0
	}
	return len(ms)
}

func (b *tracedBackend) SearchScene(ctx context.Context, rect geo.Rect) (ids []uint64, err error) {
	b.r.calls.Add(1)
	b.r.child(ctx, "store.search_scene", func() int { ids, err = b.Backend.SearchScene(ctx, rect); return len(ids) })
	return
}

func (b *tracedBackend) SearchVisual(ctx context.Context, kind string, vec []float64, k int) (ms []index.Match, err error) {
	b.r.calls.Add(1)
	b.r.child(ctx, "store.search_visual", func() int { ms, err = b.Backend.SearchVisual(ctx, kind, vec, k); return matches(ms, err) })
	return
}

func (b *tracedBackend) SearchVisualQuant(ctx context.Context, kind string, vec []float64, k int) (ms []index.Match, err error) {
	b.r.calls.Add(1)
	b.r.child(ctx, "store.search_visual_quant", func() int { ms, err = b.Backend.SearchVisualQuant(ctx, kind, vec, k); return matches(ms, err) })
	return
}

func (b *tracedBackend) SearchVisualExact(ctx context.Context, kind string, vec []float64, k int) (ms []index.Match, err error) {
	b.r.calls.Add(1)
	b.r.child(ctx, "store.search_visual_exact", func() int { ms, err = b.Backend.SearchVisualExact(ctx, kind, vec, k); return matches(ms, err) })
	return
}

func (b *tracedBackend) SearchText(ctx context.Context, terms []string) (ms []index.Match, err error) {
	b.r.calls.Add(1)
	b.r.child(ctx, "store.search_text", func() int { ms, err = b.Backend.SearchText(ctx, terms); return matches(ms, err) })
	return
}

func (b *tracedBackend) SearchTextAll(ctx context.Context, terms []string) (ms []index.Match, err error) {
	b.r.calls.Add(1)
	b.r.child(ctx, "store.search_text", func() int { ms, err = b.Backend.SearchTextAll(ctx, terms); return matches(ms, err) })
	return
}

func (b *tracedBackend) SearchTime(ctx context.Context, from, to time.Time) (ids []uint64, err error) {
	b.r.calls.Add(1)
	b.r.child(ctx, "store.search_time", func() int { ids, err = b.Backend.SearchTime(ctx, from, to); return len(ids) })
	return
}

func (b *tracedBackend) ImagesByLabel(classID uint64, label int) (ids []uint64) {
	b.r.calls.Add(1)
	b.r.child(noCtx, "store.images_by_label", func() int { ids = b.Backend.ImagesByLabel(classID, label); return len(ids) })
	return
}

func (b *tracedBackend) AddImage(img store.Image) (id uint64, err error) {
	b.r.calls.Add(1)
	b.r.child(noCtx, "store.add_image", func() int { id, err = b.Backend.AddImage(img); return 1 })
	return
}

func (b *tracedBackend) PutFeature(id uint64, kind string, vec []float64) (err error) {
	b.r.calls.Add(1)
	b.r.child(noCtx, "store.put_feature", func() int { err = b.Backend.PutFeature(id, kind, vec); return 1 })
	return
}

func (b *tracedBackend) AddKeywords(id uint64, words []string) (err error) {
	b.r.calls.Add(1)
	b.r.child(noCtx, "store.add_keywords", func() int { err = b.Backend.AddKeywords(id, words); return 1 })
	return
}

func (b *tracedBackend) Annotate(a store.Annotation) (err error) {
	b.r.calls.Add(1)
	b.r.child(noCtx, "store.annotate", func() int { err = b.Backend.Annotate(a); return 1 })
	return
}

func (b *tracedBackend) GetImage(id uint64) (img store.Image, err error) {
	b.r.calls.Add(1)
	b.r.child(noCtx, "store.get_image", func() int { img, err = b.Backend.GetImage(id); return 1 })
	return
}

// The per-candidate calls are counted, not timed: a span around each would
// cost more than the call.
func (b *tracedBackend) Describe(id uint64) (store.Descriptor, error) {
	b.r.calls.Add(1)
	return b.Backend.Describe(id)
}

func (b *tracedBackend) GetFeature(id uint64, kind string) ([]float64, error) {
	b.r.calls.Add(1)
	return b.Backend.GetFeature(id, kind)
}

// tracedExtractor times feature extraction.
type tracedExtractor struct {
	feature.Extractor
	r *recorder
}

func (x tracedExtractor) Extract(img *imagesim.Image) (vec []float64, err error) {
	x.r.child(noCtx, "feature.color_hist_extract", func() int { vec, err = x.Extractor.Extract(img); return 1 })
	return
}
