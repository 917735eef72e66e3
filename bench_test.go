package tvdp

// Benchmark harness: one testing.B target per paper figure and per
// DESIGN.md ablation. Figure benches report the headline quality numbers
// via b.ReportMetric so `go test -bench` output doubles as the
// reproduction record; `cmd/tvdp-bench` prints the full tables.

import (
	"context"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/edge"
	"repro/internal/experiments"
	"repro/internal/feature"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/ml"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/store"
	"repro/internal/synth"
)

// benchScale keeps the one-time corpus cost around half a minute; the
// full-scale run lives in cmd/tvdp-bench.
var benchScale = experiments.Scale{N: 500, BoWVocab: 48, CNNEpochs: 8, CNNAugment: 1, Seed: 1}

// The corpus is built once and shared by every figure benchmark, so it is
// read-only by contract: benchmarks must not mutate records, labels, split
// indices, or feature vectors. benchCorpus enforces the contract with a
// checksum taken right after the build and re-verified on every later use.
var (
	corpusOnce sync.Once
	corpus     *experiments.Corpus
	corpusErr  error
	corpusSum  uint64
)

// corpusChecksum folds every feature bit and label of the corpus into one
// FNV-1a hash.
func corpusChecksum(c *experiments.Corpus) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf)
	}
	for _, kind := range experiments.FeatureNames {
		for _, vec := range c.Features[kind] {
			for _, v := range vec {
				put(math.Float64bits(v))
			}
		}
	}
	for _, y := range c.Labels {
		put(uint64(y))
	}
	for _, i := range c.TrainIdx {
		put(uint64(i))
	}
	for _, i := range c.TestIdx {
		put(uint64(i))
	}
	return h.Sum64()
}

func benchCorpus(b *testing.B) *experiments.Corpus {
	b.Helper()
	corpusOnce.Do(func() {
		corpus, corpusErr = experiments.BuildCorpus(benchScale)
		if corpusErr == nil {
			corpusSum = corpusChecksum(corpus)
		}
	})
	if corpusErr != nil {
		b.Fatal(corpusErr)
	}
	if sum := corpusChecksum(corpus); sum != corpusSum {
		b.Fatalf("shared benchmark corpus was mutated (checksum %x, want %x): benchmarks must treat it as read-only", sum, corpusSum)
	}
	return corpus
}

// BenchmarkParCorpusBuild measures the data-parallel corpus pipeline
// (synthesis, BoW, kMeans, CNN training, feature extraction) and reports
// the wall-clock speedup of the default worker count over one worker. On a
// single-core machine the speedup hovers around 1.0; on >= 4 cores the
// fan-out stages dominate and the ratio climbs well above 2.
func BenchmarkParCorpusBuild(b *testing.B) {
	scale := experiments.Scale{N: 150, BoWVocab: 16, CNNEpochs: 2, CNNAugment: 0, Seed: 5}
	prev := par.SetWorkers(1)
	start := time.Now()
	ref, err := experiments.BuildCorpus(scale)
	if err != nil {
		b.Fatal(err)
	}
	serial := time.Since(start)
	par.SetWorkers(prev)
	b.ResetTimer()
	var c *experiments.Corpus
	for i := 0; i < b.N; i++ {
		c, err = experiments.BuildCorpus(scale)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Worker count must not change the output (the determinism contract).
	if corpusChecksum(c) != corpusChecksum(ref) {
		b.Fatal("parallel corpus differs from serial corpus")
	}
	parallel := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(float64(par.Workers()), "workers")
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup-x")
}

// BenchmarkFig6FeatureClassifierGrid reproduces Fig. 6: macro F1 of every
// (feature, classifier) pair. Reported metrics are the SVM column, the
// paper's headline (SIFT-BoW 0.64, CNN 0.83; ordering CNN > BoW > colour).
func BenchmarkFig6FeatureClassifierGrid(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	var r *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.RunFig6(c, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.F1[experiments.FeatureNames[0]]["SVM"], "F1-color-svm")
	b.ReportMetric(r.F1[experiments.FeatureNames[1]]["SVM"], "F1-siftbow-svm")
	b.ReportMetric(r.F1[experiments.FeatureNames[2]]["SVM"], "F1-cnn-svm")
}

// BenchmarkFig7PerCategoryF1 reproduces Fig. 7: per-category F1 of the
// SVM per feature family. Reported metrics are the CNN column's best
// (Overgrown Vegetation in the paper) and worst (Encampment) categories.
func BenchmarkFig7PerCategoryF1(b *testing.B) {
	c := benchCorpus(b)
	b.ResetTimer()
	var r *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.RunFig7(c)
		if err != nil {
			b.Fatal(err)
		}
	}
	cnn := r.F1[experiments.FeatureNames[2]]
	b.ReportMetric(cnn[int(synth.OvergrownVegetation)], "F1-cnn-vegetation")
	b.ReportMetric(cnn[int(synth.Encampment)], "F1-cnn-encampment")
}

// BenchmarkFig8EdgeInference reproduces Fig. 8: mean inference time per
// model and device. Reported metrics are the 224px latencies that anchor
// the paper's log plot (desktop tens of ms, RPI ~1.5 orders slower).
func BenchmarkFig8EdgeInference(b *testing.B) {
	var r *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig8(1, 50)
	}
	b.ReportMetric(r.MeanMs["MobileNetV1"]["Desktop"][3], "ms-mnv1-desktop")
	b.ReportMetric(r.MeanMs["MobileNetV1"]["Raspberry PI 3 B+"][3], "ms-mnv1-rpi")
	b.ReportMetric(r.MeanMs["InceptionV3"]["Raspberry PI 3 B+"][3], "ms-incv3-rpi")
}

// ---- A1: spatial index ablation ----

func spatialFixture(b *testing.B, n int) ([]index.SpatialItem, []geo.Rect) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	la := geo.Point{Lat: 34.0522, Lon: -118.2437}
	items := make([]index.SpatialItem, n)
	for i := range items {
		cam := geo.Destination(la, rng.Float64()*360, rng.Float64()*8000)
		f := geo.FOV{Camera: cam, Direction: rng.Float64() * 360, Angle: 60, Radius: 120}
		items[i] = index.SpatialItem{ID: uint64(i), Rect: f.SceneLocation()}
	}
	qs := make([]geo.Rect, 256)
	for i := range qs {
		c := geo.Destination(la, rng.Float64()*360, rng.Float64()*7000)
		qs[i] = geo.NewRect(geo.Destination(c, 315, 500), geo.Destination(c, 135, 500))
	}
	return items, qs
}

func BenchmarkA1SpatialIndexes_RTree(b *testing.B) {
	items, qs := spatialFixture(b, 20000)
	rt, err := index.NewRTree(index.DefaultRTreeConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, it := range items {
		if err := rt.Insert(it); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.SearchRect(qs[i%len(qs)])
	}
}

func BenchmarkA1SpatialIndexes_Grid(b *testing.B) {
	items, qs := spatialFixture(b, 20000)
	la := geo.Point{Lat: 34.0522, Lon: -118.2437}
	bounds := geo.NewRect(geo.Destination(la, 315, 12000), geo.Destination(la, 135, 12000))
	g, err := index.NewGrid(bounds, 64, 64)
	if err != nil {
		b.Fatal(err)
	}
	for _, it := range items {
		if err := g.Insert(it); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SearchRect(qs[i%len(qs)])
	}
}

func BenchmarkA1SpatialIndexes_Scan(b *testing.B) {
	items, qs := spatialFixture(b, 20000)
	s := index.NewLinearScan()
	for _, it := range items {
		s.Insert(it)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SearchRect(qs[i%len(qs)])
	}
}

// ---- A2: LSH vs exact visual search ----

func lshFixture(b *testing.B, n, dim int) (*index.LSH, [][]float64) {
	b.Helper()
	l, err := index.NewLSH(dim, index.DefaultLSHConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		v := make([]float64, dim)
		c := float64(i % 20)
		for j := range v {
			v[j] = c + rng.NormFloat64()*0.25
		}
		if err := l.Insert(uint64(i), v); err != nil {
			b.Fatal(err)
		}
	}
	qs := make([][]float64, 128)
	for i := range qs {
		v := make([]float64, dim)
		c := float64(i % 20)
		for j := range v {
			v[j] = c + rng.NormFloat64()*0.25
		}
		qs[i] = v
	}
	return l, qs
}

func BenchmarkA2LSHvsExact_LSH(b *testing.B) {
	l, qs := lshFixture(b, 20000, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.TopK(context.Background(), qs[i%len(qs)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkA2LSHvsExact_Exact(b *testing.B) {
	l, qs := lshFixture(b, 20000, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.ExactTopK(context.Background(), qs[i%len(qs)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- A3: hybrid vs two-phase spatial-visual ----

// hybridFixture mirrors the A3 ablation study's configuration:
// class-clustered 16-dim feature vectors. The hybrid tree's advantage
// depends on feature-space clusterability — its per-node feature boxes
// prune only when vectors cluster (as learned CNN features do); on
// illumination-dominated raw colour histograms the two-phase plan wins.
func hybridFixture(b *testing.B, n int) (*Platform, []geo.Rect, [][]float64) {
	b.Helper()
	const kind = string(feature.KindCNN)
	const dim = 16
	p, err := Open(Config{HybridKinds: []string{kind}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { p.Close() })
	g, err := synth.NewGenerator(synth.DefaultConfig(n, 3))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	clusterVec := func(cls int) []float64 {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64(cls) + rng.NormFloat64()*0.3
		}
		return v
	}
	for i, rec := range g.Generate(n) {
		id, err := p.Store.AddImage(store.Image{
			FOV: rec.FOV, Pixels: rec.Image, TimestampCapturing: rec.CapturedAt,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Store.PutFeature(id, kind, clusterVec(i%synth.NumClasses)); err != nil {
			b.Fatal(err)
		}
	}
	la := geo.Point{Lat: 34.0522, Lon: -118.2437}
	qs := make([]geo.Rect, 64)
	qvs := make([][]float64, 64)
	for i := range qs {
		c := geo.Destination(la, rng.Float64()*360, rng.Float64()*6000)
		qs[i] = geo.NewRect(geo.Destination(c, 315, 2500), geo.Destination(c, 135, 2500))
		qvs[i] = clusterVec(i % synth.NumClasses)
	}
	return p, qs, qvs
}

func BenchmarkA3HybridIndex_Hybrid(b *testing.B) {
	p, qs, qvs := hybridFixture(b, 4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(qs)
		if _, ok, err := p.Store.SearchHybrid(context.Background(), string(feature.KindCNN), qs[j], qvs[j], 10); err != nil || !ok {
			b.Fatalf("hybrid: ok=%v err=%v", ok, err)
		}
	}
}

func BenchmarkA3HybridIndex_TwoPhase(b *testing.B) {
	p, qs, qvs := hybridFixture(b, 4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(qs)
		if _, err := p.Query.TwoPhaseSpatialVisual(context.Background(), qs[j], string(feature.KindCNN), qvs[j], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- A4: crowdsourcing assignment strategies ----

func benchAssign(b *testing.B, strategy crowd.Strategy) {
	rng := rand.New(rand.NewSource(5))
	la := geo.Point{Lat: 34.0522, Lon: -118.2437}
	tasks := make([]crowd.Task, 60)
	for i := range tasks {
		tasks[i] = crowd.Task{ID: uint64(i + 1), Location: geo.Destination(la, rng.Float64()*360, rng.Float64()*1500)}
	}
	workers := make([]crowd.Worker, 15)
	for i := range workers {
		workers[i] = crowd.Worker{
			ID:         string(rune('A' + i)),
			Location:   geo.Destination(la, rng.Float64()*360, rng.Float64()*1500),
			MaxTravelM: 900, Capacity: 4,
		}
	}
	b.ResetTimer()
	var assigned int
	for i := 0; i < b.N; i++ {
		a, err := crowd.Assign(tasks, workers, strategy, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		assigned = a.Assigned()
	}
	b.ReportMetric(float64(assigned), "tasks-assigned")
}

func BenchmarkA4CrowdAssignment_Greedy(b *testing.B)  { benchAssign(b, crowd.StrategyGreedy) }
func BenchmarkA4CrowdAssignment_Entropy(b *testing.B) { benchAssign(b, crowd.StrategyEntropy) }
func BenchmarkA4CrowdAssignment_Random(b *testing.B)  { benchAssign(b, crowd.StrategyRandom) }

// ---- A5: edge data selection ----

func benchEdgeSelection(b *testing.B, strategy edge.SelectionStrategy) {
	const dim, classes = 12, 4
	task := func(n int, seed int64) ([][]float64, []int) {
		rng := rand.New(rand.NewSource(seed))
		var xs [][]float64
		var ys []int
		for i := 0; i < n; i++ {
			c := i % classes
			v := make([]float64, dim)
			for j := range v {
				v[j] = rng.NormFloat64() * 0.6
			}
			v[c] += 2.2
			xs = append(xs, v)
			ys = append(ys, c)
		}
		return xs, ys
	}
	testX, testY := task(150, 99)
	b.ResetTimer()
	var final float64
	for i := 0; i < b.N; i++ {
		seedX, seedY := task(16, 1)
		srv, err := edge.NewServer(dim, classes, 24, seedX, seedY, 2)
		if err != nil {
			b.Fatal(err)
		}
		var devices []*edge.Device
		for d := 0; d < 3; d++ {
			dev := &edge.Device{Profile: edge.Smartphone}
			x, y := task(40, int64(10+d))
			for j := range x {
				dev.Local = append(dev.Local, edge.Sample{Vec: x[j], Label: y[j]})
			}
			devices = append(devices, dev)
		}
		reports, err := edge.Loop(srv, devices, strategy, 8, 3, testX, testY, 3)
		if err != nil {
			b.Fatal(err)
		}
		final = reports[len(reports)-1].Accuracy
	}
	b.ReportMetric(final, "final-accuracy")
}

func BenchmarkA5EdgeSelection_Uncertainty(b *testing.B) {
	benchEdgeSelection(b, edge.SelectUncertainty)
}

func BenchmarkA5EdgeSelection_Random(b *testing.B) {
	benchEdgeSelection(b, edge.SelectRandom)
}

// ---- A7: text search ----

func textFixture(b *testing.B) (*index.Inverted, [][]string, []string) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	base := []string{"tent", "trash", "weeds", "couch", "clean", "graffiti", "street", "sidewalk"}
	vocab := make([]string, 0, len(base)*50)
	for _, w := range base {
		for d := 0; d < 50; d++ {
			vocab = append(vocab, w+string(rune('a'+d%26))+string(rune('a'+d/26)))
		}
	}
	ix := index.NewInverted()
	raw := make([][]string, 50000)
	for i := range raw {
		raw[i] = []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]}
		ix.Add(uint64(i), raw[i])
	}
	qs := make([]string, 256)
	for i := range qs {
		qs[i] = vocab[rng.Intn(len(vocab))]
	}
	return ix, raw, qs
}

func BenchmarkA7TextSearch_Inverted(b *testing.B) {
	ix, _, qs := textFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SearchAny([]string{qs[i%len(qs)]})
	}
}

func BenchmarkA7TextSearch_Scan(b *testing.B) {
	_, raw, qs := textFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		var hits []uint64
		for id, kws := range raw {
			for _, k := range kws {
				if k == q {
					hits = append(hits, uint64(id))
					break
				}
			}
		}
		_ = hits
	}
}

// ---- supporting micro-benchmarks ----

// BenchmarkFeatureExtraction measures the per-image cost of each feature
// family used in Fig. 6.
func BenchmarkFeatureExtraction_ColorHist(b *testing.B) {
	g, _ := synth.NewGenerator(synth.DefaultConfig(1, 8))
	img := g.Render(synth.Clean).Image
	ch := feature.NewColorHistogram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Extract(img); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFeatureExtraction_SIFT(b *testing.B) {
	g, _ := synth.NewGenerator(synth.DefaultConfig(1, 9))
	img := g.Render(synth.IllegalDumping).Image
	cfg := feature.DefaultSIFTConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := feature.DetectKeypoints(img, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCNNForward measures one convnet forward pass (the unit the
// Fig. 8 cost model abstracts).
func BenchmarkCNNForward(b *testing.B) {
	net := nn.BuildFeatureNet(nn.DefaultFeatureNetConfig(synth.NumClasses))
	x := make([]float64, nn.DefaultFeatureNetConfig(synth.NumClasses).In.Size())
	for i := range x {
		x[i] = float64(i%255) / 255
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVMFit measures one SVM fit at Fig. 6 training scale on
// 64-dim features.
func BenchmarkSVMFit(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	d := ml.Dataset{Classes: synth.NumClasses}
	for i := 0; i < 400; i++ {
		v := make([]float64, 64)
		c := i % synth.NumClasses
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		v[c] += 2
		d.X = append(d.X, v)
		d.Y = append(d.Y, c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf := ml.NewLinearSVM(ml.DefaultLinearConfig(1))
		if err := clf.Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- A8: CNN training augmentation ----

// BenchmarkA8Augmentation trains the CNN feature extractor with and
// without augmented copies and reports the SVM macro-F1 of each — the
// quality the §IV-B augmentation machinery buys.
func BenchmarkA8Augmentation(b *testing.B) {
	var r *experiments.A8Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.RunA8Augmentation(200, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.F1ByAugment[0], "F1-noaug")
	b.ReportMetric(r.F1ByAugment[2], "F1-aug2")
}
