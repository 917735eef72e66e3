package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/crowd"
	"repro/internal/edge"
	"repro/internal/feature"
	"repro/internal/geo"
	"repro/internal/imagesim"
	"repro/internal/index"
	"repro/internal/ml"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/synth"
)

func queryEngine(st *store.Store) *query.Engine { return query.New(st) }

// Ablation studies for the design choices called out in DESIGN.md. Each
// returns a rendered table; timings use wall clock over repeated query
// batches (the root benchmarks re-expose the same inner loops under
// testing.B for precise numbers).

var laCenter = geo.Point{Lat: 34.0522, Lon: -118.2437}

func randomScenes(n int, seed int64) []index.SpatialItem {
	rng := rand.New(rand.NewSource(seed))
	items := make([]index.SpatialItem, n)
	for i := range items {
		cam := geo.Destination(laCenter, rng.Float64()*360, rng.Float64()*8000)
		f := geo.FOV{Camera: cam, Direction: rng.Float64() * 360, Angle: 40 + rng.Float64()*40, Radius: 60 + rng.Float64()*120}
		items[i] = index.SpatialItem{ID: uint64(i), Rect: f.SceneLocation()}
	}
	return items
}

func queryRects(n int, sizeM float64, seed int64) []geo.Rect {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geo.Rect, n)
	for i := range out {
		c := geo.Destination(laCenter, rng.Float64()*360, rng.Float64()*7000)
		out[i] = geo.NewRect(geo.Destination(c, 315, sizeM), geo.Destination(c, 135, sizeM))
	}
	return out
}

// A1Result compares spatial access paths.
type A1Result struct {
	N       int
	Queries int
	// QPS and mean hits per structure.
	QPS  map[string]float64
	Hits map[string]float64
}

// RunA1SpatialIndexes times range queries over the R-tree, the uniform
// grid, and a linear scan on an identical workload.
func RunA1SpatialIndexes(n, queries int, seed int64) (*A1Result, error) {
	items := randomScenes(n, seed)
	qs := queryRects(queries, 500, seed+1)

	rt, err := index.NewRTree(index.DefaultRTreeConfig())
	if err != nil {
		return nil, err
	}
	bounds := geo.NewRect(geo.Destination(laCenter, 315, 12000), geo.Destination(laCenter, 135, 12000))
	grid, err := index.NewGrid(bounds, 64, 64)
	if err != nil {
		return nil, err
	}
	scan := index.NewLinearScan()
	for _, it := range items {
		if err := rt.Insert(it); err != nil {
			return nil, err
		}
		if err := grid.Insert(it); err != nil {
			return nil, err
		}
		scan.Insert(it)
	}
	out := &A1Result{N: n, Queries: queries, QPS: map[string]float64{}, Hits: map[string]float64{}}
	run := func(name string, search func(geo.Rect) []uint64) {
		sw := startStopwatch()
		hits := 0
		for _, q := range qs {
			hits += len(search(q))
		}
		el := sw.elapsed()
		out.QPS[name] = float64(queries) / el.Seconds()
		out.Hits[name] = float64(hits) / float64(queries)
	}
	run("rtree", rt.SearchRect)
	run("grid", grid.SearchRect)
	run("scan", scan.SearchRect)
	return out, nil
}

// Render implements the table output.
func (r *A1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A1 — Spatial range query throughput (N=%d, %d queries)\n", r.N, r.Queries)
	for _, name := range []string{"rtree", "grid", "scan"} {
		fmt.Fprintf(&b, "%-8s %12.0f q/s  (mean hits %.1f)\n", name, r.QPS[name], r.Hits[name])
	}
	return b.String()
}

// A2Result compares LSH against exact scan for visual top-k.
type A2Result struct {
	N, Dim, K int
	Recall    float64
	LSHQPS    float64
	ExactQPS  float64
}

// RunA2LSHvsExact measures top-k recall and throughput of the LSH index
// against the exact linear scan on clustered vectors.
func RunA2LSHvsExact(n, dim, k, queries int, seed int64) (*A2Result, error) {
	lsh, err := index.NewLSH(dim, index.DefaultLSHConfig(seed))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	clusterOf := func(i int) float64 { return float64(i % 20) }
	for i := 0; i < n; i++ {
		v := make([]float64, dim)
		for j := range v {
			v[j] = clusterOf(i) + rng.NormFloat64()*0.25
		}
		if err := lsh.Insert(uint64(i), v); err != nil {
			return nil, err
		}
	}
	qs := make([][]float64, queries)
	for qi := range qs {
		v := make([]float64, dim)
		c := clusterOf(qi)
		for j := range v {
			v[j] = c + rng.NormFloat64()*0.25
		}
		qs[qi] = v
	}
	hits, total := 0, 0
	sw := startStopwatch()
	approx := make([][]index.Match, queries)
	for qi, q := range qs {
		ms, err := lsh.TopK(context.Background(), q, k)
		if err != nil {
			return nil, err
		}
		approx[qi] = ms
	}
	lshDur := sw.elapsed()
	sw = startStopwatch()
	for qi, q := range qs {
		exact, err := lsh.ExactTopK(context.Background(), q, k)
		if err != nil {
			return nil, err
		}
		aset := map[uint64]bool{}
		for _, m := range approx[qi] {
			aset[m.ID] = true
		}
		for _, m := range exact {
			total++
			if aset[m.ID] {
				hits++
			}
		}
	}
	exactDur := sw.elapsed()
	return &A2Result{
		N: n, Dim: dim, K: k,
		Recall:   float64(hits) / float64(total),
		LSHQPS:   float64(queries) / lshDur.Seconds(),
		ExactQPS: float64(queries) / exactDur.Seconds(),
	}, nil
}

// Render implements the table output.
func (r *A2Result) Render() string {
	return fmt.Sprintf(
		"A2 — LSH vs exact top-%d (N=%d, dim=%d)\nlsh    %12.0f q/s  recall %.3f\nexact  %12.0f q/s  recall 1.000\n",
		r.K, r.N, r.Dim, r.LSHQPS, r.Recall, r.ExactQPS)
}

// A3Result compares the hybrid tree against the two-phase plan.
type A3Result struct {
	N         int
	HybridQPS float64
	TwoQPS    float64
	Agreement float64
}

// RunA3Hybrid measures single-pass hybrid spatial-visual queries against
// the two-phase r-tree-filter + visual-re-rank plan over one store.
func RunA3Hybrid(n, queries int, seed int64) (*A3Result, error) {
	const kind = "color_hist"
	cfg := store.DefaultConfig()
	cfg.HybridKinds = []string{kind}
	st, err := store.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	g, err := synth.NewGenerator(synth.DefaultConfig(n, seed))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	dim := 16
	for i := 0; i < n; i++ {
		rec := g.Render(synth.Class(i % synth.NumClasses))
		id, err := st.AddImage(store.Image{FOV: rec.FOV, Pixels: rec.Image, TimestampCapturing: rec.CapturedAt})
		if err != nil {
			return nil, err
		}
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64(int(rec.Class)) + rng.NormFloat64()*0.3
		}
		if err := st.PutFeature(id, kind, v); err != nil {
			return nil, err
		}
	}
	eng := queryEngine(st)
	qs := queryRects(queries, 2500, seed+2)
	qvs := make([][]float64, queries)
	for i := range qvs {
		v := make([]float64, dim)
		c := float64(i % synth.NumClasses)
		for j := range v {
			v[j] = c + rng.NormFloat64()*0.3
		}
		qvs[i] = v
	}
	const k = 10
	agree, total := 0, 0
	sw := startStopwatch()
	hybridRes := make([][]uint64, queries)
	for i := range qs {
		ms, ok, err := st.SearchHybrid(context.Background(), kind, qs[i], qvs[i], k)
		if err != nil || !ok {
			return nil, fmt.Errorf("experiments: hybrid unavailable: %v", err)
		}
		ids := make([]uint64, len(ms))
		for j, m := range ms {
			ids[j] = m.ID
		}
		hybridRes[i] = ids
	}
	hybridDur := sw.elapsed()
	sw = startStopwatch()
	for i := range qs {
		rs, err := eng.TwoPhaseSpatialVisual(context.Background(), qs[i], kind, qvs[i], k)
		if err != nil {
			return nil, err
		}
		for j := range rs {
			total++
			if j < len(hybridRes[i]) && rs[j].ID == hybridRes[i][j] {
				agree++
			}
		}
	}
	twoDur := sw.elapsed()
	out := &A3Result{
		N:         n,
		HybridQPS: float64(queries) / hybridDur.Seconds(),
		TwoQPS:    float64(queries) / twoDur.Seconds(),
	}
	if total > 0 {
		out.Agreement = float64(agree) / float64(total)
	} else {
		out.Agreement = 1
	}
	return out, nil
}

// Render implements the table output.
func (r *A3Result) Render() string {
	return fmt.Sprintf(
		"A3 — Hybrid spatial-visual vs two-phase (N=%d)\nhybrid     %10.0f q/s\ntwo-phase  %10.0f q/s\nrank agreement %.3f\n",
		r.N, r.HybridQPS, r.TwoQPS, r.Agreement)
}

// A4Result compares crowdsourcing assignment strategies.
type A4Result struct {
	Rounds map[string]int
	Final  map[string]float64
	Travel map[string]float64
}

// RunA4Crowd runs the same campaign under each assignment strategy and
// reports rounds-to-target, final coverage, and total travel.
func RunA4Crowd(seed int64) (*A4Result, error) {
	out := &A4Result{Rounds: map[string]int{}, Final: map[string]float64{}, Travel: map[string]float64{}}
	region := geo.NewRect(geo.Destination(laCenter, 315, 1200), geo.Destination(laCenter, 135, 1200))
	for _, strat := range []crowd.Strategy{crowd.StrategyGreedy, crowd.StrategyEntropy, crowd.StrategyRandom} {
		model, err := crowd.NewCoverageModel(region, 8, 8, 1, 1)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		workers := make([]crowd.Worker, 10)
		for i := range workers {
			workers[i] = crowd.Worker{
				ID:         fmt.Sprintf("w%d", i),
				Location:   geo.Destination(laCenter, rng.Float64()*360, rng.Float64()*1500),
				MaxTravelM: 800,
				Capacity:   4,
			}
		}
		c := crowd.Campaign{ID: 1, Region: region, TargetCoverage: 0.95, MaxRounds: 12, Strategy: strat}
		runner, err := crowd.NewRunner(c, model, workers, crowd.DefaultCaptureFunc(2, 140, seed), nil, seed)
		if err != nil {
			return nil, err
		}
		reports, err := runner.Run()
		if err != nil {
			return nil, err
		}
		final := reports[len(reports)-1]
		out.Rounds[string(strat)] = final.Round
		out.Final[string(strat)] = final.Coverage
		travel := 0.0
		for _, rep := range reports {
			travel += rep.TravelM
		}
		out.Travel[string(strat)] = travel
	}
	return out, nil
}

// Render implements the table output.
func (r *A4Result) Render() string {
	var b strings.Builder
	b.WriteString("A4 — Campaign assignment strategies (target coverage 0.95)\n")
	for _, s := range []string{"greedy", "entropy", "random"} {
		fmt.Fprintf(&b, "%-8s rounds=%2d final=%.3f travel=%.0f m\n", s, r.Rounds[s], r.Final[s], r.Travel[s])
	}
	return b.String()
}

// A5Result compares edge data-selection strategies.
type A5Result struct {
	// AccuracyByRound[strategy] is the test accuracy per round.
	AccuracyByRound map[string][]float64
	// BytesPerRound is the per-round feature upload volume.
	BytesPerRound int64
	// RawBytesPerRound is the counterfactual raw-image volume.
	RawBytesPerRound int64
}

// RunA5EdgeSelection runs the crowd-learning loop with
// uncertainty-prioritised vs random selection on identical devices and
// data. The server's seed set covers only half the label space — the
// realistic cold-start of a crowd-sourced model — so selection quality
// determines how fast the missing classes are learned. Uploads are small
// per round to keep bandwidth (the paper's constraint) binding.
func RunA5EdgeSelection(seed int64) (*A5Result, error) {
	const dim, classes, perDevice, rounds = 12, 4, 4, 4
	makeTask := func(n int, s int64, classSet []int) ([][]float64, []int) {
		rng := rand.New(rand.NewSource(s))
		var xs [][]float64
		var ys []int
		for i := 0; i < n; i++ {
			c := classSet[i%len(classSet)]
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
	allClasses := []int{0, 1, 2, 3}
	testX, testY := makeTask(200, seed+50, allClasses)
	out := &A5Result{AccuracyByRound: map[string][]float64{}}
	for _, strat := range []edge.SelectionStrategy{edge.SelectUncertainty, edge.SelectRandom} {
		// Cold start: the server has seen classes 0 and 1 only.
		seedX, seedY := makeTask(16, seed, []int{0, 1})
		srv, err := edge.NewServer(dim, classes, 24, seedX, seedY, seed)
		if err != nil {
			return nil, err
		}
		var devices []*edge.Device
		for i := 0; i < 3; i++ {
			d := &edge.Device{Profile: edge.Smartphone}
			// Device data skews toward the classes the server already
			// knows; the informative minority is what selection must find.
			x, y := makeTask(50, seed+int64(i+1), []int{0, 1, 0, 1, 0, 1, 2, 3})
			for j := range x {
				d.Local = append(d.Local, edge.Sample{Vec: x[j], Label: y[j]})
			}
			devices = append(devices, d)
		}
		reports, err := edge.Loop(srv, devices, strat, perDevice, rounds, testX, testY, seed)
		if err != nil {
			return nil, err
		}
		var accs []float64
		for _, rep := range reports {
			accs = append(accs, rep.Accuracy)
			if rep.Round == 1 {
				out.BytesPerRound = rep.UploadedBytes
				out.RawBytesPerRound = rep.RawBytes
			}
		}
		out.AccuracyByRound[string(strat)] = accs
	}
	return out, nil
}

// Render implements the table output.
func (r *A5Result) Render() string {
	var b strings.Builder
	b.WriteString("A5 — Edge data selection: accuracy per round\n")
	for _, s := range []string{"uncertainty", "random"} {
		fmt.Fprintf(&b, "%-12s", s)
		for _, a := range r.AccuracyByRound[s] {
			fmt.Fprintf(&b, " %6.3f", a)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "feature upload per round: %d B (raw images would be %d B, %.0fx more)\n",
		r.BytesPerRound, r.RawBytesPerRound, float64(r.RawBytesPerRound)/float64(maxI64(r.BytesPerRound, 1)))
	return b.String()
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// A7Result compares the inverted index against a keyword scan.
type A7Result struct {
	Docs        int
	InvertedQPS float64
	ScanQPS     float64
}

// RunA7Text measures keyword query throughput with the inverted index
// against a naive per-document scan.
func RunA7Text(docs, queries int, seed int64) (*A7Result, error) {
	rng := rand.New(rand.NewSource(seed))
	// Realistic keyword vocabularies are wide: class words crossed with
	// street/neighbourhood qualifiers.
	base := []string{"tent", "trash", "weeds", "couch", "clean", "graffiti", "street", "sidewalk", "alley", "curb"}
	vocab := make([]string, 0, len(base)*50)
	for _, w := range base {
		for d := 0; d < 50; d++ {
			vocab = append(vocab, fmt.Sprintf("%s%02d", w, d))
		}
	}
	ix := index.NewInverted()
	raw := make([][]string, docs)
	for i := 0; i < docs; i++ {
		kws := []string{vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]}
		raw[i] = kws
		ix.Add(uint64(i), kws)
	}
	qs := make([]string, queries)
	for i := range qs {
		qs[i] = vocab[rng.Intn(len(vocab))]
	}
	sw := startStopwatch()
	for _, q := range qs {
		_ = ix.SearchAny([]string{q})
	}
	invDur := sw.elapsed()
	sw = startStopwatch()
	for _, q := range qs {
		var hits []uint64
		for i, kws := range raw {
			for _, k := range kws {
				if k == q {
					hits = append(hits, uint64(i))
					break
				}
			}
		}
		_ = hits
	}
	scanDur := sw.elapsed()
	return &A7Result{
		Docs:        docs,
		InvertedQPS: float64(queries) / invDur.Seconds(),
		ScanQPS:     float64(queries) / scanDur.Seconds(),
	}, nil
}

// Render implements the table output.
func (r *A7Result) Render() string {
	return fmt.Sprintf("A7 — Keyword search over %d docs\ninverted %12.0f q/s\nscan     %12.0f q/s\n",
		r.Docs, r.InvertedQPS, r.ScanQPS)
}

// A8Result measures what CNN training-time augmentation buys.
type A8Result struct {
	N int
	// F1 per augmentation level (augmented copies per training image).
	F1ByAugment map[int]float64
}

// RunA8Augmentation trains the CNN feature extractor with and without
// augmented training copies (the §IV-B augmented-image machinery) and
// compares SVM macro-F1 on the same test split.
func RunA8Augmentation(n int, seed int64) (*A8Result, error) {
	out := &A8Result{N: n, F1ByAugment: map[int]float64{}}
	for _, aug := range []int{0, 2} {
		s := Scale{N: n, BoWVocab: 16, CNNEpochs: 8, CNNAugment: aug, Seed: seed}
		c, err := buildCNNOnlyCorpus(s)
		if err != nil {
			return nil, err
		}
		train, test, err := c.datasets(string(feature.KindCNN))
		if err != nil {
			return nil, err
		}
		res, err := ml.Evaluate(ml.NewLinearSVM(ml.DefaultLinearConfig(seed)), train, test)
		if err != nil {
			return nil, err
		}
		out.F1ByAugment[aug] = res.MacroF1
	}
	return out, nil
}

// buildCNNOnlyCorpus is BuildCorpus minus the SIFT-BoW stage (the A8
// ablation only needs CNN features; BoW extraction dominates runtime).
func buildCNNOnlyCorpus(s Scale) (*Corpus, error) {
	g, err := synth.NewGenerator(synth.DefaultConfig(s.N, s.Seed))
	if err != nil {
		return nil, err
	}
	c := &Corpus{Scale: s, Records: g.Generate(s.N), Features: make(map[string][][]float64)}
	imgs := make([]*imagesim.Image, s.N)
	c.Labels = make([]int, s.N)
	for i, r := range c.Records {
		imgs[i] = r.Image
		c.Labels[i] = int(r.Class)
	}
	for i := 0; i < s.N; i++ {
		if (i/synth.NumClasses)%5 == 4 {
			c.TestIdx = append(c.TestIdx, i)
		} else {
			c.TrainIdx = append(c.TrainIdx, i)
		}
	}
	trainImgs := make([]*imagesim.Image, len(c.TrainIdx))
	trainLabels := make([]int, len(c.TrainIdx))
	for i, j := range c.TrainIdx {
		trainImgs[i] = imgs[j]
		trainLabels[i] = c.Labels[j]
	}
	cfg := feature.DefaultCNNTrainConfig(synth.NumClasses)
	cfg.Train.Epochs = s.CNNEpochs
	cfg.Augment = s.CNNAugment
	cfg.Train.Seed = s.Seed
	cfg.AugmentSeed = s.Seed
	cnn, err := feature.TrainCNN(context.Background(), trainImgs, trainLabels, cfg)
	if err != nil {
		return nil, err
	}
	feats, err := feature.ExtractAll(cnn, imgs)
	if err != nil {
		return nil, err
	}
	c.Features[string(feature.KindCNN)] = feats
	return c, nil
}

// Render implements the table output.
func (r *A8Result) Render() string {
	return fmt.Sprintf(
		"A8 — CNN training augmentation (N=%d)\nno augmentation   F1=%.3f\n2x augmentation   F1=%.3f\n",
		r.N, r.F1ByAugment[0], r.F1ByAugment[2])
}
