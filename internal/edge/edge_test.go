package edge

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/nn"
)

func TestInferenceSimShapeMatchesFig8(t *testing.T) {
	sim := NewInferenceSim(1)
	// Desktop runs every model in under ~200 ms ("tens of milliseconds
	// in most cases").
	for _, m := range nn.Profiles() {
		lat := sim.MeanInfer(m, Desktop, 224, 20)
		if lat > 200*time.Millisecond {
			t.Fatalf("desktop %s latency = %v", m.Name, lat)
		}
	}
	// RPI needs thousands of ms for the heavy model.
	inc := sim.MeanInfer(nn.InceptionV3, RaspberryPi3B, 224, 20)
	if inc < time.Second {
		t.Fatalf("RPI InceptionV3 latency = %v, want seconds", inc)
	}
	// RPI is roughly 1.5 orders of magnitude slower than desktop.
	ratio := float64(sim.MeanInfer(nn.MobileNetV1, RaspberryPi3B, 224, 50)) /
		float64(sim.MeanInfer(nn.MobileNetV1, Desktop, 224, 50))
	if lg := math.Log10(ratio); lg < 1.0 || lg > 2.0 {
		t.Fatalf("RPI/desktop ratio = %.1fx (log10 %.2f), want ~1.5 orders", ratio, lg)
	}
	// Smartphone sits between.
	phone := sim.MeanInfer(nn.MobileNetV1, Smartphone, 224, 20)
	desk := sim.MeanInfer(nn.MobileNetV1, Desktop, 224, 20)
	rpi := sim.MeanInfer(nn.MobileNetV1, RaspberryPi3B, 224, 20)
	if !(desk < phone && phone < rpi) {
		t.Fatalf("ordering wrong: desktop %v phone %v rpi %v", desk, phone, rpi)
	}
}

func TestInferenceScalesWithImageSize(t *testing.T) {
	sim := NewInferenceSim(2)
	small := sim.MeanInfer(nn.InceptionV3, RaspberryPi3B, 128, 30)
	large := sim.MeanInfer(nn.InceptionV3, RaspberryPi3B, 224, 30)
	if large <= small {
		t.Fatalf("larger input not slower: %v vs %v", small, large)
	}
}

func TestDispatchPrefersAccuracyWithinBudget(t *testing.T) {
	sim := NewInferenceSim(3)
	// Desktop, generous budget: InceptionV3 (most accurate) wins.
	d, err := Dispatch(Desktop, nn.Profiles(), Constraints{MaxLatency: time.Second}, sim)
	if err != nil {
		t.Fatal(err)
	}
	if d.Model.Name != "InceptionV3" || !d.MetConstraints {
		t.Fatalf("desktop dispatch = %+v", d)
	}
	// RPI with a 1-second budget cannot run InceptionV3; a MobileNet is
	// chosen and among those that fit, V2 is more accurate.
	d, err = Dispatch(RaspberryPi3B, nn.Profiles(), Constraints{MaxLatency: time.Second}, sim)
	if err != nil {
		t.Fatal(err)
	}
	if d.Model.Name == "InceptionV3" {
		t.Fatalf("RPI dispatch chose InceptionV3 under 1s budget (lat %v)", d.EstimatedLatency)
	}
	if !d.MetConstraints {
		t.Fatalf("RPI dispatch should satisfy 1s with a MobileNet: %+v", d)
	}
}

func TestDispatchFallsBackToFastest(t *testing.T) {
	sim := NewInferenceSim(4)
	// Impossible budget: fall back to the fastest fitting model.
	d, err := Dispatch(RaspberryPi3B, nn.Profiles(), Constraints{MaxLatency: time.Microsecond}, sim)
	if err != nil {
		t.Fatal(err)
	}
	if d.MetConstraints {
		t.Fatal("microsecond budget cannot be met")
	}
	if d.Model.Name != "MobileNetV2" {
		t.Fatalf("fallback = %s, want the lightest model", d.Model.Name)
	}
}

func TestDispatchMemoryFilter(t *testing.T) {
	tiny := DeviceProfile{Name: "tiny", GFLOPS: 1, MemoryMB: 100}
	d, err := Dispatch(tiny, nn.Profiles(), Constraints{}, NewInferenceSim(5))
	if err != nil {
		t.Fatal(err)
	}
	// InceptionV3 needs 300 MB; only the MobileNets fit.
	if d.Model.MinMemoryMB > 100 {
		t.Fatalf("memory filter leaked %s", d.Model.Name)
	}
	none := DeviceProfile{Name: "none", GFLOPS: 1, MemoryMB: 10}
	if _, err := Dispatch(none, nn.Profiles(), Constraints{}, NewInferenceSim(5)); err == nil {
		t.Fatal("10 MB device should fit nothing")
	}
	if _, err := Dispatch(Desktop, nil, Constraints{}, nil); !errors.Is(err, ErrNoModels) {
		t.Fatal("empty registry accepted")
	}
}

// learnTask builds a linearly separable 3-class task over 8 dims.
func learnTask(n int, seed int64) (xs [][]float64, ys []int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		c := i % 3
		v := make([]float64, 8)
		for j := range v {
			v[j] = rng.NormFloat64() * 0.3
		}
		v[c] += 3
		xs = append(xs, v)
		ys = append(ys, c)
	}
	return xs, ys
}

func newTestServer(t *testing.T, seedN int) *Server {
	t.Helper()
	x, y := learnTask(seedN, 1)
	s, err := NewServer(8, 3, 16, x, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewServerValidation(t *testing.T) {
	x, y := learnTask(9, 1)
	if _, err := NewServer(0, 3, 8, x, y, 1); err == nil {
		t.Fatal("dim 0 accepted")
	}
	if _, err := NewServer(8, 1, 8, x, y, 1); err == nil {
		t.Fatal("1 class accepted")
	}
	if _, err := NewServer(8, 3, 8, nil, nil, 1); err == nil {
		t.Fatal("empty seed accepted")
	}
	if _, err := NewServer(8, 3, 8, x, y[:3], 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestServerIngestRetrains(t *testing.T) {
	s := newTestServer(t, 30)
	v1 := s.Version
	x, y := learnTask(9, 3)
	var samples []Sample
	for i := range x {
		samples = append(samples, Sample{Vec: x[i], Label: y[i]})
	}
	if err := s.Ingest(samples); err != nil {
		t.Fatal(err)
	}
	if s.Version != v1+1 {
		t.Fatalf("version = %d, want %d", s.Version, v1+1)
	}
	if err := s.Ingest([]Sample{{Vec: []float64{1}, Label: 0}}); err == nil {
		t.Fatal("bad dim accepted")
	}
	if err := s.Ingest([]Sample{{Vec: make([]float64, 8), Label: 9}}); err == nil {
		t.Fatal("bad label accepted")
	}
}

func TestSelectUncertaintyPrefersAmbiguous(t *testing.T) {
	s := newTestServer(t, 60)
	d := &Device{Profile: Smartphone}
	s.SyncDevice(d)
	// Local buffer: 5 easy samples (far from boundary) and 5 ambiguous
	// ones (between classes 0 and 1).
	for i := 0; i < 5; i++ {
		v := make([]float64, 8)
		v[0] = 5
		d.Local = append(d.Local, Sample{Vec: v, Label: 0})
	}
	for i := 0; i < 5; i++ {
		v := make([]float64, 8)
		v[0], v[1] = 1.5, 1.5
		d.Local = append(d.Local, Sample{Vec: v, Label: 0})
	}
	sel, bytes, err := d.Select(SelectUncertainty, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 5 {
		t.Fatalf("selected %d", len(sel))
	}
	if bytes != 5*VecBytes(8) {
		t.Fatalf("bytes = %d", bytes)
	}
	// All selected should be the ambiguous ones (v[0]==v[1]==1.5).
	for _, smp := range sel {
		if smp.Vec[0] != 1.5 {
			t.Fatalf("uncertainty selected an easy sample: %+v", smp.Vec)
		}
	}
	if len(d.Local) != 5 {
		t.Fatalf("local buffer = %d after selection", len(d.Local))
	}
}

func TestSelectErrorsAndEdgeCases(t *testing.T) {
	d := &Device{Profile: Desktop}
	if sel, b, err := d.Select(SelectRandom, 5, 1); err != nil || sel != nil || b != 0 {
		t.Fatal("empty buffer select should be a no-op")
	}
	d.Local = []Sample{{Vec: []float64{1}, Label: 0}}
	if _, _, err := d.Select(SelectUncertainty, 1, 1); err == nil {
		t.Fatal("uncertainty without model accepted")
	}
	if _, _, err := d.Select("bogus", 1, 1); err == nil {
		t.Fatal("bogus strategy accepted")
	}
	if sel, _, err := d.Select(SelectRandom, 0, 1); err != nil || sel != nil {
		t.Fatal("maxSamples=0 should be a no-op")
	}
}

func TestLoopImprovesAccuracy(t *testing.T) {
	// Seed the server with a tiny, noisy subset; edge devices hold the
	// bulk of the data. The loop should lift accuracy substantially.
	seedX, seedY := learnTask(12, 4)
	s, err := NewServer(8, 3, 16, seedX, seedY, 5)
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := learnTask(120, 6)
	var devices []*Device
	for i := 0; i < 3; i++ {
		d := &Device{Profile: Smartphone}
		x, y := learnTask(60, int64(10+i))
		for j := range x {
			d.Local = append(d.Local, Sample{Vec: x[j], Label: y[j]})
		}
		devices = append(devices, d)
	}
	reports, err := Loop(s, devices, SelectUncertainty, 10, 4, testX, testY, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) < 3 {
		t.Fatalf("rounds = %d", len(reports))
	}
	first, last := reports[0], reports[len(reports)-1]
	if last.Accuracy < first.Accuracy {
		t.Fatalf("accuracy fell: %v -> %v", first.Accuracy, last.Accuracy)
	}
	if last.Accuracy < 0.9 {
		t.Fatalf("final accuracy = %v", last.Accuracy)
	}
	// Feature uploads are much cheaper than raw images.
	for _, r := range reports[1:] {
		if r.Uploaded > 0 && r.UploadedBytes >= r.RawBytes {
			t.Fatalf("feature upload (%d B) not cheaper than raw (%d B)", r.UploadedBytes, r.RawBytes)
		}
	}
	if _, err := Loop(s, nil, SelectRandom, 1, 1, testX, testY, 1); err == nil {
		t.Fatal("no devices accepted")
	}
}

func TestLoopStopsWhenDrained(t *testing.T) {
	seedX, seedY := learnTask(12, 8)
	s, err := NewServer(8, 3, 16, seedX, seedY, 9)
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := learnTask(30, 10)
	d := &Device{Profile: Desktop}
	x, y := learnTask(6, 11)
	for j := range x {
		d.Local = append(d.Local, Sample{Vec: x[j], Label: y[j]})
	}
	reports, err := Loop(s, []*Device{d}, SelectRandom, 10, 10, testX, testY, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 drains the buffer; round 2 uploads nothing and stops.
	if len(reports) > 3 {
		t.Fatalf("drained loop ran %d rounds", len(reports))
	}
}

func TestDevicesList(t *testing.T) {
	ds := Devices()
	if len(ds) != 3 {
		t.Fatalf("devices = %d", len(ds))
	}
	if ds[0].Class != ClassDesktop || ds[1].Class != ClassRaspberry || ds[2].Class != ClassSmartphone {
		t.Fatal("device order wrong")
	}
}
