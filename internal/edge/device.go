// Package edge implements TVDP's Action service (paper §VI, Fig. 4): a
// capability-aware model dispatcher over heterogeneous edge devices, a
// calibrated inference-time simulator standing in for the paper's physical
// desktop / Raspberry Pi / smartphone testbed (Fig. 8), and the
// crowd-based learning loop that selects and uploads edge-collected data
// to improve the server model while accounting for bandwidth.
package edge

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/nn"
)

// DeviceClass groups devices by rough capability tier.
type DeviceClass string

// Device classes of the Fig. 8 evaluation.
const (
	ClassDesktop    DeviceClass = "desktop"
	ClassRaspberry  DeviceClass = "raspberry_pi"
	ClassSmartphone DeviceClass = "smartphone"
)

// DeviceProfile is the capability description the dispatcher reasons
// about: effective sustained compute, memory, network, and a fixed
// per-inference overhead.
type DeviceProfile struct {
	Name  string
	Class DeviceClass
	// GFLOPS is the effective sustained throughput for convnet inference
	// (calibrated so the simulated Fig. 8 matches the published shape:
	// desktop in tens of ms, RPI ~1.5 orders of magnitude slower).
	GFLOPS float64
	// MemoryMB bounds which models fit.
	MemoryMB float64
	// BandwidthMbps is the uplink used by the learning loop.
	BandwidthMbps float64
	// OverheadMs is the fixed per-inference runtime cost.
	OverheadMs float64
}

// The calibrated device set of Fig. 8.
var (
	Desktop = DeviceProfile{
		Name: "Desktop", Class: ClassDesktop,
		GFLOPS: 50, MemoryMB: 16000, BandwidthMbps: 100, OverheadMs: 2,
	}
	RaspberryPi3B = DeviceProfile{
		Name: "Raspberry PI 3 B+", Class: ClassRaspberry,
		GFLOPS: 1.2, MemoryMB: 900, BandwidthMbps: 20, OverheadMs: 30,
	}
	Smartphone = DeviceProfile{
		Name: "Smartphone", Class: ClassSmartphone,
		GFLOPS: 8, MemoryMB: 3000, BandwidthMbps: 30, OverheadMs: 8,
	}
)

// Devices returns the Fig. 8 device set in paper order.
func Devices() []DeviceProfile {
	return []DeviceProfile{Desktop, RaspberryPi3B, Smartphone}
}

// InferenceSim produces deterministic-but-jittered inference times from
// model FLOP counts and device throughput.
type InferenceSim struct {
	rng *rand.Rand
	// Jitter is the +- fraction of multiplicative noise per trial.
	Jitter float64
}

// NewInferenceSim returns a simulator with the given seed and 10% jitter.
func NewInferenceSim(seed int64) *InferenceSim {
	return &InferenceSim{rng: rand.New(rand.NewSource(seed)), Jitter: 0.1}
}

// Infer returns one simulated inference latency for the model on the
// device at the given square input size.
func (s *InferenceSim) Infer(m nn.ModelProfile, d DeviceProfile, imgSide int) time.Duration {
	flops := m.FLOPsAt(imgSide)
	base := flops/(d.GFLOPS*1e9) + d.OverheadMs/1000
	noise := 1 + (s.rng.Float64()*2-1)*s.Jitter
	return time.Duration(base * noise * float64(time.Second))
}

// MeanInfer returns the mean latency over trials.
func (s *InferenceSim) MeanInfer(m nn.ModelProfile, d DeviceProfile, imgSide, trials int) time.Duration {
	if trials <= 0 {
		trials = 1
	}
	var total time.Duration
	for i := 0; i < trials; i++ {
		total += s.Infer(m, d, imgSide)
	}
	return total / time.Duration(trials)
}

// Constraints bound a dispatch decision.
type Constraints struct {
	// MaxLatency is the acceptable per-inference latency (0 = unbounded).
	MaxLatency time.Duration
	// ImageSide is the input resolution the device will run.
	ImageSide int
	// Trials is the number of simulated trials for the latency estimate.
	Trials int
}

// ErrNoModels reports a dispatch over an empty registry.
var ErrNoModels = errors.New("edge: no models to dispatch")

// Decision records a dispatch outcome.
type Decision struct {
	Model nn.ModelProfile
	// EstimatedLatency is the simulated mean latency driving the choice.
	EstimatedLatency time.Duration
	// MetConstraints is false when no model satisfied the constraints
	// and the fastest-fitting fallback was chosen.
	MetConstraints bool
}

// Dispatch picks the most accurate model that fits the device's memory
// and the latency constraint; when none qualifies it falls back to the
// lowest-latency model that fits memory. This is the "smartly dispatching
// the suitable model based on resource capacities" behaviour of §VII.
func Dispatch(d DeviceProfile, models []nn.ModelProfile, c Constraints, sim *InferenceSim) (Decision, error) {
	if len(models) == 0 {
		return Decision{}, ErrNoModels
	}
	if c.ImageSide <= 0 {
		c.ImageSide = 224
	}
	if c.Trials <= 0 {
		c.Trials = 10
	}
	if sim == nil {
		sim = NewInferenceSim(1)
	}
	type scored struct {
		m   nn.ModelProfile
		lat time.Duration
	}
	var fits []scored
	for _, m := range models {
		if m.MinMemoryMB > d.MemoryMB {
			continue
		}
		fits = append(fits, scored{m: m, lat: sim.MeanInfer(m, d, c.ImageSide, c.Trials)})
	}
	if len(fits) == 0 {
		return Decision{}, fmt.Errorf("edge: no model fits %.0f MB on %s", d.MemoryMB, d.Name)
	}
	best := -1
	for i, f := range fits {
		if c.MaxLatency > 0 && f.lat > c.MaxLatency {
			continue
		}
		if best < 0 || f.m.BaseAccuracy > fits[best].m.BaseAccuracy {
			best = i
		}
	}
	if best >= 0 {
		return Decision{Model: fits[best].m, EstimatedLatency: fits[best].lat, MetConstraints: true}, nil
	}
	// Fallback: fastest model that fits memory.
	fast := 0
	for i, f := range fits {
		if f.lat < fits[fast].lat {
			fast = i
		}
	}
	return Decision{Model: fits[fast].m, EstimatedLatency: fits[fast].lat, MetConstraints: false}, nil
}
