package nn

import "math/rand"

// ModelProfile captures the published complexity characteristics of the
// pretrained architectures the paper transfers onto (MobileNetV1,
// MobileNetV2, InceptionV3). The edge component uses these profiles — not
// full re-implementations of the architectures — because Fig. 8 depends
// only on compute cost (FLOPs), memory footprint, and relative accuracy,
// and those are published constants of each architecture.
type ModelProfile struct {
	Name string
	// MFLOPsAt224 is the multiply-accumulate cost (in millions) of one
	// forward pass at 224x224 input.
	MFLOPsAt224 float64
	// ParamsM is the parameter count in millions.
	ParamsM float64
	// SizeMB is the serialized model size in megabytes (float32 weights).
	SizeMB float64
	// BaseAccuracy is the published ImageNet top-1 accuracy, used as a
	// relative quality prior when the dispatcher trades speed for quality.
	BaseAccuracy float64
	// MinMemoryMB is the working-set memory needed to run inference.
	MinMemoryMB float64
}

// Published profiles of the three architectures evaluated in Fig. 8.
var (
	MobileNetV1 = ModelProfile{
		Name: "MobileNetV1", MFLOPsAt224: 569, ParamsM: 4.2, SizeMB: 16.9,
		BaseAccuracy: 0.709, MinMemoryMB: 80,
	}
	MobileNetV2 = ModelProfile{
		Name: "MobileNetV2", MFLOPsAt224: 300, ParamsM: 3.4, SizeMB: 13.6,
		BaseAccuracy: 0.718, MinMemoryMB: 70,
	}
	InceptionV3 = ModelProfile{
		Name: "InceptionV3", MFLOPsAt224: 5700, ParamsM: 23.8, SizeMB: 95.2,
		BaseAccuracy: 0.779, MinMemoryMB: 300,
	}
)

// Profiles returns the Fig. 8 model set in paper order.
func Profiles() []ModelProfile {
	return []ModelProfile{MobileNetV1, MobileNetV2, InceptionV3}
}

// FLOPsAt returns the forward-pass cost at a square input of the given
// side, scaling quadratically with resolution as convolutions do.
func (p ModelProfile) FLOPsAt(side int) float64 {
	r := float64(side) / 224
	return p.MFLOPsAt224 * 1e6 * r * r
}

// FeatureNetConfig sizes the small trainable convnet that produces TVDP's
// "CNN features".
type FeatureNetConfig struct {
	In       Shape // input volume, e.g. {3, 32, 32}
	Conv1    int   // channels of first conv block
	Conv2    int   // channels of second conv block
	Hidden   int   // penultimate dense width == CNN feature dimension
	Classes  int
	KernelSz int
	Seed     int64
}

// DefaultFeatureNetConfig returns the configuration used by the Fig. 6/7
// harness: a 2-conv-block network over 32x32 RGB crops with a 64-d
// penultimate feature layer.
func DefaultFeatureNetConfig(classes int) FeatureNetConfig {
	return FeatureNetConfig{
		In:    Shape{C: 3, H: 32, W: 32},
		Conv1: 8, Conv2: 16, Hidden: 64,
		Classes: classes, KernelSz: 3, Seed: 1,
	}
}

// BuildFeatureNet constructs conv→relu→pool→conv→relu→pool→dense→relu→dense.
// FeatureVector(x, 1) on the result yields the post-ReLU penultimate
// activations (the stored CNN feature).
func BuildFeatureNet(cfg FeatureNetConfig) *Network {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := NewNetwork(cfg.In)
	s := cfg.In
	c1 := NewConv2D(s, cfg.Conv1, cfg.KernelSz, rng)
	s = c1.OutShape(s)
	p1 := NewMaxPool2(s)
	s = p1.OutShape(s)
	c2 := NewConv2D(s, cfg.Conv2, cfg.KernelSz, rng)
	s = c2.OutShape(s)
	p2 := NewMaxPool2(s)
	s = p2.OutShape(s)
	d1 := NewDense(s.Size(), cfg.Hidden, rng)
	d2 := NewDense(cfg.Hidden, cfg.Classes, rng)
	return n.Add(c1, NewReLU(), p1, c2, NewReLU(), p2, d1, NewReLU(), d2)
}

// BuildMLP constructs a dense in→hidden→classes classifier head; the edge
// crowd-learning loop retrains these cheap heads over extracted features.
func BuildMLP(in, hidden, classes int, seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	n := NewNetwork(Shape{C: in, H: 1, W: 1})
	return n.Add(
		NewDense(in, hidden, rng), NewReLU(),
		NewDense(hidden, classes, rng),
	)
}
