package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/par"
)

// Network is a feed-forward stack of layers trained with softmax
// cross-entropy and minibatch SGD.
type Network struct {
	In     Shape
	Layers []Layer
}

// ErrShapeMismatch reports an input of the wrong length.
var ErrShapeMismatch = errors.New("nn: input length does not match network input shape")

// NewNetwork returns an empty network accepting inputs of shape in.
func NewNetwork(in Shape) *Network { return &Network{In: in} }

// Add appends layers to the network and returns it for chaining.
func (n *Network) Add(layers ...Layer) *Network {
	n.Layers = append(n.Layers, layers...)
	return n
}

// OutShape returns the network's output shape.
func (n *Network) OutShape() Shape {
	s := n.In
	for _, l := range n.Layers {
		s = l.OutShape(s)
	}
	return s
}

// Forward runs the full network and returns the final activations (logits).
// It retains per-layer state for a subsequent Backward, so it must not be
// called concurrently; inference paths should use Infer instead.
func (n *Network) Forward(x []float64) ([]float64, error) {
	if len(x) != n.In.Size() {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrShapeMismatch, len(x), n.In.Size())
	}
	a := x
	for _, l := range n.Layers {
		a = l.Forward(a)
	}
	return a, nil
}

// Infer runs a stateless forward pass and returns the final activations.
// It is safe for concurrent use while no training step is in flight, which
// lets batch feature extraction fan out over the par worker pool.
func (n *Network) Infer(x []float64) ([]float64, error) {
	if len(x) != n.In.Size() {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrShapeMismatch, len(x), n.In.Size())
	}
	a := x
	for _, l := range n.Layers {
		a = l.Infer(a)
	}
	return a, nil
}

// FeatureVector runs the network through all but the last `skip` layers and
// returns the penultimate activations — the "CNN feature" representation
// the platform stores per image (paper §IV-A). The pass is stateless and
// safe for concurrent use.
func (n *Network) FeatureVector(x []float64, skip int) ([]float64, error) {
	if len(x) != n.In.Size() {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrShapeMismatch, len(x), n.In.Size())
	}
	if skip < 0 || skip > len(n.Layers) {
		return nil, fmt.Errorf("nn: skip %d out of range [0,%d]", skip, len(n.Layers))
	}
	a := x
	for _, l := range n.Layers[:len(n.Layers)-skip] {
		a = l.Infer(a)
	}
	out := make([]float64, len(a))
	copy(out, a)
	return out, nil
}

// Softmax returns the softmax of logits (numerically stable).
func Softmax(logits []float64) []float64 {
	mx := math.Inf(-1)
	for _, v := range logits {
		if v > mx {
			mx = v
		}
	}
	out := make([]float64, len(logits))
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - mx)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Predict returns the argmax class and its softmax probability. It uses
// the stateless inference path and is safe for concurrent use.
func (n *Network) Predict(x []float64) (class int, prob float64, err error) {
	logits, err := n.Infer(x)
	if err != nil {
		return 0, 0, err
	}
	p := Softmax(logits)
	best := 0
	for i := range p {
		if p[i] > p[best] {
			best = i
		}
	}
	return best, p[best], nil
}

// TrainConfig controls SGD training.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	Seed      int64
	// Verbose receives one line per epoch when non-nil.
	Verbose func(epoch int, loss float64)
	// Stop, when non-nil, is polled between minibatches; a non-nil return
	// aborts training with that error. A context-aware caller passes
	// ctx.Err, making training cancellable without the package depending
	// on context (and without storing a context in a struct). Completed
	// minibatches are never torn: the abort happens only on batch
	// boundaries, after the optimiser update.
	Stop func() error
}

// trainShardGrain is the number of batch items per gradient shard. It is a
// fixed constant — never derived from the worker count — so the order of
// gradient additions, and therefore every trained weight, is bit-identical
// no matter how many workers par schedules.
const trainShardGrain = 4

// gradShards holds one shadow replica of the network's layers per batch
// shard. Replicas alias the primary's weights but own gradient accumulators
// and activation scratch, so shards backpropagate concurrently.
type gradShards struct {
	replicas [][]Layer
	loss     []float64
}

// newGradShards builds replicas for up to maxShards concurrent shards, or
// returns nil if any layer does not support shadowing (serial fallback).
func newGradShards(layers []Layer, maxShards int) *gradShards {
	g := &gradShards{replicas: make([][]Layer, maxShards), loss: make([]float64, maxShards)}
	for s := range g.replicas {
		rep := make([]Layer, len(layers))
		for i, l := range layers {
			sl, ok := l.(shadowLayer)
			if !ok {
				return nil
			}
			rep[i] = sl.shadow()
		}
		g.replicas[s] = rep
	}
	return g
}

// Train fits the network to (xs, ys) with softmax cross-entropy and returns
// the final mean epoch loss. Within each minibatch, forward/backward passes
// fan out over the par worker pool in fixed-grain shards whose gradients
// are reduced in shard order, so the fitted weights are bit-identical for
// any worker count (including one).
func (n *Network) Train(xs [][]float64, ys []int, cfg TrainConfig) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("nn: empty training set")
	}
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("nn: %d inputs but %d labels", len(xs), len(ys))
	}
	classes := n.OutShape().Size()
	for i, y := range ys {
		if y < 0 || y >= classes {
			return 0, fmt.Errorf("nn: label %d of sample %d out of range [0,%d)", y, i, classes)
		}
		if len(xs[i]) != n.In.Size() {
			return 0, fmt.Errorf("%w: sample %d has %d values, want %d", ErrShapeMismatch, i, len(xs[i]), n.In.Size())
		}
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	shards := newGradShards(n.Layers, par.NumShards(cfg.BatchSize, trainShardGrain))
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		for start := 0; start < len(order); start += cfg.BatchSize {
			if cfg.Stop != nil {
				if err := cfg.Stop(); err != nil {
					return lastLoss, err
				}
			}
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			if shards != nil {
				epochLoss += n.batchStep(shards, xs, ys, batch)
			} else {
				// Serial fallback for networks with non-shadowable layers.
				for _, idx := range batch {
					epochLoss += n.sampleStep(n.Layers, xs[idx], ys[idx])
				}
			}
			for _, l := range n.Layers {
				l.Update(cfg.LR, cfg.Momentum, float64(len(batch)))
			}
		}
		lastLoss = epochLoss / float64(len(xs))
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, lastLoss)
		}
	}
	return lastLoss, nil
}

// sampleStep runs one forward/backward pass through the given layer stack,
// accumulating gradients in it, and returns the sample's loss.
func (n *Network) sampleStep(layers []Layer, x []float64, y int) float64 {
	a := x
	for _, l := range layers {
		a = l.Forward(a)
	}
	p := Softmax(a)
	loss := -math.Log(math.Max(p[y], 1e-12))
	// Gradient of softmax cross-entropy w.r.t. logits.
	grad := make([]float64, len(p))
	copy(grad, p)
	grad[y] -= 1
	for i := len(layers) - 1; i >= 0; i-- {
		grad = layers[i].Backward(grad)
	}
	return loss
}

// batchStep fans the minibatch out over fixed-grain shards, each owning a
// shadow replica, then absorbs shard gradients into the primary layers in
// shard index order (the deterministic reduction) and returns the batch
// loss, summed in the same order.
func (n *Network) batchStep(shards *gradShards, xs [][]float64, ys []int, batch []int) float64 {
	count := par.NumShards(len(batch), trainShardGrain)
	par.ForShards(len(batch), trainShardGrain, func(s, lo, hi int) {
		rep := shards.replicas[s]
		loss := 0.0
		for _, idx := range batch[lo:hi] {
			loss += n.sampleStep(rep, xs[idx], ys[idx])
		}
		shards.loss[s] = loss
	})
	total := 0.0
	for s := 0; s < count; s++ {
		for i, l := range n.Layers {
			l.(shadowLayer).absorb(shards.replicas[s][i])
		}
		total += shards.loss[s]
	}
	return total
}

// Accuracy returns the fraction of samples whose argmax prediction matches.
// Predictions fan out over the par worker pool.
func (n *Network) Accuracy(xs [][]float64, ys []int) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("nn: empty evaluation set")
	}
	hits, err := par.Map(len(xs), func(i int) (bool, error) {
		c, _, err := n.Predict(xs[i])
		return c == ys[i], err
	})
	if err != nil {
		return 0, err
	}
	correct := 0
	for _, h := range hits {
		if h {
			correct++
		}
	}
	return float64(correct) / float64(len(xs)), nil
}
