package index

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/geo"
	"repro/internal/vecmath"
)

// HybridItem is an object indexed by both its spatial extent and its
// visual feature vector.
type HybridItem struct {
	ID   uint64
	Rect geo.Rect
	Vec  []float64
}

// HybridTree is the spatial-visual hybrid index of §IV-C (after the
// "hybrid indexes for spatial-visual search" line of work): an R-tree over
// scene rectangles whose nodes additionally maintain a bounding box in
// feature space, so a spatial-visual query prunes subtrees on both
// modalities at once instead of filtering spatially and ranking the
// survivors.
type HybridTree struct {
	cfg  RTreeConfig
	dim  int
	root *hnode
	size int
}

type hnode struct {
	leaf       bool
	rect       geo.Rect
	fmin, fmax []float64
	items      []HybridItem
	children   []*hnode
}

// NewHybridTree returns an empty tree over dim-dimensional features.
func NewHybridTree(dim int, cfg RTreeConfig) (*HybridTree, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("%w: dim %d", ErrBadConfig, dim)
	}
	if cfg.MaxEntries < 4 {
		return nil, fmt.Errorf("%w: MaxEntries %d < 4", ErrBadConfig, cfg.MaxEntries)
	}
	if cfg.MinEntries <= 0 {
		cfg.MinEntries = cfg.MaxEntries * 2 / 5
	}
	if cfg.MinEntries < 2 || cfg.MinEntries > cfg.MaxEntries/2 {
		return nil, fmt.Errorf("%w: MinEntries %d", ErrBadConfig, cfg.MinEntries)
	}
	return &HybridTree{cfg: cfg, dim: dim, root: newHNode(dim, true)}, nil
}

func newHNode(dim int, leaf bool) *hnode {
	n := &hnode{leaf: leaf, fmin: make([]float64, dim), fmax: make([]float64, dim)}
	for i := 0; i < dim; i++ {
		n.fmin[i] = math.Inf(1)
		n.fmax[i] = math.Inf(-1)
	}
	return n
}

func (n *hnode) absorbVec(v []float64) {
	for i, x := range v {
		if x < n.fmin[i] {
			n.fmin[i] = x
		}
		if x > n.fmax[i] {
			n.fmax[i] = x
		}
	}
}

func (n *hnode) absorbRect(r geo.Rect) {
	if len(n.items) == 0 && len(n.children) == 0 {
		n.rect = r
		return
	}
	n.rect = n.rect.Union(r)
}

// Insert adds an item.
func (t *HybridTree) Insert(item HybridItem) error {
	if len(item.Vec) != t.dim {
		return fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(item.Vec), t.dim)
	}
	if !item.Rect.Valid() {
		return fmt.Errorf("index: hybrid insert invalid rect %+v", item.Rect)
	}
	item.Vec = append([]float64(nil), item.Vec...)
	path := t.chooseLeaf(item.Rect, item.Vec)
	leaf := path[len(path)-1]
	leaf.items = append(leaf.items, item)
	t.size++
	// Split overflowing nodes bottom-up.
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if hLen(n) <= t.cfg.MaxEntries {
			continue
		}
		a, b := t.split(n)
		if i == 0 {
			root := newHNode(t.dim, false)
			root.children = []*hnode{a, b}
			root.recompute()
			t.root = root
			continue
		}
		parent := path[i-1]
		for j, c := range parent.children {
			if c == n {
				parent.children[j] = a
				break
			}
		}
		parent.children = append(parent.children, b)
	}
	return nil
}

func hLen(n *hnode) int {
	if n.leaf {
		return len(n.items)
	}
	return len(n.children)
}

func (t *HybridTree) chooseLeaf(r geo.Rect, v []float64) []*hnode {
	var path []*hnode
	n := t.root
	for {
		n.absorbRect(r)
		n.absorbVec(v)
		path = append(path, n)
		if n.leaf {
			return path
		}
		best := n.children[0]
		bestEnl := math.Inf(1)
		for _, c := range n.children {
			// Combined enlargement: spatial area growth plus feature
			// volume growth (normalised per dimension).
			enl := c.rect.Enlargement(r) + c.featureEnlargement(v)
			if enl < bestEnl {
				best, bestEnl = c, enl
			}
		}
		n = best
	}
}

// featureEnlargement returns the total per-dimension extension needed to
// absorb v into the node's feature box.
func (n *hnode) featureEnlargement(v []float64) float64 {
	s := 0.0
	for i, x := range v {
		if x < n.fmin[i] {
			s += n.fmin[i] - x
		}
		if x > n.fmax[i] {
			s += x - n.fmax[i]
		}
	}
	return s
}

func (n *hnode) recompute() {
	for i := range n.fmin {
		n.fmin[i] = math.Inf(1)
		n.fmax[i] = math.Inf(-1)
	}
	first := true
	if n.leaf {
		for _, it := range n.items {
			if first {
				n.rect = it.Rect
				first = false
			} else {
				n.rect = n.rect.Union(it.Rect)
			}
			n.absorbVec(it.Vec)
		}
		return
	}
	for _, c := range n.children {
		if first {
			n.rect = c.rect
			first = false
		} else {
			n.rect = n.rect.Union(c.rect)
		}
		for i := range n.fmin {
			if c.fmin[i] < n.fmin[i] {
				n.fmin[i] = c.fmin[i]
			}
			if c.fmax[i] > n.fmax[i] {
				n.fmax[i] = c.fmax[i]
			}
		}
	}
}

// split divides an overflowing node. Unlike a plain R-tree it considers
// three sort axes — latitude, longitude, and the feature dimension with
// the widest spread at this node — and scores each candidate distribution
// by normalised spatial overlap plus normalised feature-box overlap, so
// subtrees become compact in *both* spaces. Tight per-node feature boxes
// are what make the spatial-visual pruning of SearchSpatialVisual
// effective.
func (t *HybridTree) split(n *hnode) (*hnode, *hnode) {
	type entry struct {
		rect  geo.Rect
		fmin  []float64
		fmax  []float64
		item  HybridItem
		child *hnode
	}
	var entries []entry
	if n.leaf {
		for _, it := range n.items {
			entries = append(entries, entry{rect: it.Rect, fmin: it.Vec, fmax: it.Vec, item: it})
		}
	} else {
		for _, c := range n.children {
			entries = append(entries, entry{rect: c.rect, fmin: c.fmin, fmax: c.fmax, child: c})
		}
	}
	// Feature dimension with the widest spread at this node.
	featDim, featSpread := 0, 0.0
	for d := 0; d < t.dim; d++ {
		if s := n.fmax[d] - n.fmin[d]; s > featSpread {
			featDim, featSpread = d, s
		}
	}
	spatialNorm := n.rect.Area()
	if spatialNorm <= 0 {
		spatialNorm = 1
	}
	if featSpread <= 0 {
		featSpread = 1
	}
	// groupBounds accumulates the MBR and feature box of a prefix/suffix.
	type bounds struct {
		rect       geo.Rect
		fmin, fmax []float64
	}
	newBounds := func(e entry) bounds {
		return bounds{
			rect: e.rect,
			fmin: append([]float64(nil), e.fmin...),
			fmax: append([]float64(nil), e.fmax...),
		}
	}
	absorb := func(b *bounds, e entry) {
		b.rect = b.rect.Union(e.rect)
		for d := range b.fmin {
			if e.fmin[d] < b.fmin[d] {
				b.fmin[d] = e.fmin[d]
			}
			if e.fmax[d] > b.fmax[d] {
				b.fmax[d] = e.fmax[d]
			}
		}
	}
	// featOverlap returns the total per-dimension overlap length of two
	// feature boxes, normalised by the node's spread.
	featOverlap := func(a, b bounds) float64 {
		total := 0.0
		for d := range a.fmin {
			lo := math.Max(a.fmin[d], b.fmin[d])
			hi := math.Min(a.fmax[d], b.fmax[d])
			if hi > lo {
				total += hi - lo
			}
		}
		return total / (featSpread * float64(t.dim))
	}

	m := t.cfg.MinEntries
	bestGoodness := math.Inf(1)
	var bestLeft, bestRight []entry
	for axis := 0; axis < 3; axis++ {
		sorted := append([]entry(nil), entries...)
		sort.Slice(sorted, func(i, j int) bool {
			switch axis {
			case 0:
				return sorted[i].rect.MinLat < sorted[j].rect.MinLat
			case 1:
				return sorted[i].rect.MinLon < sorted[j].rect.MinLon
			default:
				return sorted[i].fmin[featDim] < sorted[j].fmin[featDim]
			}
		})
		// Suffix bounds, computed right-to-left.
		suffix := make([]bounds, len(sorted)+1)
		for i := len(sorted) - 1; i >= 0; i-- {
			if i == len(sorted)-1 {
				suffix[i] = newBounds(sorted[i])
			} else {
				b := newBounds(sorted[i])
				absorb(&b, entry{rect: suffix[i+1].rect, fmin: suffix[i+1].fmin, fmax: suffix[i+1].fmax})
				suffix[i] = b
			}
		}
		prefix := newBounds(sorted[0])
		for k := 1; k <= len(sorted)-m; k++ {
			if k > 1 {
				absorb(&prefix, sorted[k-1])
			}
			if k < m {
				continue
			}
			right := suffix[k]
			spatial := prefix.rect.OverlapArea(right.rect) / spatialNorm
			goodness := spatial + featOverlap(prefix, right)
			if goodness < bestGoodness {
				bestGoodness = goodness
				bestLeft = append(bestLeft[:0], sorted[:k]...)
				bestRight = append(bestRight[:0], sorted[k:]...)
			}
		}
	}
	build := func(es []entry) *hnode {
		out := newHNode(t.dim, n.leaf)
		for _, e := range es {
			if n.leaf {
				out.items = append(out.items, e.item)
			} else {
				out.children = append(out.children, e.child)
			}
		}
		out.recompute()
		return out
	}
	return build(bestLeft), build(bestRight)
}

// minFeatureDist lower-bounds the *squared* L2 distance from q to any
// vector inside the node's feature box. The traversal compares it
// against the squared worst-kept distance, so pruning never pays a root.
func (n *hnode) minFeatureDist(q []float64) float64 {
	if hLen(n) == 0 {
		return math.Inf(1)
	}
	s := 0.0
	for i, x := range q {
		if x < n.fmin[i] {
			d := n.fmin[i] - x
			s += d * d
		} else if x > n.fmax[i] {
			d := x - n.fmax[i]
			s += d * d
		}
	}
	return s
}

// SearchSpatialVisual returns up to k items whose rects intersect qRect,
// ranked by ascending L2 distance between their vectors and qVec. Both
// pruning dimensions are applied during traversal, which checks ctx at
// every node descent and aborts the walk once the context is done.
func (t *HybridTree) SearchSpatialVisual(ctx context.Context, qRect geo.Rect, qVec []float64, k int) ([]Match, error) {
	if len(qVec) != t.dim {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(qVec), t.dim)
	}
	if k <= 0 || t.size == 0 {
		return nil, nil
	}
	// Bounded result set as a sorted slice (k is small in practice).
	// Dist fields hold squared distances until the final conversion.
	var best []Match
	worst := func() float64 {
		if len(best) < k {
			return math.Inf(1)
		}
		return best[len(best)-1].Dist
	}
	add := func(m Match) {
		pos := sort.Search(len(best), func(i int) bool {
			if best[i].Dist != m.Dist {
				return best[i].Dist > m.Dist
			}
			return best[i].ID > m.ID
		})
		best = append(best, Match{})
		copy(best[pos+1:], best[pos:])
		best[pos] = m
		if len(best) > k {
			best = best[:k]
		}
	}
	var walk func(n *hnode) error
	walk = func(n *hnode) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !n.rect.Intersects(qRect) || n.minFeatureDist(qVec) > worst() {
			return nil
		}
		if n.leaf {
			for _, it := range n.items {
				if !it.Rect.Intersects(qRect) {
					continue
				}
				if d2 := vecmath.SquaredL2(qVec, it.Vec); d2 <= worst() {
					add(Match{ID: it.ID, Dist: d2})
				}
			}
			return nil
		}
		// Visit children closest in feature space first to tighten the
		// bound early.
		order := make([]*hnode, len(n.children))
		copy(order, n.children)
		sort.Slice(order, func(i, j int) bool {
			return order[i].minFeatureDist(qVec) < order[j].minFeatureDist(qVec)
		})
		for _, c := range order {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return nil, err
	}
	finalizeMatches(best)
	return best, nil
}
