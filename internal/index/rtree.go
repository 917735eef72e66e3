// Package index implements TVDP's access paths (paper §IV-C): an R-tree
// with R*-style splits for spatial queries, p-stable LSH for visual
// similarity, an inverted index for textual queries, a sorted temporal
// index, a uniform grid baseline, and a hybrid spatial-visual R-tree that
// prunes on both modalities at once.
package index

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geo"
)

// RTreeConfig sizes the tree nodes.
type RTreeConfig struct {
	// MaxEntries is the node fan-out M; MinEntries defaults to M*2/5
	// (the R* recommendation) when zero.
	MaxEntries int
	MinEntries int
}

// DefaultRTreeConfig returns M=16, m=6.
func DefaultRTreeConfig() RTreeConfig { return RTreeConfig{MaxEntries: 16} }

// SpatialItem is one indexed object.
type SpatialItem struct {
	ID   uint64
	Rect geo.Rect
}

type rnode struct {
	leaf     bool
	rect     geo.Rect
	items    []SpatialItem // leaf payload
	children []*rnode      // internal payload
}

// RTree is an in-memory R-tree with quadratic-cost R*-flavoured splits.
// It is not safe for concurrent mutation; the store layer serialises
// writers and snapshots for readers.
type RTree struct {
	cfg  RTreeConfig
	root *rnode
	size int
	// path is scratch space reused by chooseLeaf/splitUpward.
	path []pathEntry
}

// ErrBadConfig reports invalid node size parameters.
var ErrBadConfig = errors.New("index: invalid configuration")

// NewRTree returns an empty tree.
func NewRTree(cfg RTreeConfig) (*RTree, error) {
	if cfg.MaxEntries < 4 {
		return nil, fmt.Errorf("%w: MaxEntries %d < 4", ErrBadConfig, cfg.MaxEntries)
	}
	if cfg.MinEntries <= 0 {
		cfg.MinEntries = cfg.MaxEntries * 2 / 5
	}
	if cfg.MinEntries < 2 || cfg.MinEntries > cfg.MaxEntries/2 {
		return nil, fmt.Errorf("%w: MinEntries %d out of [2,%d]", ErrBadConfig, cfg.MinEntries, cfg.MaxEntries/2)
	}
	return &RTree{cfg: cfg, root: &rnode{leaf: true}}, nil
}

// Insert adds an item. Duplicate IDs are allowed (the store enforces
// uniqueness above this layer).
func (t *RTree) Insert(item SpatialItem) error {
	if !item.Rect.Valid() {
		return fmt.Errorf("index: inserting invalid rect %+v", item.Rect)
	}
	leaf := t.chooseLeaf(t.root, item.Rect)
	leaf.items = append(leaf.items, item)
	leaf.rect = extend(leaf, item.Rect)
	t.size++
	t.splitUpward(leaf)
	return nil
}

func extend(n *rnode, r geo.Rect) geo.Rect {
	if len(n.items) == 1 && len(n.children) == 0 && n.leaf {
		return r
	}
	if n.rect.Valid() && (n.rect != geo.Rect{}) {
		return n.rect.Union(r)
	}
	return r
}

// path caching: chooseLeaf records parents for upward adjustment.
type pathEntry struct {
	node *rnode
}

var errNotFound = errors.New("index: item not found")

func (t *RTree) chooseLeaf(n *rnode, r geo.Rect) *rnode {
	t.path = t.path[:0]
	for {
		t.path = append(t.path, pathEntry{n})
		if n.leaf {
			return n
		}
		best := n.children[0]
		bestEnl := math.Inf(1)
		bestArea := math.Inf(1)
		for _, c := range n.children {
			enl := c.rect.Enlargement(r)
			area := c.rect.Area()
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = c, enl, area
			}
		}
		best.rect = best.rect.Union(r)
		n = best
	}
}

// splitUpward splits overflowing nodes along the recorded path.
func (t *RTree) splitUpward(n *rnode) {
	for i := len(t.path) - 1; i >= 0; i-- {
		node := t.path[i].node
		if nodeLen(node) <= t.cfg.MaxEntries {
			continue
		}
		a, b := t.split(node)
		if i == 0 {
			// Root split: grow the tree.
			t.root = &rnode{
				leaf:     false,
				rect:     a.rect.Union(b.rect),
				children: []*rnode{a, b},
			}
			continue
		}
		parent := t.path[i-1].node
		// Replace node with a, append b.
		for j, c := range parent.children {
			if c == node {
				parent.children[j] = a
				break
			}
		}
		parent.children = append(parent.children, b)
	}
}

func nodeLen(n *rnode) int {
	if n.leaf {
		return len(n.items)
	}
	return len(n.children)
}

type splitEntry struct {
	rect  geo.Rect
	item  SpatialItem
	child *rnode
}

func entriesOf(n *rnode) []splitEntry {
	if n.leaf {
		out := make([]splitEntry, len(n.items))
		for i, it := range n.items {
			out[i] = splitEntry{rect: it.Rect, item: it}
		}
		return out
	}
	out := make([]splitEntry, len(n.children))
	for i, c := range n.children {
		out[i] = splitEntry{rect: c.rect, child: c}
	}
	return out
}

// split divides an overflowing node using the R* axis-sort heuristic:
// choose the axis with smallest total margin, then the distribution with
// least overlap (ties by area).
func (t *RTree) split(n *rnode) (*rnode, *rnode) {
	entries := entriesOf(n)
	m := t.cfg.MinEntries
	bestGoodness := math.Inf(1)
	var bestLeft, bestRight []splitEntry
	for axis := 0; axis < 2; axis++ {
		sorted := append([]splitEntry(nil), entries...)
		sort.Slice(sorted, func(i, j int) bool {
			ri, rj := sorted[i].rect, sorted[j].rect
			if axis == 0 {
				if ri.MinLat != rj.MinLat {
					return ri.MinLat < rj.MinLat
				}
				return ri.MaxLat < rj.MaxLat
			}
			if ri.MinLon != rj.MinLon {
				return ri.MinLon < rj.MinLon
			}
			return ri.MaxLon < rj.MaxLon
		})
		for k := m; k <= len(sorted)-m; k++ {
			left, right := sorted[:k], sorted[k:]
			lr, rr := mbrOf(left), mbrOf(right)
			overlap := lr.OverlapArea(rr)
			goodness := overlap*1e6 + lr.Area() + rr.Area()
			if goodness < bestGoodness {
				bestGoodness = goodness
				bestLeft = append([]splitEntry(nil), left...)
				bestRight = append([]splitEntry(nil), right...)
			}
		}
	}
	return buildNode(n.leaf, bestLeft), buildNode(n.leaf, bestRight)
}

func mbrOf(es []splitEntry) geo.Rect {
	r := es[0].rect
	for _, e := range es[1:] {
		r = r.Union(e.rect)
	}
	return r
}

func buildNode(leaf bool, es []splitEntry) *rnode {
	n := &rnode{leaf: leaf, rect: mbrOf(es)}
	if leaf {
		for _, e := range es {
			n.items = append(n.items, e.item)
		}
	} else {
		for _, e := range es {
			n.children = append(n.children, e.child)
		}
	}
	return n
}

// SearchRect returns the IDs of all items whose rect intersects q.
func (t *RTree) SearchRect(q geo.Rect) []uint64 {
	if t.size == 0 {
		return nil
	}
	var out []uint64
	var walk func(n *rnode)
	walk = func(n *rnode) {
		if n.leaf {
			for _, it := range n.items {
				if it.Rect.Intersects(q) {
					out = append(out, it.ID)
				}
			}
			return
		}
		for _, c := range n.children {
			if c.rect.Intersects(q) {
				walk(c)
			}
		}
	}
	walk(t.root)
	return out
}

// NearestK returns up to k item IDs ordered by ascending distance from p
// to the item rect (best-first branch and bound).
func (t *RTree) NearestK(p geo.Point, k int) []uint64 {
	ms := t.NearestKMatches(p, k)
	if len(ms) == 0 {
		return nil
	}
	out := make([]uint64, len(ms))
	for i, m := range ms {
		out[i] = m.ID
	}
	return out
}

// NearestKMatches is NearestK with each hit's point-to-rect distance
// attached, selected under the (Dist, ID) total order: the best-first
// walk pops past the k-th hit while equal-distance items remain, then the
// tie is broken by ID. The total order is what makes a sharded merge of
// per-shard top-k lists reproduce the single-tree result for any
// partitioning.
func (t *RTree) NearestKMatches(p geo.Point, k int) []Match {
	if k <= 0 || t.size == 0 {
		return nil
	}
	type cand struct {
		dist float64
		node *rnode
		item *SpatialItem
	}
	// A simple binary heap.
	var heap []cand
	push := func(c cand) {
		heap = append(heap, c)
		i := len(heap) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if heap[parent].dist <= heap[i].dist {
				break
			}
			heap[parent], heap[i] = heap[i], heap[parent]
			i = parent
		}
	}
	pop := func() cand {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && heap[l].dist < heap[small].dist {
				small = l
			}
			if r < len(heap) && heap[r].dist < heap[small].dist {
				small = r
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
		return top
	}
	push(cand{dist: 0, node: t.root})
	var out []Match
	// kthDist is the distance of the k-th collected hit; once k hits are
	// in, only equal-distance items still compete (on ID), so the walk
	// continues until the heap's best exceeds it.
	kthDist := 0.0
	for len(heap) > 0 {
		if len(out) >= k && heap[0].dist > kthDist {
			break
		}
		c := pop()
		switch {
		case c.item != nil:
			out = append(out, Match{ID: c.item.ID, Dist: c.dist})
			kthDist = c.dist
		case c.node.leaf:
			for i := range c.node.items {
				it := &c.node.items[i]
				push(cand{dist: geo.DistancePointRect(p, it.Rect), item: it})
			}
		default:
			for _, child := range c.node.children {
				push(cand{dist: geo.DistancePointRect(p, child.rect), node: child})
			}
		}
	}
	sortMatches(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Delete removes one item with the given ID and rect. It reports
// errNotFound (wrapped) when absent. Underflowing leaves are tolerated —
// the tree remains correct, merely less tight, which is the standard
// trade-off for delete-light workloads like TVDP's append-mostly store.
func (t *RTree) Delete(id uint64, r geo.Rect) error {
	var walk func(n *rnode) bool
	walk = func(n *rnode) bool {
		if !n.rect.Intersects(r) && t.size > 1 {
			return false
		}
		if n.leaf {
			for i, it := range n.items {
				if it.ID == id && it.Rect == r {
					n.items = append(n.items[:i], n.items[i+1:]...)
					n.rect = recomputeRect(n)
					return true
				}
			}
			return false
		}
		for _, c := range n.children {
			if walk(c) {
				n.rect = recomputeRect(n)
				return true
			}
		}
		return false
	}
	if !walk(t.root) {
		return fmt.Errorf("index: delete %d: %w", id, errNotFound)
	}
	t.size--
	return nil
}

func recomputeRect(n *rnode) geo.Rect {
	es := entriesOf(n)
	if len(es) == 0 {
		return geo.Rect{}
	}
	return mbrOf(es)
}
