package index

import (
	"fmt"

	"repro/internal/geo"
)

// Grid is a fixed uniform spatial grid over a bounded region — the
// baseline the spatial-index ablation (bench A1) compares the R-tree
// against. Items are registered in every cell their rect touches.
type Grid struct {
	bounds     geo.Rect
	rows, cols int
	cells      [][]SpatialItem
}

// NewGrid partitions bounds into rows x cols cells.
func NewGrid(bounds geo.Rect, rows, cols int) (*Grid, error) {
	if !bounds.Valid() || bounds.Area() == 0 {
		return nil, fmt.Errorf("%w: degenerate bounds %+v", ErrBadConfig, bounds)
	}
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("%w: %dx%d grid", ErrBadConfig, rows, cols)
	}
	return &Grid{
		bounds: bounds, rows: rows, cols: cols,
		cells: make([][]SpatialItem, rows*cols),
	}, nil
}

func (g *Grid) cellRange(r geo.Rect) (r0, r1, c0, c1 int, ok bool) {
	ix, found := g.bounds.Intersection(r)
	if !found {
		return 0, 0, 0, 0, false
	}
	latSpan := g.bounds.MaxLat - g.bounds.MinLat
	lonSpan := g.bounds.MaxLon - g.bounds.MinLon
	rowOf := func(lat float64) int {
		row := int((lat - g.bounds.MinLat) / latSpan * float64(g.rows))
		if row < 0 {
			row = 0
		}
		if row >= g.rows {
			row = g.rows - 1
		}
		return row
	}
	colOf := func(lon float64) int {
		col := int((lon - g.bounds.MinLon) / lonSpan * float64(g.cols))
		if col < 0 {
			col = 0
		}
		if col >= g.cols {
			col = g.cols - 1
		}
		return col
	}
	return rowOf(ix.MinLat), rowOf(ix.MaxLat), colOf(ix.MinLon), colOf(ix.MaxLon), true
}

// Insert registers the item in all overlapping cells. Items entirely
// outside the bounds are rejected.
func (g *Grid) Insert(item SpatialItem) error {
	if !item.Rect.Valid() {
		return fmt.Errorf("index: grid insert invalid rect %+v", item.Rect)
	}
	r0, r1, c0, c1, ok := g.cellRange(item.Rect)
	if !ok {
		return fmt.Errorf("index: grid insert %d outside bounds", item.ID)
	}
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			g.cells[r*g.cols+c] = append(g.cells[r*g.cols+c], item)
		}
	}
	return nil
}

// SearchRect returns IDs of items intersecting q (deduplicated).
func (g *Grid) SearchRect(q geo.Rect) []uint64 {
	r0, r1, c0, c1, ok := g.cellRange(q)
	if !ok {
		return nil
	}
	seen := make(map[uint64]bool)
	var out []uint64
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			for _, it := range g.cells[r*g.cols+c] {
				if !seen[it.ID] && it.Rect.Intersects(q) {
					seen[it.ID] = true
					out = append(out, it.ID)
				}
			}
		}
	}
	return out
}

// LinearScan is the no-index baseline: a plain slice of items scanned per
// query.
type LinearScan struct {
	items []SpatialItem
}

// NewLinearScan returns an empty scan baseline.
func NewLinearScan() *LinearScan { return &LinearScan{} }

// Insert appends the item.
func (s *LinearScan) Insert(item SpatialItem) { s.items = append(s.items, item) }

// SearchRect scans all items.
func (s *LinearScan) SearchRect(q geo.Rect) []uint64 {
	var out []uint64
	for _, it := range s.items {
		if it.Rect.Intersects(q) {
			out = append(out, it.ID)
		}
	}
	return out
}
