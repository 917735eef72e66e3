// Package crowd implements TVDP's acquisition service (paper §III):
// FOV-based spatial coverage measurement, data-collection campaigns over
// under-covered cells, GeoCrowd-style task assignment to mobile workers,
// and an iterative collect-measure-recollect loop that proactively fills
// coverage gaps.
package crowd

import (
	"errors"
	"fmt"

	"repro/internal/geo"
)

// CoverageModel measures how well a set of FOVs covers a region, following
// the cell-decomposition spatial coverage measurement of the paper's
// reference [17]: the region splits into a uniform cell grid and each cell
// accumulates the count of FOVs viewing it, optionally split by viewing
// direction so that a cell seen only from the north is distinguishable
// from one photographed all around.
type CoverageModel struct {
	Region geo.Rect
	// Rows and Cols set the cell resolution.
	Rows, Cols int
	// DirBins splits each cell's coverage into compass sectors (1 =
	// direction-agnostic).
	DirBins int
	// MinCount is the per-(cell, direction) capture count for "covered".
	MinCount int
}

// NewCoverageModel validates and returns a model.
func NewCoverageModel(region geo.Rect, rows, cols, dirBins, minCount int) (*CoverageModel, error) {
	if !region.Valid() || region.Area() == 0 {
		return nil, fmt.Errorf("crowd: degenerate region %+v", region)
	}
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("crowd: grid %dx%d invalid", rows, cols)
	}
	if dirBins <= 0 {
		dirBins = 1
	}
	if minCount <= 0 {
		minCount = 1
	}
	return &CoverageModel{Region: region, Rows: rows, Cols: cols, DirBins: dirBins, MinCount: minCount}, nil
}

// CoverageMap is the measured result.
type CoverageMap struct {
	Model *CoverageModel
	// Counts[cell][dirBin] is the number of FOVs viewing the cell from
	// that direction sector; cell = row*Cols+col.
	Counts [][]int
}

// CellRect returns the geographic rectangle of a cell.
func (m *CoverageModel) CellRect(row, col int) geo.Rect {
	latStep := (m.Region.MaxLat - m.Region.MinLat) / float64(m.Rows)
	lonStep := (m.Region.MaxLon - m.Region.MinLon) / float64(m.Cols)
	return geo.Rect{
		MinLat: m.Region.MinLat + float64(row)*latStep,
		MinLon: m.Region.MinLon + float64(col)*lonStep,
		MaxLat: m.Region.MinLat + float64(row+1)*latStep,
		MaxLon: m.Region.MinLon + float64(col)*lonStep + lonStep,
	}
}

// Measure accumulates the coverage of the given FOVs.
func (m *CoverageModel) Measure(fovs []geo.FOV) *CoverageMap {
	cm := &CoverageMap{Model: m, Counts: make([][]int, m.Rows*m.Cols)}
	for i := range cm.Counts {
		cm.Counts[i] = make([]int, m.DirBins)
	}
	for _, f := range fovs {
		cm.Add(f)
	}
	return cm
}

// Add accumulates one FOV into the map.
func (c *CoverageMap) Add(f geo.FOV) {
	m := c.Model
	mbr := f.SceneLocation()
	// Candidate cells: those intersecting the scene MBR.
	for row := 0; row < m.Rows; row++ {
		for col := 0; col < m.Cols; col++ {
			cell := m.CellRect(row, col)
			if !cell.Intersects(mbr) {
				continue
			}
			if !f.IntersectsRect(cell) {
				continue
			}
			bin := 0
			if m.DirBins > 1 {
				bin = int(geo.NormalizeBearing(f.Direction)/360*float64(m.DirBins)) % m.DirBins
			}
			c.Counts[row*m.Cols+col][bin]++
		}
	}
}

// CellCovered reports whether the (row, col) cell meets MinCount in at
// least one direction bin.
func (c *CoverageMap) CellCovered(row, col int) bool {
	for _, n := range c.Counts[row*c.Model.Cols+col] {
		if n >= c.Model.MinCount {
			return true
		}
	}
	return false
}

// Ratio returns the fraction of covered cells in [0, 1].
func (c *CoverageMap) Ratio() float64 {
	covered := 0
	for row := 0; row < c.Model.Rows; row++ {
		for col := 0; col < c.Model.Cols; col++ {
			if c.CellCovered(row, col) {
				covered++
			}
		}
	}
	return float64(covered) / float64(c.Model.Rows*c.Model.Cols)
}

// WeakCells returns the center points of uncovered cells, the targets the
// next campaign round turns into tasks.
func (c *CoverageMap) WeakCells() []geo.Point {
	var out []geo.Point
	for row := 0; row < c.Model.Rows; row++ {
		for col := 0; col < c.Model.Cols; col++ {
			if !c.CellCovered(row, col) {
				out = append(out, c.Model.CellRect(row, col).Center())
			}
		}
	}
	return out
}

// ErrNoFOVs reports an empty measurement input where one is required.
var ErrNoFOVs = errors.New("crowd: no FOVs")

// Redundancy returns the mean pairwise FOV overlap of the set — high
// values mean collection effort is being wasted on near-duplicate views
// (the redundancy concern of paper challenge 2). Sampled at most over
// maxPairs pairs for large sets.
func Redundancy(fovs []geo.FOV, maxPairs int) (float64, error) {
	if len(fovs) < 2 {
		return 0, ErrNoFOVs
	}
	if maxPairs <= 0 {
		maxPairs = 10000
	}
	total, n := 0.0, 0
	for i := 0; i < len(fovs) && n < maxPairs; i++ {
		for j := i + 1; j < len(fovs) && n < maxPairs; j++ {
			total += fovs[i].Overlap(fovs[j])
			n++
		}
	}
	return total / float64(n), nil
}
