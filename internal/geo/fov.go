package geo

import (
	"errors"
	"fmt"
	"math"
)

// FOV is the field-of-view spatial descriptor of an image (paper Fig. 3):
// camera location L, compass viewing direction θ, viewable angle α, and
// maximum visible distance R. It describes the pie-slice-shaped region of
// the Earth's surface the image depicts, and is a strictly richer spatial
// representation than the bare GPS point.
type FOV struct {
	// Camera is the camera location L at capture time.
	Camera Point `json:"camera"`
	// Direction is the compass viewing direction θ in degrees [0, 360).
	Direction float64 `json:"direction"`
	// Angle is the viewable angle α in degrees (0, 360].
	Angle float64 `json:"angle"`
	// Radius is the maximum visible distance R in meters.
	Radius float64 `json:"radius"`
}

// ErrInvalidFOV reports an FOV with out-of-range parameters.
var ErrInvalidFOV = errors.New("geo: invalid FOV")

// Validate checks the FOV parameter ranges.
func (f FOV) Validate() error {
	if err := f.Camera.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidFOV, err)
	}
	if f.Direction < 0 || f.Direction >= 360 || math.IsNaN(f.Direction) {
		return fmt.Errorf("%w: direction %.3f out of [0,360)", ErrInvalidFOV, f.Direction)
	}
	if f.Angle <= 0 || f.Angle > 360 || math.IsNaN(f.Angle) {
		return fmt.Errorf("%w: angle %.3f out of (0,360]", ErrInvalidFOV, f.Angle)
	}
	if f.Radius <= 0 || math.IsNaN(f.Radius) {
		return fmt.Errorf("%w: radius %.3f must be positive", ErrInvalidFOV, f.Radius)
	}
	return nil
}

// Contains reports whether ground point p is visible in the FOV: within
// Radius meters of the camera and within Angle/2 degrees of the viewing
// direction. The camera location itself is always contained.
func (f FOV) Contains(p Point) bool {
	d := Haversine(f.Camera, p)
	if d > f.Radius {
		return false
	}
	if d == 0 || f.Angle >= 360 {
		return true
	}
	return AngularDiff(Bearing(f.Camera, p), f.Direction) <= f.Angle/2
}

// SceneLocation returns the minimum bounding rectangle of the viewable
// scene (paper §IV-A "Scene Location"): the MBR of the camera point, the
// two sector edge endpoints, the arc midpoint, and any compass-axis extreme
// of the arc that falls inside the sector. This most accurately represents
// the semantic spatial extent of the image scene.
func (f FOV) SceneLocation() Rect {
	pts := []Point{f.Camera}
	half := f.Angle / 2
	// Sector edge endpoints and arc midpoint.
	for _, off := range []float64{-half, 0, +half} {
		pts = append(pts, Destination(f.Camera, NormalizeBearing(f.Direction+off), f.Radius))
	}
	// Arc extremes at the compass axes (N/E/S/W) reached within the sector.
	for _, axis := range []float64{0, 90, 180, 270} {
		if AngularDiff(axis, f.Direction) <= half {
			pts = append(pts, Destination(f.Camera, axis, f.Radius))
		}
	}
	return RectFromPoints(pts)
}

// IntersectsRect conservatively reports whether the FOV sector may overlap
// rectangle r. It first tests scene-MBR overlap, then refines by sampling
// the sector boundary; it never returns false for a true intersection of
// the MBR approximation used by the indexes.
func (f FOV) IntersectsRect(r Rect) bool {
	mbr := f.SceneLocation()
	if !mbr.Intersects(r) {
		return false
	}
	if r.Contains(f.Camera) {
		return true
	}
	// Sample sector interior on a fan grid: cheap, robust refinement.
	const rays, steps = 9, 4
	half := f.Angle / 2
	for i := 0; i < rays; i++ {
		brg := f.Direction - half + f.Angle*float64(i)/float64(rays-1)
		for s := 1; s <= steps; s++ {
			p := Destination(f.Camera, NormalizeBearing(brg), f.Radius*float64(s)/steps)
			if r.Contains(p) {
				return true
			}
		}
	}
	// Rect corners inside the sector also count.
	for _, p := range []Point{
		{r.MinLat, r.MinLon}, {r.MinLat, r.MaxLon},
		{r.MaxLat, r.MinLon}, {r.MaxLat, r.MaxLon},
	} {
		if f.Contains(p) {
			return true
		}
	}
	return false
}

// Overlap returns a [0,1] score for how much f and g view the same region:
// the Jaccard overlap of their scene MBRs damped by viewing-direction
// disagreement. It is the redundancy measure used by the crowdsourcing
// coverage model to discount near-duplicate captures.
func (f FOV) Overlap(g FOV) float64 {
	a, b := f.SceneLocation(), g.SceneLocation()
	inter := a.OverlapArea(b)
	if inter == 0 {
		return 0
	}
	union := a.Area() + b.Area() - inter
	if union <= 0 {
		return 0
	}
	jac := inter / union
	dirPenalty := 1 - AngularDiff(f.Direction, g.Direction)/180
	return jac * dirPenalty
}
