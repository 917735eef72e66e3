// Package geo provides the geospatial substrate for TVDP: geographic
// points, bounding rectangles, bearings, great-circle distances, and the
// camera field-of-view (FOV) model the platform uses as its primary
// spatial descriptor (paper §IV-A, Fig. 3).
//
// Coordinates are WGS84 degrees: latitude in [-90, 90], longitude in
// (-180, 180]. Distances are meters. Bearings are compass degrees in
// [0, 360) measured clockwise from true north.
package geo

import (
	"errors"
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used for all great-circle math.
const EarthRadiusMeters = 6371000.0

// Point is a geographic location in WGS84 degrees.
type Point struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// ErrInvalidPoint reports a latitude or longitude outside its legal range.
var ErrInvalidPoint = errors.New("geo: invalid point")

// Validate reports whether p lies within the legal WGS84 ranges.
func (p Point) Validate() error {
	if math.IsNaN(p.Lat) || math.IsNaN(p.Lon) {
		return fmt.Errorf("%w: NaN coordinate", ErrInvalidPoint)
	}
	if p.Lat < -90 || p.Lat > 90 {
		return fmt.Errorf("%w: latitude %.6f out of [-90,90]", ErrInvalidPoint, p.Lat)
	}
	if p.Lon < -180 || p.Lon > 180 {
		return fmt.Errorf("%w: longitude %.6f out of [-180,180]", ErrInvalidPoint, p.Lon)
	}
	return nil
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f,%.6f)", p.Lat, p.Lon)
}

func deg2rad(d float64) float64 { return d * math.Pi / 180 }
func rad2deg(r float64) float64 { return r * 180 / math.Pi }

// Haversine returns the great-circle distance between a and b in meters.
func Haversine(a, b Point) float64 {
	la1, lo1 := deg2rad(a.Lat), deg2rad(a.Lon)
	la2, lo2 := deg2rad(b.Lat), deg2rad(b.Lon)
	dla := la2 - la1
	dlo := lo2 - lo1
	s := math.Sin(dla/2)*math.Sin(dla/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dlo/2)*math.Sin(dlo/2)
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(s)))
}

// Bearing returns the initial compass bearing in degrees [0,360) when
// traveling from a to b along the great circle.
func Bearing(a, b Point) float64 {
	la1, la2 := deg2rad(a.Lat), deg2rad(b.Lat)
	dlo := deg2rad(b.Lon - a.Lon)
	y := math.Sin(dlo) * math.Cos(la2)
	x := math.Cos(la1)*math.Sin(la2) - math.Sin(la1)*math.Cos(la2)*math.Cos(dlo)
	return NormalizeBearing(rad2deg(math.Atan2(y, x)))
}

// Destination returns the point reached by traveling dist meters from p on
// the given compass bearing (degrees).
func Destination(p Point, bearingDeg, dist float64) Point {
	la1 := deg2rad(p.Lat)
	lo1 := deg2rad(p.Lon)
	brg := deg2rad(bearingDeg)
	ad := dist / EarthRadiusMeters
	la2 := math.Asin(math.Sin(la1)*math.Cos(ad) + math.Cos(la1)*math.Sin(ad)*math.Cos(brg))
	lo2 := lo1 + math.Atan2(math.Sin(brg)*math.Sin(ad)*math.Cos(la1),
		math.Cos(ad)-math.Sin(la1)*math.Sin(la2))
	lon := rad2deg(lo2)
	// Normalize longitude into (-180, 180].
	for lon > 180 {
		lon -= 360
	}
	for lon <= -180 {
		lon += 360
	}
	return Point{Lat: rad2deg(la2), Lon: lon}
}

// NormalizeBearing maps an arbitrary degree value into [0, 360).
func NormalizeBearing(deg float64) float64 {
	d := math.Mod(deg, 360)
	if d < 0 {
		d += 360
	}
	return d
}

// AngularDiff returns the absolute smallest angle in degrees [0,180]
// between two compass bearings.
func AngularDiff(a, b float64) float64 {
	d := math.Abs(NormalizeBearing(a) - NormalizeBearing(b))
	if d > 180 {
		d = 360 - d
	}
	return d
}

// Rect is an axis-aligned geographic bounding rectangle. MinLat <= MaxLat
// and MinLon <= MaxLon; rectangles never wrap the antimeridian (the
// synthetic cities used throughout TVDP stay well inside a hemisphere).
type Rect struct {
	MinLat float64 `json:"min_lat"`
	MinLon float64 `json:"min_lon"`
	MaxLat float64 `json:"max_lat"`
	MaxLon float64 `json:"max_lon"`
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		MinLat: math.Min(a.Lat, b.Lat),
		MinLon: math.Min(a.Lon, b.Lon),
		MaxLat: math.Max(a.Lat, b.Lat),
		MaxLon: math.Max(a.Lon, b.Lon),
	}
}

// RectFromPoints returns the minimum bounding rectangle of pts.
// It panics if pts is empty.
func RectFromPoints(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geo: RectFromPoints with no points")
	}
	r := Rect{MinLat: pts[0].Lat, MaxLat: pts[0].Lat, MinLon: pts[0].Lon, MaxLon: pts[0].Lon}
	for _, p := range pts[1:] {
		r = r.ExtendPoint(p)
	}
	return r
}

// Valid reports whether r is a well-formed rectangle.
func (r Rect) Valid() bool {
	return r.MinLat <= r.MaxLat && r.MinLon <= r.MaxLon &&
		!math.IsNaN(r.MinLat) && !math.IsNaN(r.MinLon) &&
		!math.IsNaN(r.MaxLat) && !math.IsNaN(r.MaxLon)
}

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{Lat: (r.MinLat + r.MaxLat) / 2, Lon: (r.MinLon + r.MaxLon) / 2}
}

// Contains reports whether p lies inside or on the border of r.
func (r Rect) Contains(p Point) bool {
	return p.Lat >= r.MinLat && p.Lat <= r.MaxLat &&
		p.Lon >= r.MinLon && p.Lon <= r.MaxLon
}

// Intersects reports whether r and o share any point.
func (r Rect) Intersects(o Rect) bool {
	return r.MinLat <= o.MaxLat && o.MinLat <= r.MaxLat &&
		r.MinLon <= o.MaxLon && o.MinLon <= r.MaxLon
}

// Union returns the smallest rectangle containing both r and o.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		MinLat: math.Min(r.MinLat, o.MinLat),
		MinLon: math.Min(r.MinLon, o.MinLon),
		MaxLat: math.Max(r.MaxLat, o.MaxLat),
		MaxLon: math.Max(r.MaxLon, o.MaxLon),
	}
}

// Intersection returns the overlap of r and o and whether it is non-empty.
func (r Rect) Intersection(o Rect) (Rect, bool) {
	out := Rect{
		MinLat: math.Max(r.MinLat, o.MinLat),
		MinLon: math.Max(r.MinLon, o.MinLon),
		MaxLat: math.Min(r.MaxLat, o.MaxLat),
		MaxLon: math.Min(r.MaxLon, o.MaxLon),
	}
	if !out.Valid() {
		return Rect{}, false
	}
	return out, true
}

// ExtendPoint returns r grown to include p.
func (r Rect) ExtendPoint(p Point) Rect {
	return Rect{
		MinLat: math.Min(r.MinLat, p.Lat),
		MinLon: math.Min(r.MinLon, p.Lon),
		MaxLat: math.Max(r.MaxLat, p.Lat),
		MaxLon: math.Max(r.MaxLon, p.Lon),
	}
}

// Area returns the rectangle's area in squared degrees. It is a pure
// index-ordering metric (R-tree enlargement heuristics), not a physical area.
func (r Rect) Area() float64 {
	if !r.Valid() {
		return 0
	}
	return (r.MaxLat - r.MinLat) * (r.MaxLon - r.MinLon)
}

// Enlargement returns how much r's area grows if extended to include o.
func (r Rect) Enlargement(o Rect) float64 {
	return r.Union(o).Area() - r.Area()
}

// OverlapArea returns the area of the intersection of r and o in squared
// degrees (zero when disjoint).
func (r Rect) OverlapArea(o Rect) float64 {
	ix, ok := r.Intersection(o)
	if !ok {
		return 0
	}
	return ix.Area()
}

// DistancePointRect returns the great-circle distance in meters from p to
// the nearest point of r (zero when p is inside r).
func DistancePointRect(p Point, r Rect) float64 {
	q := Point{
		Lat: clamp(p.Lat, r.MinLat, r.MaxLat),
		Lon: clamp(p.Lon, r.MinLon, r.MaxLon),
	}
	return Haversine(p, q)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
