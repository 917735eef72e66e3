// Package imagesim is TVDP's image substrate: a compact RGB image type,
// RGB↔HSV conversion, drawing primitives used by the synthetic street-scene
// generator, and the augmentation operations (crop, rotate, flip,
// brightness, noise) the paper's data-storage layer applies to derive
// augmented images from originals (paper §IV-B).
//
// The module is offline and stdlib-only, so images are plain pixel buffers
// rather than encoded files; everything downstream (feature extraction,
// CNN training) consumes these buffers directly.
package imagesim

import (
	"errors"
	"fmt"
	"math"
)

// RGB is one 8-bit-per-channel pixel.
type RGB struct {
	R, G, B uint8
}

// Image is a dense row-major RGB raster.
type Image struct {
	W, H int
	Pix  []RGB // len == W*H, row-major
}

// ErrBadDimensions reports a non-positive image size.
var ErrBadDimensions = errors.New("imagesim: width and height must be positive")

// New returns a black image of the given size.
func New(w, h int) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrBadDimensions, w, h)
	}
	return &Image{W: w, H: h, Pix: make([]RGB, w*h)}, nil
}

// MustNew is New for statically valid sizes; it panics on error.
func MustNew(w, h int) *Image {
	img, err := New(w, h)
	if err != nil {
		panic(err)
	}
	return img
}

// At returns the pixel at (x, y). Out-of-bounds coordinates are clamped to
// the nearest edge pixel, which gives augmentation ops simple and safe
// border behaviour.
func (m *Image) At(x, y int) RGB {
	if x < 0 {
		x = 0
	} else if x >= m.W {
		x = m.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= m.H {
		y = m.H - 1
	}
	return m.Pix[y*m.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (m *Image) Set(x, y int, c RGB) {
	if x < 0 || x >= m.W || y < 0 || y >= m.H {
		return
	}
	m.Pix[y*m.W+x] = c
}

// Clone returns a deep copy of m: the pixel buffer is freshly allocated,
// so mutating the copy never touches the original raster. Cloning a nil
// image yields nil.
func (m *Image) Clone() *Image {
	if m == nil {
		return nil
	}
	out := &Image{W: m.W, H: m.H, Pix: make([]RGB, len(m.Pix))}
	copy(out.Pix, m.Pix)
	return out
}

// Fill sets every pixel to c.
func (m *Image) Fill(c RGB) {
	for i := range m.Pix {
		m.Pix[i] = c
	}
}

// FillRect fills the axis-aligned rectangle [x0,x1)×[y0,y1) with c,
// clipped to the image bounds.
func (m *Image) FillRect(x0, y0, x1, y1 int, c RGB) {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > m.W {
		x1 = m.W
	}
	if y1 > m.H {
		y1 = m.H
	}
	for y := y0; y < y1; y++ {
		row := m.Pix[y*m.W : y*m.W+m.W]
		for x := x0; x < x1; x++ {
			row[x] = c
		}
	}
}

// FillCircle fills the disc of the given radius centered at (cx, cy).
func (m *Image) FillCircle(cx, cy, r int, c RGB) {
	r2 := r * r
	for y := cy - r; y <= cy+r; y++ {
		for x := cx - r; x <= cx+r; x++ {
			dx, dy := x-cx, y-cy
			if dx*dx+dy*dy <= r2 {
				m.Set(x, y, c)
			}
		}
	}
}

// DrawLine draws a 1-pixel line from (x0,y0) to (x1,y1) (Bresenham).
func (m *Image) DrawLine(x0, y0, x1, y1 int, c RGB) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		m.Set(x0, y0, c)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Gray returns the luminance of a pixel in [0,255].
func (c RGB) Gray() float64 {
	return 0.299*float64(c.R) + 0.587*float64(c.G) + 0.114*float64(c.B)
}

// HSV holds hue in [0,360), saturation and value in [0,1].
type HSV struct {
	H, S, V float64
}

// ToHSV converts an RGB pixel to HSV.
func (c RGB) ToHSV() HSV {
	r := float64(c.R) / 255
	g := float64(c.G) / 255
	b := float64(c.B) / 255
	mx := math.Max(r, math.Max(g, b))
	mn := math.Min(r, math.Min(g, b))
	d := mx - mn
	var h float64
	switch {
	case d == 0:
		h = 0
	case mx == r:
		h = 60 * math.Mod((g-b)/d, 6)
	case mx == g:
		h = 60 * ((b-r)/d + 2)
	default:
		h = 60 * ((r-g)/d + 4)
	}
	if h < 0 {
		h += 360
	}
	s := 0.0
	if mx > 0 {
		s = d / mx
	}
	return HSV{H: h, S: s, V: mx}
}

// ToRGB converts HSV back to RGB (inverse of RGB.ToHSV up to quantisation).
func (h HSV) ToRGB() RGB {
	c := h.V * h.S
	x := c * (1 - math.Abs(math.Mod(h.H/60, 2)-1))
	m := h.V - c
	var r, g, b float64
	switch {
	case h.H < 60:
		r, g, b = c, x, 0
	case h.H < 120:
		r, g, b = x, c, 0
	case h.H < 180:
		r, g, b = 0, c, x
	case h.H < 240:
		r, g, b = 0, x, c
	case h.H < 300:
		r, g, b = x, 0, c
	default:
		r, g, b = c, 0, x
	}
	to8 := func(v float64) uint8 {
		u := math.Round((v + m) * 255)
		if u < 0 {
			u = 0
		}
		if u > 255 {
			u = 255
		}
		return uint8(u)
	}
	return RGB{R: to8(r), G: to8(g), B: to8(b)}
}

// GrayPlane returns the image's luminance as a row-major float64 plane in
// [0,255]; feature extractors operate on this representation.
func (m *Image) GrayPlane() []float64 {
	out := make([]float64, len(m.Pix))
	for i, p := range m.Pix {
		out[i] = p.Gray()
	}
	return out
}

// Resize returns a nearest-neighbour resampling of m to w×h.
func (m *Image) Resize(w, h int) (*Image, error) {
	out, err := New(w, h)
	if err != nil {
		return nil, err
	}
	for y := 0; y < h; y++ {
		sy := y * m.H / h
		for x := 0; x < w; x++ {
			sx := x * m.W / w
			out.Pix[y*w+x] = m.Pix[sy*m.W+sx]
		}
	}
	return out, nil
}
