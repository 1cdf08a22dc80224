package render

import (
	"image/color"
	"math"

	"godiva/internal/mesh"
	"godiva/internal/vis"
)

// DrawLines rasterizes a LineSet (streamlines, vector glyphs, wireframes)
// with z-buffered, depth-interpolated segments, mapping per-point scalars
// through the lookup table over [lo, hi].
func (r *Renderer) DrawLines(ls *vis.LineSet, cam Camera, lut LUT, lo, hi float64) error {
	if ls.NumLines() == 0 {
		return nil
	}
	vp := cam.projMatrix(float64(r.W) / float64(r.H)).mul(cam.viewMatrix())
	span := hi - lo
	if span == 0 {
		span = 1
	}
	np := ls.NumPoints()
	sx := make([]float64, np)
	sy := make([]float64, np)
	sz := make([]float64, np)
	ok := make([]bool, np)
	cr := make([]float64, np)
	cg := make([]float64, np)
	cb := make([]float64, np)
	for i := 0; i < np; i++ {
		p := mesh.Vec3{X: ls.Points[3*i], Y: ls.Points[3*i+1], Z: ls.Points[3*i+2]}
		x, y, z, w := vp.xform(p)
		if w <= 0 {
			continue
		}
		ok[i] = true
		sx[i] = (x/w + 1) / 2 * float64(r.W)
		sy[i] = (1 - y/w) / 2 * float64(r.H)
		sz[i] = z / w
		t := 0.5
		if ls.Scalars != nil {
			t = (ls.Scalars[i] - lo) / span
		}
		cr[i], cg[i], cb[i] = lut.Color(t)
	}
	for li := 0; li < ls.NumLines(); li++ {
		from, to := ls.Line(li)
		for i := from; i < to-1; i++ {
			if !ok[i] || !ok[i+1] {
				continue
			}
			r.segment(
				sx[i], sy[i], sz[i], cr[i], cg[i], cb[i],
				sx[i+1], sy[i+1], sz[i+1], cr[i+1], cg[i+1], cb[i+1],
			)
		}
	}
	return nil
}

// segment draws one screen-space line segment with depth testing. A small
// depth bias draws lines on top of coincident surfaces, so streamlines stay
// visible over the geometry they trace. A pixel a line takes is no longer the
// drawn surface's to recolor.
func (r *Renderer) segment(
	x0, y0, z0, r0, g0, b0,
	x1, y1, z1, r1, g1, b1 float64,
) {
	const depthBias = 1e-4
	steps := int(math.Max(math.Abs(x1-x0), math.Abs(y1-y0))) + 1
	for s := 0; s <= steps; s++ {
		t := float64(s) / float64(steps)
		px := int(x0 + (x1-x0)*t)
		py := int(y0 + (y1-y0)*t)
		if px < 0 || px >= r.W || py < 0 || py >= r.H {
			continue
		}
		z := z0 + (z1-z0)*t - depthBias
		idx := py*r.W + px
		if z >= r.depth[idx] {
			continue
		}
		r.depth[idx] = z
		r.frag[idx] = noFrag
		rr := clamp01(r0 + (r1-r0)*t)
		gg := clamp01(g0 + (g1-g0)*t)
		bb := clamp01(b0 + (b1-b0)*t)
		r.img.SetRGBA(px, py, color.RGBA{
			uint8(rr*255 + 0.5), uint8(gg*255 + 0.5), uint8(bb*255 + 0.5), 255,
		})
	}
}

// DrawColorbar paints a vertical color legend along the image's right edge,
// the "color scale" a Rocketeer session shows. It paints over whatever is
// there, and Recolor leaves it be.
func (r *Renderer) DrawColorbar(lut LUT) {
	barW := r.W / 24
	if barW < 4 {
		barW = 4
	}
	margin := r.H / 12
	x0 := max(r.W-barW-4, 0)
	for y := margin; y < r.H-margin; y++ {
		t := 1 - float64(y-margin)/float64(r.H-2*margin)
		rr, gg, bb := lut.Color(t)
		c := color.RGBA{uint8(rr*255 + 0.5), uint8(gg*255 + 0.5), uint8(bb*255 + 0.5), 255}
		for x := x0; x < r.W-4; x++ {
			r.img.SetRGBA(x, y, c)
			r.frag[y*r.W+x] = noFrag
		}
	}
}
