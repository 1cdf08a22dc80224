// Package render is a small software renderer for the reproduction's
// Voyager: perspective camera, z-buffered triangle rasterization with
// Gouraud shading and scalar color mapping, and PNG output. It stands in
// for the hardware/VTK rendering path of the paper's Rocketeer suite.
//
// Surfaces are rasterized into a visibility buffer — which triangle owns
// each pixel — and colored from it in a second step, so a surface drawn once
// can be recolored by other scalars without rasterizing it again (Recolor).
package render

import (
	"errors"
	"image"
	"image/png"
	"math"
	"os"
	"slices"

	"godiva/internal/mesh"
	"godiva/internal/vis"
)

// ErrBadSurface is returned when a surface is missing what rendering needs.
var ErrBadSurface = errors.New("render: surface not renderable")

// Camera is a perspective look-at camera, the counterpart of the camera
// position file a Rocketeer interactive session saves for Voyager.
type Camera struct {
	Eye, LookAt, Up mesh.Vec3
	FOVDegrees      float64 // vertical field of view
	Near, Far       float64
}

// DefaultCamera frames the given bounding box from an oblique direction.
func DefaultCamera(lo, hi mesh.Vec3) Camera {
	center := lo.Add(hi).Scale(0.5)
	diag := hi.Sub(lo).Norm()
	eye := center.Add(mesh.Vec3{X: 0.9, Y: 0.65, Z: 0.7}.Scale(diag * 1.1))
	return Camera{
		Eye: eye, LookAt: center, Up: mesh.Vec3{Z: 1},
		FOVDegrees: 40, Near: diag * 0.01, Far: diag * 10,
	}
}

// mat4 is a row-major 4x4 transform.
type mat4 [16]float64

func (m mat4) mul(n mat4) mat4 {
	var out mat4
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			var s float64
			for k := 0; k < 4; k++ {
				s += m[4*r+k] * n[4*k+c]
			}
			out[4*r+c] = s
		}
	}
	return out
}

// xform applies m to (p, 1) and returns the homogeneous result.
func (m mat4) xform(p mesh.Vec3) (x, y, z, w float64) {
	x = m[0]*p.X + m[1]*p.Y + m[2]*p.Z + m[3]
	y = m[4]*p.X + m[5]*p.Y + m[6]*p.Z + m[7]
	z = m[8]*p.X + m[9]*p.Y + m[10]*p.Z + m[11]
	w = m[12]*p.X + m[13]*p.Y + m[14]*p.Z + m[15]
	return
}

// viewMatrix builds the world-to-camera transform.
func (c Camera) viewMatrix() mat4 {
	f := c.LookAt.Sub(c.Eye).Normalize() // forward
	s := f.Cross(c.Up.Normalize()).Normalize()
	u := s.Cross(f)
	return mat4{
		s.X, s.Y, s.Z, -s.Dot(c.Eye),
		u.X, u.Y, u.Z, -u.Dot(c.Eye),
		-f.X, -f.Y, -f.Z, f.Dot(c.Eye),
		0, 0, 0, 1,
	}
}

// projMatrix builds the perspective projection.
func (c Camera) projMatrix(aspect float64) mat4 {
	fov := c.FOVDegrees * math.Pi / 180
	t := 1 / math.Tan(fov/2)
	n, f := c.Near, c.Far
	return mat4{
		t / aspect, 0, 0, 0,
		0, t, 0, 0,
		0, 0, (f + n) / (n - f), 2 * f * n / (n - f),
		0, 0, -1, 0,
	}
}

// Renderer rasterizes surfaces into an RGBA image with a z-buffer.
type Renderer struct {
	W, H  int
	img   *image.RGBA
	depth []float64
	// Light is the directional light (pointing from the scene toward the
	// light); shading is two-sided.
	Light mesh.Vec3
	// Ambient is the ambient light fraction.
	Ambient float64
	// TrisDrawn counts rasterized (non-culled) triangles.
	TrisDrawn int64
	// verts is the per-vertex state of the most recent DrawSurface: scratch
	// reused from draw to draw, and what Recolor colors and resolves from.
	verts vertScratch
	// tris is the triangle list of the most recent DrawSurface (a copy, so
	// the caller's surface may change), empty when there is none: Clear and
	// the next DrawSurface end a drawn surface's life.
	tris []int32
	// frag is the visibility buffer: per pixel, the index in tris of the
	// triangle that won the pixel's z-test and still owns it, or noFrag.
	frag []int32
}

// noFrag marks a pixel no triangle of the drawn surface owns.
const noFrag = -1

// vertScratch holds each vertex's screen position, visibility, shade and
// shaded color: written by DrawSurface's transform and color loops, read by
// the triangle loop and by resolve.
type vertScratch struct {
	sx, sy, sz, shade, cr, cg, cb []float64
	ok                            []bool
}

// resize makes every slice nv long. Contents are stale: DrawSurface writes
// ok for every vertex and reads the rest only where ok is set.
func (v *vertScratch) resize(nv int) {
	for _, p := range []*[]float64{&v.sx, &v.sy, &v.sz, &v.shade, &v.cr, &v.cg, &v.cb} {
		*p = slices.Grow((*p)[:0], nv)[:nv]
	}
	v.ok = slices.Grow(v.ok[:0], nv)[:nv]
}

// NewRenderer creates a renderer with a dark background.
func NewRenderer(w, h int) *Renderer {
	r := &Renderer{
		W: w, H: h,
		img:     image.NewRGBA(image.Rect(0, 0, w, h)),
		depth:   make([]float64, w*h),
		frag:    make([]int32, w*h),
		Light:   mesh.Vec3{X: 0.4, Y: 0.3, Z: 0.85}.Normalize(),
		Ambient: 0.25,
	}
	r.Clear()
	return r
}

// Clear resets the image and depth buffer, and forgets the drawn surface.
func (r *Renderer) Clear() {
	r.tris = r.tris[:0]
	for i := range r.depth {
		r.depth[i] = math.Inf(1)
	}
	pix := r.img.Pix
	for i := 0; i+3 < len(pix); i += 4 {
		pix[i], pix[i+1], pix[i+2], pix[i+3] = 18, 18, 24, 255
	}
	r.TrisDrawn = 0
}

// Image returns the rendered image.
func (r *Renderer) Image() *image.RGBA { return r.img }

// WritePNG encodes the image to path.
func (r *Renderer) WritePNG(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := png.Encode(f, r.img); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// renderable checks what DrawSurface indexes without further checks: whole
// vertices and triangles, scalars and normals parallel to the vertices, and
// triangle indices inside the vertex array.
func renderable(s *vis.TriSurface) bool {
	nv := s.NumVerts()
	if nv == 0 || len(s.Coords)%3 != 0 || len(s.Tris)%3 != 0 ||
		s.Scalars != nil && len(s.Scalars) != nv ||
		s.Normals != nil && len(s.Normals) != len(s.Coords) {
		return false
	}
	for _, v := range s.Tris {
		if v < 0 || int(v) >= nv {
			return false
		}
	}
	return true
}

// DrawSurface rasterizes a surface with Gouraud shading, mapping Scalars
// through the lookup table over [lo, hi]. Surfaces without normals get them
// computed; surfaces without scalars render in the LUT's midpoint color. A
// surface whose arrays do not fit together is refused with ErrBadSurface
// before anything is drawn. The surface drawn stays recolorable (Recolor)
// until the next DrawSurface or Clear, whatever either one's outcome.
func (r *Renderer) DrawSurface(s *vis.TriSurface, cam Camera, lut LUT, lo, hi float64) error {
	r.tris = r.tris[:0]
	if s.NumTris() == 0 {
		return nil
	}
	if !renderable(s) {
		return ErrBadSurface
	}
	if s.Normals == nil {
		vis.ComputeNormals(s)
	}
	vp := cam.projMatrix(float64(r.W) / float64(r.H)).mul(cam.viewMatrix())

	nv := s.NumVerts()
	r.verts.resize(nv)
	sx, sy, sz, ok, shade := r.verts.sx, r.verts.sy, r.verts.sz, r.verts.ok, r.verts.shade
	for i := 0; i < nv; i++ {
		x, y, z, w := vp.xform(s.Vert(int32(i)))
		ok[i] = w > 0
		if !ok[i] {
			continue // behind the camera
		}
		sx[i] = (x/w + 1) / 2 * float64(r.W)
		sy[i] = (1 - y/w) / 2 * float64(r.H)
		sz[i] = z / w
		n := mesh.Vec3{X: s.Normals[3*i], Y: s.Normals[3*i+1], Z: s.Normals[3*i+2]}
		diffuse := math.Abs(n.Dot(r.Light)) // two-sided
		shade[i] = r.Ambient + (1-r.Ambient)*diffuse
	}

	r.tris = append(r.tris, s.Tris...)
	r.rasterize()
	r.colorVerts(s.Scalars, lut, lo, hi)
	r.resolve()
	return nil
}

// Recolor repaints the surface the most recent DrawSurface drew as if it had
// been drawn with these per-vertex scalars (nil for the LUT's midpoint
// color), lookup table and range: the pixels that surface still owns change
// color and nothing else moves — not the depth buffer, not pixels written
// since. It returns ErrBadSurface when no drawn surface is current or the
// scalars are not parallel to its vertices.
func (r *Renderer) Recolor(scalars []float64, lut LUT, lo, hi float64) error {
	if len(r.tris) == 0 || scalars != nil && len(scalars) != len(r.verts.ok) {
		return ErrBadSurface
	}
	r.colorVerts(scalars, lut, lo, hi)
	r.resolve()
	return nil
}

// colorVerts maps each visible vertex's scalar through the lookup table over
// [lo, hi] and stores the color times the vertex's shade.
//
//godiva:noalloc
func (r *Renderer) colorVerts(scalars []float64, lut LUT, lo, hi float64) {
	span := hi - lo
	if span == 0 {
		span = 1
	}
	ok, shade, cr, cg, cb := r.verts.ok, r.verts.shade, r.verts.cr, r.verts.cg, r.verts.cb
	for i := range ok {
		if !ok[i] {
			continue
		}
		t := 0.5
		if scalars != nil {
			t = (scalars[i] - lo) / span
		}
		rr, gg, bb := lut.Color(t)
		cr[i], cg[i], cb[i] = rr*shade[i], gg*shade[i], bb*shade[i]
	}
}

// bary returns the barycentric weights of the point (fx, fy) in a screen
// triangle whose doubled signed area is 1/inv. rasterize decides coverage
// and depth with these weights and resolve interpolates color with them;
// going through one function keeps the two on the same expressions, which is
// what makes a resolved pixel bit-identical to one colored inside the
// triangle loop.
func bary(x0, y0, x1, y1, x2, y2, inv, fx, fy float64) (w0, w1, w2 float64) {
	w0 = ((x1-fx)*(y2-fy) - (x2-fx)*(y1-fy)) * inv
	w1 = ((x2-fx)*(y0-fy) - (x0-fx)*(y2-fy)) * inv
	w2 = 1 - w0 - w1
	return
}

// rasterize is the triangle loop: it tests every pixel of every triangle of
// r.tris against the z-buffer and records, where the triangle wins, its depth
// and its index. Colors are resolve's business.
func (r *Renderer) rasterize() {
	for i := range r.frag {
		r.frag[i] = noFrag
	}
	sx, sy, sz, ok := r.verts.sx, r.verts.sy, r.verts.sz, r.verts.ok
	for t := 0; 3*t < len(r.tris); t++ {
		i0, i1, i2 := r.tris[3*t], r.tris[3*t+1], r.tris[3*t+2]
		if !ok[i0] || !ok[i1] || !ok[i2] {
			continue
		}
		x0, y0, z0 := sx[i0], sy[i0], sz[i0]
		x1, y1, z1 := sx[i1], sy[i1], sz[i1]
		x2, y2, z2 := sx[i2], sy[i2], sz[i2]
		area := (x1-x0)*(y2-y0) - (x2-x0)*(y1-y0)
		if area == 0 {
			continue
		}
		r.TrisDrawn++
		minX := int(max(0, math.Floor(min(x0, x1, x2))))
		maxX := int(min(float64(r.W-1), math.Ceil(max(x0, x1, x2))))
		minY := int(max(0, math.Floor(min(y0, y1, y2))))
		maxY := int(min(float64(r.H-1), math.Ceil(max(y0, y1, y2))))
		inv := 1 / area
		for py := minY; py <= maxY; py++ {
			fy := float64(py) + 0.5
			for px := minX; px <= maxX; px++ {
				fx := float64(px) + 0.5
				w0, w1, w2 := bary(x0, y0, x1, y1, x2, y2, inv, fx, fy)
				if w0 < 0 || w1 < 0 || w2 < 0 {
					continue
				}
				z := w0*z0 + w1*z1 + w2*z2
				idx := py*r.W + px
				if z >= r.depth[idx] {
					continue
				}
				r.depth[idx] = z
				r.frag[idx] = int32(t)
			}
		}
	}
}

// resolve colors every pixel a triangle of the drawn surface owns, by
// Gouraud interpolation of its vertices' shaded colors. The weights are
// recomputed from the vertices' kept screen positions rather than stored by
// rasterize: three float64 per pixel would be six times the visibility
// buffer, written for every z-test a pixel passes, to save a few
// multiplications on the pixels that survive.
//
//godiva:noalloc
func (r *Renderer) resolve() {
	sx, sy := r.verts.sx, r.verts.sy
	cr, cg, cb := r.verts.cr, r.verts.cg, r.verts.cb
	pix, stride := r.img.Pix, r.img.Stride
	for py := 0; py < r.H; py++ {
		fy := float64(py) + 0.5
		for px, t := range r.frag[py*r.W:][:r.W] {
			if t == noFrag {
				continue
			}
			i0, i1, i2 := r.tris[3*t], r.tris[3*t+1], r.tris[3*t+2]
			x0, y0 := sx[i0], sy[i0]
			x1, y1 := sx[i1], sy[i1]
			x2, y2 := sx[i2], sy[i2]
			area := (x1-x0)*(y2-y0) - (x2-x0)*(y1-y0)
			inv := 1 / area
			fx := float64(px) + 0.5
			w0, w1, w2 := bary(x0, y0, x1, y1, x2, y2, inv, fx, fy)
			rr := clamp01(w0*cr[i0] + w1*cr[i1] + w2*cr[i2])
			gg := clamp01(w0*cg[i0] + w1*cg[i1] + w2*cg[i2])
			bb := clamp01(w0*cb[i0] + w1*cb[i1] + w2*cb[i2])
			p := pix[py*stride+4*px:][:4]
			p[0], p[1], p[2], p[3] = uint8(rr*255+0.5), uint8(gg*255+0.5), uint8(bb*255+0.5), 255
		}
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
