package render

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"godiva/internal/mesh"
	"godiva/internal/vis"
)

// oracleDrawSurface and oracleRasterize are DrawSurface and rasterize as they
// stood before the visibility buffer: one immediate-mode pass that colors a
// pixel inside the triangle loop, the moment it wins the z-test. The bodies
// are kept verbatim; DrawSurface and Recolor must reproduce their image and
// depth buffer bit for bit.
func (r *Renderer) oracleDrawSurface(s *vis.TriSurface, cam Camera, lut LUT, lo, hi float64) error {
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
	span := hi - lo
	if span == 0 {
		span = 1
	}

	nv := s.NumVerts()
	r.verts.resize(nv)
	sx, sy, sz, ok := r.verts.sx, r.verts.sy, r.verts.sz, r.verts.ok
	shade, cr, cg, cb := r.verts.shade, r.verts.cr, r.verts.cg, r.verts.cb
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
		t := 0.5
		if s.Scalars != nil {
			t = (s.Scalars[i] - lo) / span
		}
		rr, gg, bb := lut.Color(t)
		cr[i], cg[i], cb[i] = rr, gg, bb
	}

	for t := 0; t < s.NumTris(); t++ {
		i0, i1, i2 := s.Tris[3*t], s.Tris[3*t+1], s.Tris[3*t+2]
		if !ok[i0] || !ok[i1] || !ok[i2] {
			continue
		}
		r.oracleRasterize(
			sx[i0], sy[i0], sz[i0], cr[i0]*shade[i0], cg[i0]*shade[i0], cb[i0]*shade[i0],
			sx[i1], sy[i1], sz[i1], cr[i1]*shade[i1], cg[i1]*shade[i1], cb[i1]*shade[i1],
			sx[i2], sy[i2], sz[i2], cr[i2]*shade[i2], cg[i2]*shade[i2], cb[i2]*shade[i2],
		)
	}
	return nil
}

func (r *Renderer) oracleRasterize(
	x0, y0, z0, r0, g0, b0,
	x1, y1, z1, r1, g1, b1,
	x2, y2, z2, r2, g2, b2 float64,
) {
	area := (x1-x0)*(y2-y0) - (x2-x0)*(y1-y0)
	if area == 0 {
		return
	}
	r.TrisDrawn++
	minX := int(max(0, math.Floor(min(x0, x1, x2))))
	maxX := int(min(float64(r.W-1), math.Ceil(max(x0, x1, x2))))
	minY := int(max(0, math.Floor(min(y0, y1, y2))))
	maxY := int(min(float64(r.H-1), math.Ceil(max(y0, y1, y2))))
	inv := 1 / area
	pix, stride := r.img.Pix, r.img.Stride
	for py := minY; py <= maxY; py++ {
		fy := float64(py) + 0.5
		for px := minX; px <= maxX; px++ {
			fx := float64(px) + 0.5
			w0 := ((x1-fx)*(y2-fy) - (x2-fx)*(y1-fy)) * inv
			w1 := ((x2-fx)*(y0-fy) - (x0-fx)*(y2-fy)) * inv
			w2 := 1 - w0 - w1
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			z := w0*z0 + w1*z1 + w2*z2
			idx := py*r.W + px
			if z >= r.depth[idx] {
				continue
			}
			r.depth[idx] = z
			rr := clamp01(w0*r0 + w1*r1 + w2*r2)
			gg := clamp01(w0*g0 + w1*g1 + w2*g2)
			bb := clamp01(w0*b0 + w1*b1 + w2*b2)
			p := pix[py*stride+4*px:][:4]
			p[0], p[1], p[2], p[3] = uint8(rr*255+0.5), uint8(gg*255+0.5), uint8(bb*255+0.5), 255
		}
	}
}

// insideCamera sits inside the cloud randomSurface fills, so part of every
// surface is behind it and much of the rest outside the view.
func insideCamera() Camera {
	return Camera{
		Eye: mesh.Vec3{X: 0.3, Y: -0.2, Z: -2}, LookAt: mesh.Vec3{Z: 1}, Up: mesh.Vec3{Y: 1},
		FOVDegrees: 55, Near: 0.05, Far: 50,
	}
}

// randomSurface scatters nt triangles through the cube [-4, 4]^3: long ones
// between unrelated vertices (partly or wholly off-screen, some with a vertex
// behind insideCamera), slivers around one vertex (sub-pixel), triangles
// naming a vertex twice (zero area), and copies of the triangle before them
// on vertices of their own (coplanar, equal depth at every pixel, other
// colors — the z-test's tie, which draw order decides). Normals are left for
// the first draw to compute.
func randomSurface(rng *rand.Rand, nt int) *vis.TriSurface {
	s := &vis.TriSurface{}
	vert := func(x, y, z float64) int32 {
		s.Coords = append(s.Coords, x, y, z)
		return int32(s.NumVerts() - 1)
	}
	anywhere := func() int32 {
		return vert(rng.Float64()*8-4, rng.Float64()*8-4, rng.Float64()*8-4)
	}
	near := func(v int32, d float64) int32 {
		p := s.Vert(v)
		return vert(p.X+rng.NormFloat64()*d, p.Y+rng.NormFloat64()*d, p.Z+rng.NormFloat64()*d)
	}
	for len(s.Tris) < 3*nt {
		switch k := rng.Intn(10); {
		case k == 0:
			a := anywhere()
			s.Tris = append(s.Tris, a, anywhere(), a)
		case k == 1 && len(s.Tris) > 0:
			a, b, c := s.Tris[len(s.Tris)-3], s.Tris[len(s.Tris)-2], s.Tris[len(s.Tris)-1]
			s.Tris = append(s.Tris, near(a, 0), near(b, 0), near(c, 0))
		case k < 6:
			a := anywhere()
			s.Tris = append(s.Tris, a, near(a, 0.05), near(a, 0.05))
		case k < 8 && s.NumVerts() > 0:
			old := rng.Int31n(int32(s.NumVerts())) // shares a vertex with an earlier triangle
			a := anywhere()
			s.Tris = append(s.Tris, a, old, near(a, 1))
		default:
			s.Tris = append(s.Tris, anywhere(), anywhere(), anywhere())
		}
	}
	return s
}

func randomScalars(rng *rand.Rand, n int) []float64 {
	sc := make([]float64, n)
	for i := range sc {
		sc[i] = rng.NormFloat64()
	}
	return sc
}

// sameFrame compares two renderers' images and depth buffers bit for bit.
func sameFrame(t *testing.T, what string, got, want *Renderer) {
	t.Helper()
	if !bytes.Equal(got.img.Pix, want.img.Pix) {
		diff := 0
		for i := 0; i < len(want.img.Pix); i += 4 {
			if !bytes.Equal(got.img.Pix[i:i+4], want.img.Pix[i:i+4]) {
				diff++
			}
		}
		t.Errorf("%s: %d of %d pixels differ from the immediate-mode oracle", what, diff, len(want.img.Pix)/4)
	}
	for i := range want.depth {
		if math.Float64bits(got.depth[i]) != math.Float64bits(want.depth[i]) {
			t.Errorf("%s: depth[%d] = %v, oracle %v", what, i, got.depth[i], want.depth[i])
			break
		}
	}
	if got.TrisDrawn != want.TrisDrawn {
		t.Errorf("%s: %d triangles drawn, oracle %d", what, got.TrisDrawn, want.TrisDrawn)
	}
}

func TestDrawSurfaceMatchesOracle(t *testing.T) {
	cam := insideCamera()
	got := NewRenderer(96, 72) // one renderer for the whole test: every draw reuses the last one's scratch
	covered, culled := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Sizes go up and down, so a draw follows a larger one.
		s := randomSurface(rng, []int{400, 60, 900, 30, 200, 500}[seed-1])
		sc := randomScalars(rng, s.NumVerts())
		lo, hi := vis.ScalarRange(sc)
		for name, c := range map[string]struct {
			scalars []float64
			lut     LUT
			lo, hi  float64
		}{
			"scalars":     {sc, Rainbow{}, lo, hi},
			"no scalars":  {nil, CoolWarm{}, lo, hi},
			"flat range":  {sc, Rainbow{}, 0.25, 0.25},
			"tight range": {sc, Grayscale{}, -0.1, 0.1}, // most vertices clamp
		} {
			s.Scalars = c.scalars
			want := NewRenderer(96, 72)
			if err := want.oracleDrawSurface(s, cam, c.lut, c.lo, c.hi); err != nil {
				t.Fatal(err)
			}
			got.Clear()
			if err := got.DrawSurface(s, cam, c.lut, c.lo, c.hi); err != nil {
				t.Fatal(err)
			}
			sameFrame(t, name, got, want)
			covered += countNonBackground(want)
			culled += s.NumTris() - int(want.TrisDrawn)
		}
	}
	if covered == 0 || culled == 0 {
		t.Fatalf("the surfaces covered %d pixels and had %d triangles culled; the comparison needs both", covered, culled)
	}
}

// Two surfaces drawn into one frame, without a Clear between them, meet in
// the depth buffer exactly as they did.
func TestDrawSurfaceTwiceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cam := insideCamera()
	got, want := NewRenderer(80, 60), NewRenderer(80, 60)
	for i := 0; i < 2; i++ {
		s := randomSurface(rng, 300)
		s.Scalars = randomScalars(rng, s.NumVerts())
		if err := want.oracleDrawSurface(s, cam, Rainbow{}, -1, 1); err != nil {
			t.Fatal(err)
		}
		if err := got.DrawSurface(s, cam, Rainbow{}, -1, 1); err != nil {
			t.Fatal(err)
		}
		sameFrame(t, "after surface "+string(rune('1'+i)), got, want)
	}
}

// Recolor after one draw gives the frame a fresh draw with those scalars
// gives: for every scalar set, lookup table and range, and also when the
// renderer last held a larger surface.
func TestRecolorMatchesOracle(t *testing.T) {
	cam := insideCamera()
	got := NewRenderer(96, 72)
	for seed := int64(31); seed <= 34; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomSurface(rng, []int{700, 90, 350, 40}[seed-31])
		s.Scalars = randomScalars(rng, s.NumVerts())
		got.Clear()
		if err := got.DrawSurface(s, cam, Rainbow{}, -2, 2); err != nil {
			t.Fatal(err)
		}
		drawn := got.TrisDrawn
		luts := []LUT{Rainbow{}, CoolWarm{}, Grayscale{}}
		for k := 0; k < 6; k++ {
			sc := randomScalars(rng, s.NumVerts())
			lo, hi := vis.ScalarRange(sc)
			switch k {
			case 3:
				sc = nil
			case 4:
				hi = lo
			}
			lut := luts[k%len(luts)]
			if err := got.Recolor(sc, lut, lo, hi); err != nil {
				t.Fatal(err)
			}
			again := *s
			again.Scalars = sc
			want := NewRenderer(96, 72)
			if err := want.oracleDrawSurface(&again, cam, lut, lo, hi); err != nil {
				t.Fatal(err)
			}
			sameFrame(t, "recolor", got, want)
			if countNonBackground(want) == 0 {
				t.Fatal("the surface covers no pixel")
			}
		}
		if got.TrisDrawn != drawn {
			t.Errorf("Recolor moved TrisDrawn from %d to %d", drawn, got.TrisDrawn)
		}
	}
}

// Recolor repaints only the pixels the most recent surface still owns: an
// earlier surface stays as it was where it shows past the later one.
func TestRecolorLeavesLaterDrawsAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cam := insideCamera()
	s := randomSurface(rng, 500)
	s.Scalars = randomScalars(rng, s.NumVerts())
	under := randomSurface(rng, 200)
	under.Scalars = randomScalars(rng, under.NumVerts())
	other := randomScalars(rng, s.NumVerts())

	recolored := *s
	recolored.Scalars = other
	got, want := NewRenderer(96, 72), NewRenderer(96, 72)
	for _, step := range []struct {
		name      string
		got, want func() error
	}{
		{"under", func() error { return got.DrawSurface(under, cam, Grayscale{}, -1, 1) },
			func() error { return want.oracleDrawSurface(under, cam, Grayscale{}, -1, 1) }},
		{"surface", func() error { return got.DrawSurface(s, cam, Rainbow{}, -1, 1) },
			// The oracle draws the surface in the colors it will end up with.
			func() error { return want.oracleDrawSurface(&recolored, cam, CoolWarm{}, -2, 2) }},
		{"recolor", func() error { return got.Recolor(other, CoolWarm{}, -2, 2) },
			func() error { return nil }},
	} {
		if err := step.got(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if err := step.want(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
	}
	sameFrame(t, "under, surface, recolor", got, want)

	// The comparison above is about something only if the under surface
	// still shows in some pixels and the later surface covers it in others.
	alone := NewRenderer(96, 72)
	if err := alone.oracleDrawSurface(under, cam, Grayscale{}, -1, 1); err != nil {
		t.Fatal(err)
	}
	shows, covered := 0, 0
	for i, z := range alone.depth {
		switch {
		case math.IsInf(z, 1):
		case want.depth[i] == z && bytes.Equal(alone.img.Pix[4*i:4*i+4], want.img.Pix[4*i:4*i+4]):
			shows++
		default:
			covered++
		}
	}
	if shows == 0 || covered == 0 {
		t.Fatalf("the under surface shows in %d pixels and is covered in %d; the test needs both", shows, covered)
	}
}

// Recolor needs a drawn surface, and only the most recent DrawSurface since
// the last Clear counts as one.
func TestRecolorLifetime(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	cam := insideCamera()
	s := randomSurface(rng, 100)
	sc := randomScalars(rng, s.NumVerts())
	r := NewRenderer(48, 36)
	refused := func(when string, scalars []float64) {
		t.Helper()
		before := bytes.Clone(r.img.Pix)
		if err := r.Recolor(scalars, Rainbow{}, 0, 1); !errors.Is(err, ErrBadSurface) {
			t.Errorf("Recolor %s returned %v, want ErrBadSurface", when, err)
		}
		if !bytes.Equal(before, r.img.Pix) {
			t.Errorf("a Recolor refused %s changed the image", when)
		}
	}
	refused("on a new renderer", sc)
	if err := r.DrawSurface(s, cam, Rainbow{}, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Recolor(sc, Rainbow{}, 0, 1); err != nil {
		t.Fatalf("Recolor after DrawSurface: %v", err)
	}
	refused("with one scalar too few", sc[:len(sc)-1])
	refused("with one scalar too many", append(sc[:len(sc):len(sc)], 0))
	r.Clear()
	refused("after Clear", sc)
	if err := r.DrawSurface(s, cam, Rainbow{}, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.DrawSurface(&vis.TriSurface{}, cam, Rainbow{}, 0, 1); err != nil {
		t.Fatal(err)
	}
	refused("after an empty DrawSurface", sc)
	if err := r.DrawSurface(s, cam, Rainbow{}, 0, 1); err != nil {
		t.Fatal(err)
	}
	bad := *s
	bad.Tris = append(bad.Tris[:len(bad.Tris):len(bad.Tris)], 0, 1)
	if err := r.DrawSurface(&bad, cam, Rainbow{}, 0, 1); !errors.Is(err, ErrBadSurface) {
		t.Fatalf("malformed surface: %v", err)
	}
	refused("after a refused DrawSurface", sc)
}

// d1Aggregate is the external surface of the benchmark's D1 mesh as the
// pipeline aggregates it: 120 blocks' surfaces appended, colored by height.
func d1Aggregate(tb testing.TB) (agg *vis.TriSurface, lo, hi mesh.Vec3) {
	whole := mesh.GenerateAnnulus(mesh.AnnulusSpec{NR: 2, NTheta: 24, NZ: 160, RInner: 0.6, ROuter: 1.55, Length: 24})
	agg = &vis.TriSurface{}
	for _, m := range whole.Partition(120) {
		sc := make([]float64, m.NumNodes())
		for i := range sc {
			sc[i] = m.Node(int32(i)).Z
		}
		part, err := vis.ExtractSurface(m, sc)
		if err != nil {
			tb.Fatal(err)
		}
		agg.Append(part)
	}
	lo, hi = whole.Bounds()
	return agg, lo, hi
}

// BenchmarkRecolor is a surface pass after the snapshot's first: new colors
// for the 39 680 triangles of D1's surface, already drawn into a warm
// renderer. It allocates nothing (verify.sh's benchmem stage).
func BenchmarkRecolor(b *testing.B) {
	agg, blo, bhi := d1Aggregate(b)
	lo, hi := vis.ScalarRange(agg.Scalars)
	r := NewRenderer(160, 120)
	if err := r.DrawSurface(agg, DefaultCamera(blo, bhi), Rainbow{}, lo, hi); err != nil {
		b.Fatal(err)
	}
	other := make([]float64, len(agg.Scalars))
	for i, v := range agg.Scalars {
		other[i] = hi - v
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Recolor(other, Rainbow{}, 0, hi-lo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDrawAggregate is the snapshot's first surface pass over the same
// surface, for scale beside BenchmarkRecolor.
func BenchmarkDrawAggregate(b *testing.B) {
	agg, blo, bhi := d1Aggregate(b)
	lo, hi := vis.ScalarRange(agg.Scalars)
	cam := DefaultCamera(blo, bhi)
	r := NewRenderer(160, 120)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Clear()
		if err := r.DrawSurface(agg, cam, Rainbow{}, lo, hi); err != nil {
			b.Fatal(err)
		}
	}
}
