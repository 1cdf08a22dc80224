package render

import (
	"bytes"
	"errors"
	"image/png"
	"math"
	"os"
	"path/filepath"
	"testing"

	"godiva/internal/mesh"
	"godiva/internal/vis"
)

func testSurface(t *testing.T) *vis.TriSurface {
	t.Helper()
	m := mesh.GenerateAnnulus(mesh.AnnulusSpec{
		NR: 2, NTheta: 24, NZ: 8,
		RInner: 0.5, ROuter: 1.0, Length: 3,
	})
	sc := make([]float64, m.NumNodes())
	for i := range sc {
		sc[i] = m.Node(int32(i)).Z
	}
	s, err := vis.ExtractSurface(m, sc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// countNonBackground counts pixels that differ from the clear color.
func countNonBackground(r *Renderer) int {
	img := r.Image()
	n := 0
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			c := img.RGBAAt(x, y)
			if c.R != 18 || c.G != 18 || c.B != 24 {
				n++
			}
		}
	}
	return n
}

func TestDrawSurfaceProducesPixels(t *testing.T) {
	s := testSurface(t)
	lo, hi := vis.ScalarRange(s.Scalars)
	r := NewRenderer(200, 150)
	m := mesh.GenerateAnnulus(mesh.AnnulusSpec{NR: 1, NTheta: 8, NZ: 2, RInner: 0.5, ROuter: 1, Length: 3})
	blo, bhi := m.Bounds()
	cam := DefaultCamera(blo, bhi)
	if err := r.DrawSurface(s, cam, Rainbow{}, lo, hi); err != nil {
		t.Fatal(err)
	}
	covered := countNonBackground(r)
	total := r.W * r.H
	if covered < total/20 {
		t.Fatalf("only %d of %d pixels drawn", covered, total)
	}
	if covered == total {
		t.Fatal("surface covered every pixel; camera framing is wrong")
	}
	if r.TrisDrawn == 0 {
		t.Fatal("no triangles rasterized")
	}
}

func TestZBufferOrdersSurfaces(t *testing.T) {
	// A red triangle in front of a blue one at the same screen position:
	// the front one must win.
	front := &vis.TriSurface{
		Coords:  []float64{-1, -1, 1, 1, -1, 1, 0, 1, 1},
		Tris:    []int32{0, 1, 2},
		Scalars: []float64{1, 1, 1}, // maps to red under Rainbow
	}
	back := &vis.TriSurface{
		Coords:  []float64{-1, -1, 3, 1, -1, 3, 0, 1, 3},
		Tris:    []int32{0, 1, 2},
		Scalars: []float64{0, 0, 0}, // blue
	}
	cam := Camera{
		Eye: mesh.Vec3{Z: -2}, LookAt: mesh.Vec3{Z: 1}, Up: mesh.Vec3{Y: 1},
		FOVDegrees: 60, Near: 0.1, Far: 100,
	}
	r := NewRenderer(64, 64)
	// Draw back-to-front and front-to-back; both must give the front color.
	for _, order := range [][2]*vis.TriSurface{{back, front}, {front, back}} {
		r.Clear()
		for _, s := range order {
			if err := r.DrawSurface(s, cam, Rainbow{}, 0, 1); err != nil {
				t.Fatal(err)
			}
		}
		c := r.Image().RGBAAt(32, 40)
		if c.R <= c.B {
			t.Fatalf("draw order %v: center pixel %v is not the front (red) triangle", order, c)
		}
	}
}

func TestBehindCameraCulled(t *testing.T) {
	s := &vis.TriSurface{
		Coords:  []float64{-1, -1, -5, 1, -1, -5, 0, 1, -5},
		Tris:    []int32{0, 1, 2},
		Scalars: []float64{1, 1, 1},
	}
	cam := Camera{
		Eye: mesh.Vec3{Z: 0}, LookAt: mesh.Vec3{Z: 1}, Up: mesh.Vec3{Y: 1},
		FOVDegrees: 60, Near: 0.1, Far: 100,
	}
	r := NewRenderer(32, 32)
	if err := r.DrawSurface(s, cam, Rainbow{}, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := countNonBackground(r); got != 0 {
		t.Fatalf("%d pixels drawn for geometry behind the camera", got)
	}
}

func TestEmptySurfaceIsNoop(t *testing.T) {
	r := NewRenderer(16, 16)
	if err := r.DrawSurface(&vis.TriSurface{}, Camera{}, Rainbow{}, 0, 1); err != nil {
		t.Fatal(err)
	}
	if countNonBackground(r) != 0 {
		t.Fatal("empty surface drew pixels")
	}
}

func TestWritePNG(t *testing.T) {
	s := testSurface(t)
	lo, hi := vis.ScalarRange(s.Scalars)
	r := NewRenderer(120, 90)
	blo := mesh.Vec3{X: -1, Y: -1, Z: 0}
	bhi := mesh.Vec3{X: 1, Y: 1, Z: 3}
	if err := r.DrawSurface(s, DefaultCamera(blo, bhi), CoolWarm{}, lo, hi); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.png")
	if err := r.WritePNG(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	img, err := png.Decode(f)
	if err != nil {
		t.Fatalf("written file is not a PNG: %v", err)
	}
	if img.Bounds().Dx() != 120 || img.Bounds().Dy() != 90 {
		t.Fatalf("PNG is %v", img.Bounds())
	}
}

func TestLUTs(t *testing.T) {
	for _, lut := range []LUT{Rainbow{}, Grayscale{}, CoolWarm{}} {
		if lut.Name() == "" {
			t.Fatal("unnamed LUT")
		}
		for _, tv := range []float64{-0.5, 0, 0.25, 0.5, 0.75, 1, 1.5} {
			r, g, b := lut.Color(tv)
			for _, c := range []float64{r, g, b} {
				if c < 0 || c > 1 || math.IsNaN(c) {
					t.Fatalf("%s(%v) = %v,%v,%v out of range", lut.Name(), tv, r, g, b)
				}
			}
		}
	}
	// Rainbow endpoints: blue at 0, red at 1.
	r0, _, b0 := Rainbow{}.Color(0)
	r1, _, b1 := Rainbow{}.Color(1)
	if b0 < 0.9 || r0 > 0.1 || r1 < 0.9 || b1 > 0.1 {
		t.Fatalf("rainbow endpoints: t=0 -> %v,%v t=1 -> %v,%v", r0, b0, r1, b1)
	}
	// Grayscale midpoint.
	if r, g, b := (Grayscale{}).Color(0.5); r != 0.5 || g != 0.5 || b != 0.5 {
		t.Fatalf("grayscale(0.5) = %v,%v,%v", r, g, b)
	}
}

func TestClearResets(t *testing.T) {
	s := testSurface(t)
	r := NewRenderer(64, 48)
	blo := mesh.Vec3{X: -1, Y: -1, Z: 0}
	bhi := mesh.Vec3{X: 1, Y: 1, Z: 3}
	if err := r.DrawSurface(s, DefaultCamera(blo, bhi), Rainbow{}, 0, 3); err != nil {
		t.Fatal(err)
	}
	if countNonBackground(r) == 0 {
		t.Fatal("nothing drawn before Clear")
	}
	r.Clear()
	if countNonBackground(r) != 0 {
		t.Fatal("Clear left pixels")
	}
	if r.TrisDrawn != 0 {
		t.Fatal("Clear did not reset TrisDrawn")
	}
}

func TestImagesDifferAcrossScalars(t *testing.T) {
	// Two renders of the same geometry with different scalar fields must
	// differ — the per-snapshot images of a time series are distinct.
	s1 := testSurface(t)
	s2 := testSurface(t)
	for i := range s2.Scalars {
		s2.Scalars[i] = 3 - s2.Scalars[i]
	}
	blo := mesh.Vec3{X: -1, Y: -1, Z: 0}
	bhi := mesh.Vec3{X: 1, Y: 1, Z: 3}
	cam := DefaultCamera(blo, bhi)
	ra := NewRenderer(80, 60)
	rb := NewRenderer(80, 60)
	if err := ra.DrawSurface(s1, cam, Rainbow{}, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := rb.DrawSurface(s2, cam, Rainbow{}, 0, 3); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for y := 0; y < 60; y++ {
		for x := 0; x < 80; x++ {
			if ra.Image().RGBAAt(x, y) != rb.Image().RGBAAt(x, y) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("renders with different scalars are identical")
	}
}

// A surface whose arrays do not fit together is refused, not indexed: the
// renderer consumes surfaces gathered over stored node lists, so "scalars
// parallel to the vertices" is checked here, where a mismatch would panic.
func TestDrawSurfaceRejectsMalformed(t *testing.T) {
	tri := func(edit func(*vis.TriSurface)) *vis.TriSurface {
		s := &vis.TriSurface{
			Coords:  []float64{0, 0, 0, 1, 0, 0, 0, 1, 0},
			Tris:    []int32{0, 1, 2},
			Scalars: []float64{0, 0.5, 1},
		}
		edit(s)
		return s
	}
	cases := map[string]*vis.TriSurface{
		"no vertices":         tri(func(s *vis.TriSurface) { s.Coords = nil }),
		"partial vertex":      tri(func(s *vis.TriSurface) { s.Coords = s.Coords[:8] }),
		"partial triangle":    tri(func(s *vis.TriSurface) { s.Tris = append(s.Tris, 0, 1) }),
		"short scalars":       tri(func(s *vis.TriSurface) { s.Scalars = s.Scalars[:2] }),
		"long scalars":        tri(func(s *vis.TriSurface) { s.Scalars = append(s.Scalars, 2) }),
		"short normals":       tri(func(s *vis.TriSurface) { s.Normals = []float64{0, 0, 1} }),
		"index past the end":  tri(func(s *vis.TriSurface) { s.Tris[2] = 3 }),
		"negative index":      tri(func(s *vis.TriSurface) { s.Tris[0] = -1 }),
		"bad index, normals":  tri(func(s *vis.TriSurface) { s.Tris[1] = 7; s.Normals = make([]float64, 9) }),
		"empty scalars array": tri(func(s *vis.TriSurface) { s.Scalars = []float64{} }),
	}
	cam := DefaultCamera(mesh.Vec3{}, mesh.Vec3{X: 1, Y: 1, Z: 1})
	for name, s := range cases {
		r := NewRenderer(16, 16)
		if err := r.DrawSurface(s, cam, Rainbow{}, 0, 1); !errors.Is(err, ErrBadSurface) {
			t.Errorf("%s: DrawSurface returned %v, want ErrBadSurface", name, err)
		}
		if countNonBackground(r) != 0 {
			t.Errorf("%s: a refused surface drew pixels", name)
		}
	}
	// The well-formed triangle, with and without scalars, still draws.
	for _, s := range []*vis.TriSurface{tri(func(*vis.TriSurface) {}), tri(func(s *vis.TriSurface) { s.Scalars = nil })} {
		if err := NewRenderer(16, 16).DrawSurface(s, cam, Rainbow{}, 0, 1); err != nil {
			t.Errorf("well-formed surface refused: %v", err)
		}
	}
}

// A renderer reused across passes must not carry one surface's per-vertex
// state into the next: a vertex behind the camera in this pass may share its
// index with a visible one from the last.
func TestRendererReuseMatchesFresh(t *testing.T) {
	s := testSurface(t)
	lo, hi := vis.ScalarRange(s.Scalars)
	blo := mesh.Vec3{X: -1, Y: -1}
	bhi := mesh.Vec3{X: 1, Y: 1, Z: 3}
	outside := DefaultCamera(blo, bhi)
	inside := outside
	inside.Eye, inside.Up = mesh.Vec3{Z: 1.2}, mesh.Vec3{X: 1} // in the bore, looking along it: part of the surface is behind
	fresh := NewRenderer(64, 48)
	if err := fresh.DrawSurface(s, inside, Rainbow{}, lo, hi); err != nil {
		t.Fatal(err)
	}
	reused := NewRenderer(64, 48)
	if err := reused.DrawSurface(s, outside, Rainbow{}, lo, hi); err != nil {
		t.Fatal(err)
	}
	reused.Clear()
	if err := reused.DrawSurface(s, inside, Rainbow{}, lo, hi); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Image().Pix, reused.Image().Pix) {
		t.Fatal("a reused renderer drew a different image than a fresh one")
	}
	if fresh.TrisDrawn != reused.TrisDrawn || fresh.TrisDrawn == 0 {
		t.Fatalf("triangles drawn: fresh %d, reused %d", fresh.TrisDrawn, reused.TrisDrawn)
	}
}

// BenchmarkDrawSurface renders one D1-sized block's surface; with the
// normals computed by the first pass and the renderer's scratch warm, a pass
// allocates nothing (verify.sh's benchmem stage fails it otherwise).
func BenchmarkDrawSurface(b *testing.B) {
	whole := mesh.GenerateAnnulus(mesh.AnnulusSpec{NR: 2, NTheta: 24, NZ: 160, RInner: 0.6, ROuter: 1.55, Length: 24})
	m := whole.Partition(120)[60]
	sc := make([]float64, m.NumNodes())
	for i := range sc {
		sc[i] = m.Node(int32(i)).Z
	}
	s, err := vis.ExtractSurface(m, sc)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := vis.ScalarRange(sc)
	cam := DefaultCamera(m.Bounds())
	r := NewRenderer(160, 120)
	if err := r.DrawSurface(s, cam, Rainbow{}, lo, hi); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Clear()
		if err := r.DrawSurface(s, cam, Rainbow{}, lo, hi); err != nil {
			b.Fatal(err)
		}
	}
}
