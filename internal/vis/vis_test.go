package vis

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"godiva/internal/mesh"
)

func annulus() *mesh.TetMesh {
	return mesh.GenerateAnnulus(mesh.AnnulusSpec{
		NR: 2, NTheta: 16, NZ: 6,
		RInner: 0.5, ROuter: 1.0, Length: 3,
	})
}

// nodeScalarZ returns each node's z coordinate as a scalar field.
func nodeScalarZ(m *mesh.TetMesh) []float64 {
	s := make([]float64, m.NumNodes())
	for i := range s {
		s[i] = m.Node(int32(i)).Z
	}
	return s
}

func TestExtractSurface(t *testing.T) {
	m := annulus()
	sc := nodeScalarZ(m)
	s, err := ExtractSurface(m, sc)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTris() == 0 {
		t.Fatal("no surface triangles")
	}
	if len(s.Scalars) != s.NumVerts() {
		t.Fatalf("scalars %d for %d verts", len(s.Scalars), s.NumVerts())
	}
	// Surface vertices are a strict subset of mesh nodes (interior nodes
	// compacted away).
	if s.NumVerts() >= m.NumNodes() {
		t.Fatalf("surface has %d verts, mesh has %d nodes; no compaction", s.NumVerts(), m.NumNodes())
	}
	// Every surface vertex carries its own z as scalar.
	for i := 0; i < s.NumVerts(); i++ {
		if math.Abs(s.Scalars[i]-s.Coords[3*i+2]) > 1e-12 {
			t.Fatalf("vertex %d scalar %v != z %v", i, s.Scalars[i], s.Coords[3*i+2])
		}
	}
	if _, err := ExtractSurface(m, make([]float64, 3)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("mismatched scalars: %v", err)
	}
}

func TestCellToPoint(t *testing.T) {
	m := annulus()
	elem := make([]float64, m.NumCells())
	for e := range elem {
		elem[e] = 7.5 // constant field must stay constant
	}
	node, err := CellToPoint(m, elem)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range node {
		if math.Abs(v-7.5) > 1e-12 {
			t.Fatalf("node %d = %v, want 7.5", i, v)
		}
	}
	if _, err := CellToPoint(m, elem[:5]); !errors.Is(err, ErrBadInput) {
		t.Fatalf("bad input: %v", err)
	}
}

func TestVectorMagnitudeAndRange(t *testing.T) {
	mags := VectorMagnitude([]float64{3, 4, 0, 0, 0, 5})
	if mags[0] != 5 || mags[1] != 5 {
		t.Fatalf("magnitudes = %v", mags)
	}
	lo, hi := ScalarRange([]float64{2, -1, 7, 3})
	if lo != -1 || hi != 7 {
		t.Fatalf("range = %v,%v", lo, hi)
	}
	lo, hi = ScalarRange(nil)
	if lo != 0 || hi != 0 {
		t.Fatalf("empty range = %v,%v", lo, hi)
	}
}

func TestComputeNormalsUnitLength(t *testing.T) {
	m := annulus()
	s, err := ExtractSurface(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	ComputeNormals(s)
	if len(s.Normals) != 3*s.NumVerts() {
		t.Fatalf("normals length %d", len(s.Normals))
	}
	for i := 0; i < s.NumVerts(); i++ {
		n := mesh.Vec3{X: s.Normals[3*i], Y: s.Normals[3*i+1], Z: s.Normals[3*i+2]}
		if math.Abs(n.Norm()-1) > 1e-9 {
			t.Fatalf("normal %d has length %v", i, n.Norm())
		}
	}
}

func TestIsoSurfaceOfZIsFlat(t *testing.T) {
	m := annulus()
	z := nodeScalarZ(m)
	const iso = 1.47 // strictly between z-layers so no degenerate crossings
	s, err := IsoSurface(m, z, iso, z)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTris() == 0 {
		t.Fatal("empty isosurface")
	}
	for i := 0; i < s.NumVerts(); i++ {
		if math.Abs(s.Coords[3*i+2]-iso) > 1e-9 {
			t.Fatalf("iso vertex %d at z=%v, want %v", i, s.Coords[3*i+2], iso)
		}
		if math.Abs(s.Scalars[i]-iso) > 1e-9 {
			t.Fatalf("iso vertex %d scalar %v, want %v", i, s.Scalars[i], iso)
		}
	}
	// The z=iso cross-section of the annulus has area pi*(R^2-r^2).
	area := surfaceArea(s)
	want := math.Pi * (1.0*1.0 - 0.5*0.5)
	if math.Abs(area-want)/want > 0.05 {
		t.Fatalf("iso area = %v, want about %v", area, want)
	}
}

func TestIsoSurfaceOutOfRangeIsEmpty(t *testing.T) {
	m := annulus()
	z := nodeScalarZ(m)
	s, err := IsoSurface(m, z, 99.0, z)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTris() != 0 {
		t.Fatalf("isosurface above field range has %d tris", s.NumTris())
	}
}

func TestIsoSurfaceWatertight(t *testing.T) {
	m := annulus()
	z := nodeScalarZ(m)
	s, err := IsoSurface(m, z, 1.47, z)
	if err != nil {
		t.Fatal(err)
	}
	// Interior edges of the cross-section belong to exactly 2 triangles;
	// rim edges to 1. No edge may appear more than twice.
	edges := map[[2]int32]int{}
	for t3 := 0; t3 < s.NumTris(); t3++ {
		for k := 0; k < 3; k++ {
			a, b := s.Tris[3*t3+k], s.Tris[3*t3+(k+1)%3]
			if a > b {
				a, b = b, a
			}
			edges[[2]int32{a, b}]++
		}
	}
	for e, n := range edges {
		if n > 2 {
			t.Fatalf("edge %v shared by %d triangles", e, n)
		}
	}
}

func TestSlicePlaneThroughAxis(t *testing.T) {
	m := annulus()
	z := nodeScalarZ(m)
	pl := Plane{Origin: mesh.Vec3{}, Normal: mesh.Vec3{X: 0, Y: 1, Z: 0}}
	s, err := SlicePlane(m, pl, z)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTris() == 0 {
		t.Fatal("empty slice")
	}
	for i := 0; i < s.NumVerts(); i++ {
		if math.Abs(s.Coords[3*i+1]) > 1e-9 {
			t.Fatalf("slice vertex %d off plane: y=%v", i, s.Coords[3*i+1])
		}
	}
	// The y=0 plane cuts the annulus twice (two rectangles of (R-r) x L).
	area := surfaceArea(s)
	want := 2 * (1.0 - 0.5) * 3.0
	if math.Abs(area-want)/want > 0.08 {
		t.Fatalf("slice area = %v, want about %v", area, want)
	}
}

func TestCutPlaneMergesSurfaceAndSection(t *testing.T) {
	m := annulus()
	z := nodeScalarZ(m)
	pl := Plane{Origin: mesh.Vec3{Z: 1.5}, Normal: mesh.Vec3{Z: -1}} // keep z < 1.5
	s, err := CutPlane(m, pl, z)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTris() == 0 {
		t.Fatal("empty cut result")
	}
	lo, hi := 100.0, -100.0
	for i := 0; i < s.NumVerts(); i++ {
		zz := s.Coords[3*i+2]
		lo = math.Min(lo, zz)
		hi = math.Max(hi, zz)
	}
	if lo < -1e-9 {
		t.Fatalf("cut surface extends to z=%v", lo)
	}
	// Elements survive by centroid, so the kept surface stays near the cut
	// plane but must not include the far end of the grain.
	if hi > 1.75 {
		t.Fatalf("cut did not remove the z>1.5 half: max z = %v", hi)
	}
}

func TestAppendOffsetsIndices(t *testing.T) {
	a := &TriSurface{Coords: []float64{0, 0, 0, 1, 0, 0, 0, 1, 0}, Tris: []int32{0, 1, 2}, Scalars: []float64{1, 2, 3}}
	b := &TriSurface{Coords: []float64{0, 0, 1, 1, 0, 1, 0, 1, 1}, Tris: []int32{0, 1, 2}, Scalars: []float64{4, 5, 6}}
	a.Append(b)
	if a.NumVerts() != 6 || a.NumTris() != 2 {
		t.Fatalf("merged: %d verts %d tris", a.NumVerts(), a.NumTris())
	}
	if a.Tris[3] != 3 || a.Tris[5] != 5 {
		t.Fatalf("indices not offset: %v", a.Tris)
	}
	if len(a.Scalars) != 6 || a.Scalars[5] != 6 {
		t.Fatalf("scalars not merged: %v", a.Scalars)
	}
}

// surfaceArea sums triangle areas.
func surfaceArea(s *TriSurface) float64 {
	var area float64
	for t := 0; t < s.NumTris(); t++ {
		a := s.Vert(s.Tris[3*t])
		b := s.Vert(s.Tris[3*t+1])
		c := s.Vert(s.Tris[3*t+2])
		area += b.Sub(a).Cross(c.Sub(a)).Norm() / 2
	}
	return area
}

// Property: for random iso values strictly inside the field range, every
// isosurface vertex interpolates the field to the iso value, and the
// surface is non-empty for a connected monotone field like z.
func TestQuickIsoVertexProperty(t *testing.T) {
	m := annulus()
	z := nodeScalarZ(m)
	f := func(raw uint16) bool {
		iso := 0.05 + 2.9*float64(raw)/65535.0 // (0.05, 2.95) inside [0,3]
		s, err := IsoSurface(m, z, iso, z)
		if err != nil || s.NumTris() == 0 {
			return false
		}
		for i := 0; i < s.NumVerts(); i++ {
			if math.Abs(s.Coords[3*i+2]-iso) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
