package vis

import (
	"testing"

	"godiva/internal/mesh"
)

// benchBlock is one block of the benchmark's D1 dataset (46 080 cells in 120
// blocks) with a node scalar that varies across it.
func benchBlock() (*mesh.TetMesh, []float64) {
	whole := mesh.GenerateAnnulus(mesh.AnnulusSpec{NR: 2, NTheta: 24, NZ: 160, RInner: 0.6, ROuter: 1.55, Length: 24})
	m := whole.Partition(120)[60]
	return m, nodeScalarZ(m)
}

var benchSurface *TriSurface

func BenchmarkExtractSurface(b *testing.B) {
	m, z := benchBlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSurface, _ = ExtractSurface(m, z)
	}
}

// BenchmarkAppendSurface times the once-per-snapshot gather over stored
// topology — bare geometry plus the node list — into a destination with
// room: verify.sh's benchmem stage fails it on any allocation.
func BenchmarkAppendSurface(b *testing.B) {
	m, _ := benchBlock()
	tris := m.AppendBoundaryFaces(nil)
	agg := &TriSurface{}
	nodes, err := agg.AppendSurface(m, tris, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Coords, agg.Tris = agg.Coords[:0], agg.Tris[:0]
		if nodes, err = agg.AppendSurface(m, tris, nodes[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIsoSurface times one block's contour appended into an aggregate
// reused across runs, as the pipeline does: verify.sh's benchmem stage
// fails it on any allocation.
func BenchmarkIsoSurface(b *testing.B) {
	m, z := benchBlock()
	lo, hi := ScalarRange(z)
	agg := &TriSurface{}
	run := func() {
		agg.Reset()
		if err := AppendIsoSurface(agg, m, z, (lo+hi)/2, z); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkSlicePlane is BenchmarkIsoSurface's plane slice.
func BenchmarkSlicePlane(b *testing.B) {
	m, z := benchBlock()
	lo, hi := m.Bounds()
	pl := Plane{Origin: lo.Add(hi).Scale(0.5), Normal: mesh.Vec3{X: 0.1, Z: 1}}
	agg := &TriSurface{}
	run := func() {
		agg.Reset()
		if err := AppendSlicePlane(agg, m, pl, z); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkAppendCutPlane is BenchmarkIsoSurface's cut: the clipped
// external surface plus the cross-section.
func BenchmarkAppendCutPlane(b *testing.B) {
	m, z := benchBlock()
	lo, hi := m.Bounds()
	pl := Plane{Origin: lo.Add(hi).Scale(0.5), Normal: mesh.Vec3{X: 0.1, Z: 1}}
	agg := &TriSurface{}
	run := func() {
		agg.Reset()
		if err := AppendCutPlane(agg, m, pl, z); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkCellToPoint times one block's element-to-node averaging into a
// reused destination: verify.sh's benchmem stage fails it on any allocation.
func BenchmarkCellToPoint(b *testing.B) {
	m, _ := benchBlock()
	elem := make([]float64, m.NumCells())
	for e := range elem {
		elem[e] = m.CellCentroid(e).Z
	}
	dst, err := AppendCellToPoint(nil, m, elem)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = AppendCellToPoint(dst[:0], m, elem); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVectorMagnitude times one block's node-vector magnitudes into a
// reused destination: verify.sh's benchmem stage fails it on any allocation.
func BenchmarkVectorMagnitude(b *testing.B) {
	m, _ := benchBlock()
	dst := AppendVectorMagnitude(nil, m.Coords)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendVectorMagnitude(dst[:0], m.Coords)
	}
}
