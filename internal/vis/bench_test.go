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

func BenchmarkIsoSurface(b *testing.B) {
	m, z := benchBlock()
	lo, hi := ScalarRange(z)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSurface, _ = IsoSurface(m, z, (lo+hi)/2, z)
	}
}

func BenchmarkSlicePlane(b *testing.B) {
	m, z := benchBlock()
	lo, hi := m.Bounds()
	pl := Plane{Origin: lo.Add(hi).Scale(0.5), Normal: mesh.Vec3{X: 0.1, Z: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSurface, _ = SlicePlane(m, pl, z)
	}
}
