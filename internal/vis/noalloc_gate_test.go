// AllocsPerRun gates for this package's //godiva:noalloc functions (see
// internal/noalloctest): each gate drives every branch of its function that
// does not return an error, so a new branch there needs a call here too.
// Excluded under -race: the race runtime instruments allocation sites and
// the measurements stop meaning anything.

//go:build !race

package vis

import (
	"testing"

	"godiva/internal/noalloctest"
)

func TestNoAllocGates(t *testing.T) {
	m, z := benchBlock()
	tris := m.AppendBoundaryFaces(nil)
	remap := make([]int32, m.NumNodes())
	s := &TriSurface{}
	s.reserve(m, tris)
	nodes := s.gather(tris, m.Coords, remap, make([]int32, 0, m.NumNodes()))
	scalars := make([]float64, m.NumNodes())
	noalloctest.Check(t, ".", map[string]func(){
		"TriSurface.gather": func() {
			clear(remap)
			s.Coords, s.Tris = s.Coords[:0], s.Tris[:0]
			nodes = s.gather(tris, m.Coords, remap, nodes[:0])
		},
		"GatherScalars": func() {
			GatherScalars(scalars, nodes, z)
		},
	})
	if s.NumTris() != len(tris)/3 || s.NumTris() == 0 {
		t.Errorf("gated gather produced %d triangles, want %d (nonzero)", s.NumTris(), len(tris)/3)
	}
	if len(nodes) != s.NumVerts() || scalars[0] != z[nodes[0]] {
		t.Errorf("gated gathers: %d nodes for %d vertices, first scalar %v want %v", len(nodes), s.NumVerts(), scalars[0], z[nodes[0]])
	}
}
