// Package vis implements the visualization pipeline the reproduction's
// Voyager uses in place of the Visualization Toolkit: external-surface
// extraction, marching-tetrahedra isosurfaces, plane slices and cuts,
// normal computation, and scalar utilities. Filters consume
// tetrahedral meshes with node- or element-based scalars and produce
// triangle surfaces ready for the software renderer.
package vis

import (
	"errors"
	"math"
	"slices"
	"sync"

	"godiva/internal/mesh"
)

// ErrBadInput is returned for scalar arrays that do not match the mesh.
var ErrBadInput = errors.New("vis: input does not match mesh")

// TriSurface is an indexed triangle surface with optional per-vertex
// scalars (for color mapping) and normals (for shading).
type TriSurface struct {
	Coords  []float64 // x,y,z per vertex
	Tris    []int32   // 3 vertex indices per triangle
	Scalars []float64 // one per vertex; may be nil
	Normals []float64 // x,y,z per vertex; nil or empty until ComputeNormals

	// sc is the working memory of the filters that append into the
	// surface, made by the first of them. It stays with the surface, not in
	// a sync.Pool, which a garbage collection empties and whose objects
	// stay on the processor that put them, so an aggregate that a caller
	// empties (Reset) and appends into again keeps it from view to view.
	sc *scratch
}

// Reset empties s, keeping the memory of every array and its filters'
// working memory.
func (s *TriSurface) Reset() {
	s.Coords, s.Tris, s.Scalars, s.Normals = s.Coords[:0], s.Tris[:0], s.Scalars[:0], s.Normals[:0]
}

// NumVerts returns the vertex count.
func (s *TriSurface) NumVerts() int { return len(s.Coords) / 3 }

// NumTris returns the triangle count.
func (s *TriSurface) NumTris() int { return len(s.Tris) / 3 }

// Vert returns vertex i's position.
func (s *TriSurface) Vert(i int32) mesh.Vec3 {
	return mesh.Vec3{X: s.Coords[3*i], Y: s.Coords[3*i+1], Z: s.Coords[3*i+2]}
}

// Append merges other into s, offsetting indices. Scalars and normals are
// carried along when both surfaces have them (normals otherwise dropped).
func (s *TriSurface) Append(other *TriSurface) {
	off := int32(s.NumVerts())
	s.Coords = append(s.Coords, other.Coords...)
	for _, t := range other.Tris {
		s.Tris = append(s.Tris, t+off)
	}
	switch {
	case s.Scalars == nil && off == 0:
		s.Scalars = append(s.Scalars, other.Scalars...)
	case s.Scalars != nil && other.Scalars != nil:
		s.Scalars = append(s.Scalars, other.Scalars...)
	case s.Scalars != nil && other.Scalars == nil:
		s.Scalars = append(s.Scalars, make([]float64, other.NumVerts())...)
	}
	if s.Normals != nil && other.Normals != nil {
		s.Normals = append(s.Normals, other.Normals...)
	} else {
		s.Normals = nil
	}
}

// dropUncovered empties the per-vertex arrays that an append left shorter
// than the vertices, keeping their memory: ComputeNormals refills Normals in
// place, and a caller that colors the surface regrows Scalars.
func (s *TriSurface) dropUncovered() {
	if len(s.Scalars) != s.NumVerts() {
		s.Scalars = s.Scalars[:0]
	}
	if len(s.Normals) != len(s.Coords) {
		s.Normals = s.Normals[:0]
	}
}

// fresh returns an empty surface working in pooled memory, for an
// allocating form to append into and hand to made.
func fresh() *TriSurface { return &TriSurface{sc: scratchPool.Get().(*scratch)} }

// made returns the surface an append filled, or nil and the append's error,
// and gives its working memory back to the pool. It turns an append form
// into the allocating form callers without a destination to reuse call.
func made(s *TriSurface, err error) (*TriSurface, error) {
	scratchPool.Put(s.sc)
	s.sc = nil
	if err != nil {
		return nil, err
	}
	return s, nil
}

// scratch is the working memory the filters share: the destination
// surface's (work) or, for the allocating forms and AppendCellToPoint, the
// pool's. None of its contents outlives the call using it.
type scratch struct {
	tets  []int32   // connectivity of the elements a cut keeps
	tris  []int32   // boundary triangles of the mesh being extracted
	nodes []int32   // per extracted vertex: the mesh node behind it
	remap []int32   // per mesh node: 1 + its output index, 0 = not seen yet
	count []int32   // per mesh node: the elements sharing it (cell to point)
	dist  []float64 // per mesh node: signed distance to the slicing plane
	edges edgeTable // crossing edge -> contour vertex
	faces mesh.FaceTable
}

// work returns the working memory of the filters appending into s, making
// it on first use.
func (s *TriSurface) work() *scratch {
	if s.sc == nil {
		s.sc = new(scratch)
	}
	return s.sc
}

// scratchPool recycles scratch between the calls of the allocating forms
// and AppendCellToPoint; they run on the main thread and, building surface
// topology, on the I/O workers.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// remapFor returns the zeroed node remap for a mesh of n nodes.
func (sc *scratch) remapFor(n int) []int32 {
	sc.remap = slices.Grow(sc.remap[:0], n)[:n]
	clear(sc.remap)
	return sc.remap
}

// ExtractSurface returns the external surface of a tet mesh with the given
// per-node scalar attached to the surface vertices. nodeScalar may be nil
// for a bare surface. Vertices are compacted: only boundary nodes appear.
// It builds the surface topology and gathers over it; a caller that draws
// one mesh under several scalars builds the topology once
// (mesh.AppendBoundaryFaces), the geometry once (AppendSurface) and calls
// GatherScalars per scalar.
func ExtractSurface(m *mesh.TetMesh, nodeScalar []float64) (*TriSurface, error) {
	if nodeScalar != nil && len(nodeScalar) != m.NumNodes() {
		return nil, ErrBadInput
	}
	s := fresh()
	s.appendExtracted(m, nodeScalar, s.sc)
	return made(s, nil)
}

// appendExtracted appends the external surface of m to s, with nodeScalar
// (one value per node of m, or nil) gathered onto its vertices. It uses
// sc's faces, tris, nodes and remap.
func (s *TriSurface) appendExtracted(m *mesh.TetMesh, nodeScalar []float64, sc *scratch) {
	sc.tris = m.AppendBoundaryFacesIn(sc.tris[:0], &sc.faces)
	s.reserve(m, sc.tris)
	sc.nodes = s.gather(sc.tris, m.Coords, sc.remapFor(m.NumNodes()), sc.nodes[:0])
	if nodeScalar != nil { // a bare surface has no scalars, not empty ones; nor has an empty one
		n := len(s.Scalars)
		s.Scalars = slices.Grow(s.Scalars, len(sc.nodes))[:n+len(sc.nodes)]
		GatherScalars(s.Scalars[n:], sc.nodes, nodeScalar)
	}
	s.dropUncovered()
}

// reserve makes room in s for the triangles tris of mesh m and as many
// vertices as they can name, so that gathering them does not reallocate.
func (s *TriSurface) reserve(m *mesh.TetMesh, tris []int32) {
	s.Tris = slices.Grow(s.Tris, len(tris))
	s.Coords = slices.Grow(s.Coords, 3*min(len(tris), m.NumNodes()))
}

// AppendSurface appends to s the bare surface whose triangles are the
// node-index triples tris of mesh m (as mesh.AppendBoundaryFaces lists them)
// — the geometry of ExtractSurface(m, nil), without rebuilding the topology —
// and to nodes the mesh node behind each vertex it adds, in vertex order. It
// returns the extended nodes. Scalars and normals, which cannot cover the new
// vertices, are emptied (their memory kept): GatherScalars over nodes colors
// the result.
func (s *TriSurface) AppendSurface(m *mesh.TetMesh, tris, nodes []int32) ([]int32, error) {
	if len(tris)%3 != 0 {
		return nodes, ErrBadInput
	}
	s.reserve(m, tris)
	nodes = slices.Grow(nodes, min(len(tris), m.NumNodes()))
	nodes = s.gather(tris, m.Coords, s.work().remapFor(m.NumNodes()), nodes)
	s.dropUncovered()
	return nodes, nil
}

// gather appends the triangles tris (node-index triples into coords) to s,
// compacting nodes to vertices in first-seen order, copying each new vertex's
// position and appending its node to nodes, which it returns. remap is
// zeroed and has one entry per node.
//
//godiva:noalloc
func (s *TriSurface) gather(tris []int32, coords []float64, remap, nodes []int32) []int32 {
	next := int32(s.NumVerts())
	for _, n := range tris {
		v := remap[n]
		if v == 0 {
			next++
			v = next
			remap[n] = v
			s.Coords = append(s.Coords, coords[3*n], coords[3*n+1], coords[3*n+2])
			nodes = append(nodes, n)
		}
		s.Tris = append(s.Tris, v-1)
	}
	return nodes
}

// GatherScalars sets dst[k] to nodeScalar[nodes[k]]: the per-vertex scalars
// of a surface whose vertex k is mesh node nodes[k], as gather lists them.
// The surface's geometry does not depend on the scalar, so this is all that
// coloring it by another variable takes.
//
//godiva:noalloc
func GatherScalars(dst []float64, nodes []int32, nodeScalar []float64) {
	for k, n := range nodes {
		dst[k] = nodeScalar[n]
	}
}

// CellToPoint converts an element-based scalar to a node-based one by
// averaging the values of the elements sharing each node, the conversion
// Rocketeer needs before contouring element data.
func CellToPoint(m *mesh.TetMesh, elemScalar []float64) ([]float64, error) {
	return AppendCellToPoint(nil, m, elemScalar)
}

// AppendCellToPoint is CellToPoint appending its one value per node of m to
// dst, which it returns extended.
func AppendCellToPoint(dst []float64, m *mesh.TetMesh, elemScalar []float64) ([]float64, error) {
	if len(elemScalar) != m.NumCells() {
		return dst, ErrBadInput
	}
	n := len(dst)
	dst = slices.Grow(dst, m.NumNodes())[:n+m.NumNodes()]
	sum := dst[n:]
	clear(sum)
	sc := scratchPool.Get().(*scratch)
	sc.count = slices.Grow(sc.count[:0], m.NumNodes())[:m.NumNodes()]
	cnt := sc.count
	clear(cnt)
	for e := 0; e < m.NumCells(); e++ {
		v := elemScalar[e]
		c := m.Cell(e)
		for _, n := range c {
			sum[n] += v
			cnt[n]++
		}
	}
	for i := range sum {
		if cnt[i] > 0 {
			sum[i] /= float64(cnt[i])
		}
	}
	scratchPool.Put(sc)
	return dst, nil
}

// VectorMagnitude reduces a flattened 3-vector field to per-point
// magnitudes.
func VectorMagnitude(vec []float64) []float64 { return AppendVectorMagnitude(nil, vec) }

// AppendVectorMagnitude is VectorMagnitude appending to dst, which it
// returns extended.
func AppendVectorMagnitude(dst, vec []float64) []float64 {
	n := len(dst)
	dst = slices.Grow(dst, len(vec)/3)[:n+len(vec)/3]
	out := dst[n:]
	for i := range out {
		x, y, z := vec[3*i], vec[3*i+1], vec[3*i+2]
		out[i] = math.Sqrt(x*x + y*y + z*z)
	}
	return dst
}

// ScalarRange returns the min and max of s; (0, 0) for empty input.
func ScalarRange(s []float64) (lo, hi float64) {
	if len(s) == 0 {
		return 0, 0
	}
	lo, hi = s[0], s[0]
	for _, v := range s[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// ComputeNormals fills s.Normals with area-weighted per-vertex normals,
// reusing their memory.
func ComputeNormals(s *TriSurface) {
	normals := slices.Grow(s.Normals[:0], len(s.Coords))[:len(s.Coords)]
	clear(normals)
	for t := 0; t < s.NumTris(); t++ {
		a := s.Vert(s.Tris[3*t])
		b := s.Vert(s.Tris[3*t+1])
		c := s.Vert(s.Tris[3*t+2])
		n := b.Sub(a).Cross(c.Sub(a)) // length = 2*area: weights by area
		for k := 0; k < 3; k++ {
			vi := s.Tris[3*t+k]
			normals[3*vi] += n.X
			normals[3*vi+1] += n.Y
			normals[3*vi+2] += n.Z
		}
	}
	for i := 0; i < len(normals); i += 3 {
		v := mesh.Vec3{X: normals[i], Y: normals[i+1], Z: normals[i+2]}.Normalize()
		normals[i], normals[i+1], normals[i+2] = v.X, v.Y, v.Z
	}
	s.Normals = normals
}

// Plane is an oriented plane for slicing and cutting.
type Plane struct {
	Origin mesh.Vec3
	Normal mesh.Vec3
}
