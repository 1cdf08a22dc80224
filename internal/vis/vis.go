// Package vis implements the visualization pipeline the reproduction's
// Voyager uses in place of the Visualization Toolkit: external-surface
// extraction, marching-tetrahedra isosurfaces, plane slices and cuts,
// thresholding, normal computation, and scalar utilities. Filters consume
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
	Normals []float64 // x,y,z per vertex; nil until ComputeNormals
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

// scratch is the working memory the filters share: none of it outlives the
// call that took it from the pool.
type scratch struct {
	tris  []int32   // boundary triangles of the mesh being extracted
	nodes []int32   // per extracted vertex: the mesh node behind it
	remap []int32   // per mesh node: 1 + its output index, 0 = not seen yet
	dist  []float64 // per mesh node: signed distance to the slicing plane
	edges edgeTable // crossing edge -> contour vertex
}

// scratchPool recycles scratch between filter calls; filters run on the
// main thread and, building surface topology, on the I/O workers.
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
	sc := scratchPool.Get().(*scratch)
	sc.tris = m.AppendBoundaryFaces(sc.tris[:0])
	s := &TriSurface{}
	s.reserve(m, sc.tris)
	sc.nodes = s.gather(sc.tris, m.Coords, sc.remapFor(m.NumNodes()), sc.nodes[:0])
	if nodeScalar != nil { // a bare surface has no scalars, not empty ones; nor has an empty one
		s.Scalars = slices.Grow(s.Scalars, len(sc.nodes))[:len(sc.nodes)]
		GatherScalars(s.Scalars, sc.nodes, nodeScalar)
	}
	scratchPool.Put(sc)
	return s, nil
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
// vertices, are dropped: GatherScalars over nodes colors the result.
func (s *TriSurface) AppendSurface(m *mesh.TetMesh, tris, nodes []int32) ([]int32, error) {
	if len(tris)%3 != 0 {
		return nodes, ErrBadInput
	}
	s.reserve(m, tris)
	nodes = slices.Grow(nodes, min(len(tris), m.NumNodes()))
	sc := scratchPool.Get().(*scratch)
	nodes = s.gather(tris, m.Coords, sc.remapFor(m.NumNodes()), nodes)
	scratchPool.Put(sc)
	s.Scalars, s.Normals = nil, nil
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
	if len(elemScalar) != m.NumCells() {
		return nil, ErrBadInput
	}
	sum := make([]float64, m.NumNodes())
	cnt := make([]int32, m.NumNodes())
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
	return sum, nil
}

// VectorMagnitude reduces a flattened 3-vector field to per-point
// magnitudes.
func VectorMagnitude(vec []float64) []float64 {
	out := make([]float64, len(vec)/3)
	for i := range out {
		x, y, z := vec[3*i], vec[3*i+1], vec[3*i+2]
		out[i] = math.Sqrt(x*x + y*y + z*z)
	}
	return out
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

// ComputeNormals fills s.Normals with area-weighted per-vertex normals.
func ComputeNormals(s *TriSurface) {
	normals := make([]float64, len(s.Coords))
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

// Threshold returns a new mesh keeping only the elements whose scalar lies
// in [lo, hi]. Node arrays are compacted; nodeMap maps new node indices to
// old ones so callers can restrict node fields to the result.
func Threshold(m *mesh.TetMesh, elemScalar []float64, lo, hi float64) (*mesh.TetMesh, []int32, error) {
	if len(elemScalar) != m.NumCells() {
		return nil, nil, ErrBadInput
	}
	out := &mesh.TetMesh{}
	sc := scratchPool.Get().(*scratch)
	remap := sc.remapFor(m.NumNodes())
	var nodeMap []int32
	for e := 0; e < m.NumCells(); e++ {
		if elemScalar[e] < lo || elemScalar[e] > hi {
			continue
		}
		c := m.Cell(e)
		for _, n := range c {
			v := remap[n]
			if v == 0 {
				nodeMap = append(nodeMap, n)
				v = int32(len(nodeMap))
				remap[n] = v
				p := m.Node(n)
				out.Coords = append(out.Coords, p.X, p.Y, p.Z)
				if m.GlobalNode != nil {
					out.GlobalNode = append(out.GlobalNode, m.GlobalNode[n])
				}
			}
			out.Tets = append(out.Tets, v-1)
		}
	}
	scratchPool.Put(sc)
	return out, nodeMap, nil
}
