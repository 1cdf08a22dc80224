// Package mesh provides the mesh data model of the reproduction: structured
// 2-D blocks (the paper's Table 1 fluid example) and unstructured
// tetrahedral meshes (the GENx solid-propellant datasets of §4), plus the
// geometric operations the visualization pipeline builds on — surface
// extraction, partitioning into blocks with duplicated boundary data, and
// element quality/volume measures.
package mesh

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Errors returned by the package.
var (
	ErrBadMesh = errors.New("mesh: invalid mesh")
)

// Vec3 is a 3-D point or vector.
type Vec3 struct{ X, Y, Z float64 }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the dot product.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Normalize returns v/|v|, or the zero vector if |v| is zero.
func (v Vec3) Normalize() Vec3 {
	n := v.Norm()
	if n == 0 {
		return Vec3{}
	}
	return v.Scale(1 / n)
}

// TetMesh is an unstructured tetrahedral mesh: flat coordinate and
// connectivity arrays in the style scientific codes use (paper §1: data
// "managed … in a straight forward manner as arrays").
type TetMesh struct {
	// Coords holds x,y,z triples: node i is Coords[3i:3i+3].
	Coords []float64
	// Tets holds node-index quadruples: element e is Tets[4e:4e+4].
	Tets []int32
	// GlobalNode maps local node index to a global node ID; nil for meshes
	// that are not partition blocks. Partition blocks duplicate boundary
	// nodes, so distinct blocks can map different local nodes to the same
	// global ID.
	GlobalNode []int64
}

// NumNodes returns the node count.
func (m *TetMesh) NumNodes() int { return len(m.Coords) / 3 }

// NumCells returns the element (tetrahedron) count.
func (m *TetMesh) NumCells() int { return len(m.Tets) / 4 }

// Node returns node i's position.
func (m *TetMesh) Node(i int32) Vec3 {
	return Vec3{m.Coords[3*i], m.Coords[3*i+1], m.Coords[3*i+2]}
}

// Cell returns element e's four node indices.
func (m *TetMesh) Cell(e int) [4]int32 {
	return [4]int32{m.Tets[4*e], m.Tets[4*e+1], m.Tets[4*e+2], m.Tets[4*e+3]}
}

// Validate checks structural invariants: coordinate and connectivity array
// lengths, node indices in range, and non-degenerate (positive-volume)
// elements.
func (m *TetMesh) Validate() error {
	if len(m.Coords)%3 != 0 {
		return fmt.Errorf("%w: %d coordinates is not a multiple of 3", ErrBadMesh, len(m.Coords))
	}
	if len(m.Tets)%4 != 0 {
		return fmt.Errorf("%w: %d connectivity entries is not a multiple of 4", ErrBadMesh, len(m.Tets))
	}
	if m.GlobalNode != nil && len(m.GlobalNode) != m.NumNodes() {
		return fmt.Errorf("%w: %d global IDs for %d nodes", ErrBadMesh, len(m.GlobalNode), m.NumNodes())
	}
	n := int32(m.NumNodes())
	for i, idx := range m.Tets {
		if idx < 0 || idx >= n {
			return fmt.Errorf("%w: connectivity[%d] = %d out of range [0,%d)", ErrBadMesh, i, idx, n)
		}
	}
	for e := 0; e < m.NumCells(); e++ {
		if m.CellVolume(e) <= 0 {
			return fmt.Errorf("%w: element %d has non-positive volume", ErrBadMesh, e)
		}
	}
	return nil
}

// CellVolume returns the signed volume of element e (positive for
// consistently oriented tets).
func (m *TetMesh) CellVolume(e int) float64 {
	c := m.Cell(e)
	a := m.Node(c[0])
	ab := m.Node(c[1]).Sub(a)
	ac := m.Node(c[2]).Sub(a)
	ad := m.Node(c[3]).Sub(a)
	return ab.Cross(ac).Dot(ad) / 6
}

// TotalVolume returns the sum of element volumes.
func (m *TetMesh) TotalVolume() float64 {
	var v float64
	for e := 0; e < m.NumCells(); e++ {
		v += m.CellVolume(e)
	}
	return v
}

// CellCentroid returns the centroid of element e.
func (m *TetMesh) CellCentroid(e int) Vec3 {
	c := m.Cell(e)
	p := m.Node(c[0]).Add(m.Node(c[1])).Add(m.Node(c[2])).Add(m.Node(c[3]))
	return p.Scale(0.25)
}

// Bounds returns the axis-aligned bounding box (min, max). An empty mesh
// returns zero vectors. It uses the builtin min and max, which inline where
// math.Min and math.Max do not; they order ±0 the same way, and differ only
// in that a NaN coordinate wins over an infinity (math.Min(-Inf, NaN) is
// -Inf, min(-Inf, NaN) is NaN) — a box no finite mesh has.
func (m *TetMesh) Bounds() (lo, hi Vec3) {
	if m.NumNodes() == 0 {
		return Vec3{}, Vec3{}
	}
	lo = m.Node(0)
	hi = lo
	for i := 1; i < m.NumNodes(); i++ {
		p := m.Node(int32(i))
		lo.X = min(lo.X, p.X)
		lo.Y = min(lo.Y, p.Y)
		lo.Z = min(lo.Z, p.Z)
		hi.X = max(hi.X, p.X)
		hi.Y = max(hi.Y, p.Y)
		hi.Z = max(hi.Z, p.Z)
	}
	return lo, hi
}

// tetFaces lists each tet face with outward orientation (nodes ordered so
// the right-hand normal points out of the element).
var tetFaces = [4][3]int{{0, 2, 1}, {0, 1, 3}, {1, 2, 3}, {0, 3, 2}}

// faceSlot is one entry of the open-addressed face table: a face's node set
// in canonical (sorted) order, and which face carried it first.
type faceSlot struct {
	a, b, c int32
	first   uint32 // 1 + index of the first face with this node set; 0 = empty
}

// faceScratch is the working memory of one boundary extraction. Faces are
// numbered 4*element + face, the order they are emitted in.
type faceScratch struct {
	slots []faceSlot // power-of-two sized, at most half full
	seen  []uint8    // per face: how often its node set occurred (capped at 2), kept on the first face with that set
}

// facePool recycles scratch between extractions; every I/O worker and the
// main thread may be extracting different blocks at once.
var facePool = sync.Pool{New: func() any { return new(faceScratch) }}

// reset sizes and zeroes the scratch for a mesh with nf faces.
func (sc *faceScratch) reset(nf int) {
	n := 16
	for n < 2*nf {
		n <<= 1
	}
	sc.slots = slices.Grow(sc.slots[:0], n)[:n]
	sc.seen = slices.Grow(sc.seen[:0], nf)[:nf]
	clear(sc.slots)
	clear(sc.seen)
}

// BoundaryFaces returns the triangles of the mesh's external surface, with
// outward orientation, as node-index triples. A face is external when it
// belongs to exactly one element. It is AppendBoundaryFaces regrouped into
// triples and has no caller outside tests: it stays because the mesh tests
// written against it pin the extraction's behaviour across kernel changes.
func (m *TetMesh) BoundaryFaces() [][3]int32 {
	flat := m.AppendBoundaryFaces(nil)
	if len(flat) == 0 {
		return nil
	}
	out := make([][3]int32, len(flat)/3)
	for i := range out {
		out[i] = [3]int32{flat[3*i], flat[3*i+1], flat[3*i+2]}
	}
	return out
}

// AppendBoundaryFaces appends the external surface's triangles to dst as
// flat node-index triples (outward orientation) and returns the extended
// slice. Triangles come in (element, face) order, which is part of the
// contract: surface vertices are numbered by first appearance in this list,
// so the order decides every downstream array and, in the end, the image.
func (m *TetMesh) AppendBoundaryFaces(dst []int32) []int32 {
	sc := facePool.Get().(*faceScratch)
	sc.reset(4 * m.NumCells())
	dst = m.appendBoundaryFaces(dst, sc)
	facePool.Put(sc)
	return dst
}

// appendBoundaryFaces is the extraction kernel over scratch that reset has
// sized for this mesh: one pass counts each face's node set in the table,
// a second emits the faces whose set occurred once.
//
//godiva:noalloc
func (m *TetMesh) appendBoundaryFaces(dst []int32, sc *faceScratch) []int32 {
	slots, seen, tets := sc.slots, sc.seen, m.Tets
	mask := uint64(len(slots) - 1)
	for i := range seen {
		f := &tetFaces[i&3]
		e := i &^ 3
		a, b, c := tets[e+f[0]], tets[e+f[1]], tets[e+f[2]]
		if a > b {
			a, b = b, a
		}
		if b > c {
			b, c = c, b
		}
		if a > b {
			a, b = b, a
		}
		h := uint64(uint32(a))*0x9E3779B97F4A7C15 ^ uint64(uint32(b))*0xC2B2AE3D27D4EB4F ^ uint64(uint32(c))*0x165667B19E3779F9
		for h = (h ^ h>>32) & mask; ; h = (h + 1) & mask {
			s := &slots[h]
			if s.first == 0 {
				s.a, s.b, s.c, s.first = a, b, c, uint32(i)+1
				seen[i] = 1
				break
			}
			if s.a == a && s.b == b && s.c == c {
				seen[s.first-1] = 2
				break
			}
		}
	}
	for i, n := range seen {
		if n == 1 {
			f := &tetFaces[i&3]
			e := i &^ 3
			dst = append(dst, tets[e+f[0]], tets[e+f[1]], tets[e+f[2]])
		}
	}
	return dst
}

// StructuredBlock2D is the paper's Table 1 dataset: a structured 2-D mesh
// block with per-direction coordinate arrays and element-based variables.
// A block with NX x NY elements has NX+1 x NY+1 grid points.
type StructuredBlock2D struct {
	NX, NY int
	// XCoords and YCoords hold NX+1 and NY+1 grid-line coordinates.
	XCoords, YCoords []float64
}

// NumElements returns NX*NY.
func (b *StructuredBlock2D) NumElements() int { return b.NX * b.NY }

// Validate checks the coordinate arrays match the declared extent and are
// strictly increasing.
func (b *StructuredBlock2D) Validate() error {
	if len(b.XCoords) != b.NX+1 || len(b.YCoords) != b.NY+1 {
		return fmt.Errorf("%w: %dx%d block with %d/%d coordinates",
			ErrBadMesh, b.NX, b.NY, len(b.XCoords), len(b.YCoords))
	}
	for i := 1; i < len(b.XCoords); i++ {
		if b.XCoords[i] <= b.XCoords[i-1] {
			return fmt.Errorf("%w: x coordinates not increasing at %d", ErrBadMesh, i)
		}
	}
	for i := 1; i < len(b.YCoords); i++ {
		if b.YCoords[i] <= b.YCoords[i-1] {
			return fmt.Errorf("%w: y coordinates not increasing at %d", ErrBadMesh, i)
		}
	}
	return nil
}

// UniformBlock2D builds an NX x NY block spanning [x0,x1] x [y0,y1].
func UniformBlock2D(nx, ny int, x0, x1, y0, y1 float64) *StructuredBlock2D {
	b := &StructuredBlock2D{NX: nx, NY: ny,
		XCoords: make([]float64, nx+1), YCoords: make([]float64, ny+1)}
	for i := 0; i <= nx; i++ {
		b.XCoords[i] = x0 + (x1-x0)*float64(i)/float64(nx)
	}
	for j := 0; j <= ny; j++ {
		b.YCoords[j] = y0 + (y1-y0)*float64(j)/float64(ny)
	}
	return b
}
