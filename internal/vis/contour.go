package vis

import (
	"slices"

	"godiva/internal/mesh"
)

// edgeSlot is one entry of the open-addressed edge table: a mesh edge as its
// two node indices packed low-node-first, and the contour vertex on it.
type edgeSlot struct {
	key  uint64
	vert int32 // 1 + contour vertex; 0 marks an empty slot
}

// edgeTable maps crossing edges to contour vertices. It grows with the
// contour, not the mesh: most blocks a plane or level misses entirely.
type edgeTable struct {
	slots []edgeSlot // power-of-two sized, at most half full
	used  int
}

// reset empties the table, keeping its memory.
func (t *edgeTable) reset() {
	if t.used > 0 {
		clear(t.slots)
		t.used = 0
	}
}

// slot returns the entry for edge key, claiming an empty one (vert 0, for
// the caller to fill) when the edge is new.
func (t *edgeTable) slot(key uint64) *edgeSlot {
	if 2*(t.used+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	h := key * 0x9E3779B97F4A7C15
	for h = (h ^ h>>32) & mask; ; h = (h + 1) & mask {
		e := &t.slots[h]
		if e.vert == 0 {
			e.key = key
			t.used++
			return e
		}
		if e.key == key {
			return e
		}
	}
}

// grow doubles the table and re-inserts its entries.
func (t *edgeTable) grow() {
	old := t.slots
	t.slots = make([]edgeSlot, max(64, 2*len(old)))
	t.used = 0
	for _, e := range old {
		if e.vert != 0 {
			t.slot(e.key).vert = e.vert
		}
	}
}

// contourer is the state of one marching-tetrahedra pass.
type contourer struct {
	m     *mesh.TetMesh
	f     []float64
	iso   float64
	color []float64
	s     *TriSurface
	edges *edgeTable
}

// cut returns the surface vertex on edge (a,b), creating it on first use.
// Callers only pass edges with f[a], f[b] on opposite sides.
func (c *contourer) cut(a, b int32) int32 {
	if a > b {
		a, b = b, a
	}
	e := c.edges.slot(uint64(uint32(a))<<32 | uint64(uint32(b)))
	if e.vert != 0 {
		return e.vert - 1
	}
	fa, fb := c.f[a], c.f[b]
	t := 0.5
	if fb != fa {
		t = (c.iso - fa) / (fb - fa)
	}
	pa, pb := c.m.Node(a), c.m.Node(b)
	p := pa.Add(pb.Sub(pa).Scale(t))
	v := int32(c.s.NumVerts())
	c.s.Coords = append(c.s.Coords, p.X, p.Y, p.Z)
	if c.color != nil {
		c.s.Scalars = append(c.s.Scalars, c.color[a]+(c.color[b]-c.color[a])*t)
	}
	e.vert = v + 1
	return v
}

// contourField appends to s the crossing surface f(x) = iso over a tet mesh
// by marching tetrahedra, interpolating positions and the color attribute
// along crossing edges; the new vertex indices start at s's vertex count.
// Crossing vertices are shared between neighboring tets through the edge
// table, so the surface is watertight. Vertices are numbered in the order
// the element walk first cuts their edges. Given a color, s's scalars must
// cover its vertices and are extended; without one, and for the normals, s
// keeps no per-vertex array the new vertices leave short (dropUncovered).
func contourField(s *TriSurface, m *mesh.TetMesh, f []float64, iso float64, color []float64, edges *edgeTable) error {
	if len(f) != m.NumNodes() {
		return ErrBadInput
	}
	if color != nil && (len(color) != m.NumNodes() || len(s.Scalars) != s.NumVerts()) {
		return ErrBadInput
	}
	edges.reset()
	ct := contourer{m: m, f: f, iso: iso, color: color, s: s, edges: edges}
	for e := 0; e < m.NumCells(); e++ {
		c := m.Cell(e)
		var inside [4]bool
		n := 0
		for i, v := range c {
			if f[v] >= iso {
				inside[i] = true
				n++
			}
		}
		switch n {
		case 0, 4:
			continue
		case 1, 3:
			// One vertex on its own side: one triangle from its 3 edges.
			lone := -1
			want := n == 1 // n==1: the lone vertex is inside
			for i := range inside {
				if inside[i] == want {
					lone = i
					break
				}
			}
			o := [3]int32{}
			k := 0
			for i, v := range c {
				if i != lone {
					o[k] = v
					k++
				}
			}
			v0 := ct.cut(c[lone], o[0])
			v1 := ct.cut(c[lone], o[1])
			v2 := ct.cut(c[lone], o[2])
			s.Tris = append(s.Tris, v0, v1, v2)
		case 2:
			// Two in, two out: a quad split into two triangles.
			var in, out [2]int32
			ni, no := 0, 0
			for i, v := range c {
				if inside[i] {
					in[ni] = v
					ni++
				} else {
					out[no] = v
					no++
				}
			}
			v00 := ct.cut(in[0], out[0])
			v01 := ct.cut(in[0], out[1])
			v10 := ct.cut(in[1], out[0])
			v11 := ct.cut(in[1], out[1])
			s.Tris = append(s.Tris, v00, v01, v11)
			s.Tris = append(s.Tris, v00, v11, v10)
		}
	}
	s.dropUncovered()
	return nil
}

// IsoSurface extracts the isosurface field = iso of a node-based scalar,
// colored by the (possibly different) node-based scalar color. Pass the
// contoured field itself as color for the conventional single-variable
// contour.
func IsoSurface(m *mesh.TetMesh, field []float64, iso float64, color []float64) (*TriSurface, error) {
	s := fresh()
	return made(s, AppendIsoSurface(s, m, field, iso, color))
}

// AppendIsoSurface is IsoSurface appending to dst (see contourField).
func AppendIsoSurface(dst *TriSurface, m *mesh.TetMesh, field []float64, iso float64, color []float64) error {
	return contourField(dst, m, field, iso, color, &dst.work().edges)
}

// SlicePlane cuts the mesh with a plane and returns the cut cross-section
// colored by the node-based scalar color.
func SlicePlane(m *mesh.TetMesh, pl Plane, color []float64) (*TriSurface, error) {
	s := fresh()
	return made(s, AppendSlicePlane(s, m, pl, color))
}

// AppendSlicePlane is SlicePlane appending to dst (see contourField).
func AppendSlicePlane(dst *TriSurface, m *mesh.TetMesh, pl Plane, color []float64) error {
	sc := dst.work()
	sc.dist = slices.Grow(sc.dist[:0], m.NumNodes())[:m.NumNodes()]
	normal := pl.Normal.Normalize()
	for i := range sc.dist {
		sc.dist[i] = normal.Dot(m.Node(int32(i)).Sub(pl.Origin))
	}
	return contourField(dst, m, sc.dist, 0, color, &sc.edges)
}

// CutPlane removes the half space behind the plane (negative side) and
// returns both the clipped external surface and the cut cross-section,
// colored by the node scalar, merged into one surface — the "cutting plane"
// feature of the paper's complex test. The clip is element-granular: an
// element survives when its centroid is on the positive side.
func CutPlane(m *mesh.TetMesh, pl Plane, color []float64) (*TriSurface, error) {
	s := fresh()
	return made(s, AppendCutPlane(s, m, pl, color))
}

// AppendCutPlane is CutPlane appending to dst, whose scalars must cover its
// vertices. The kept elements' boundary is extracted over m's own node
// numbering; gather compacts its vertices in first-seen order, so no
// compacted copy of the kept mesh is needed.
func AppendCutPlane(dst *TriSurface, m *mesh.TetMesh, pl Plane, color []float64) error {
	if len(color) != m.NumNodes() || len(dst.Scalars) != dst.NumVerts() {
		return ErrBadInput
	}
	sc := dst.work()
	sc.tets = sc.tets[:0]
	normal := pl.Normal.Normalize()
	for e := 0; e < m.NumCells(); e++ {
		if normal.Dot(m.CellCentroid(e).Sub(pl.Origin)) >= 0 {
			sc.tets = append(sc.tets, m.Tets[4*e:4*e+4]...)
		}
	}
	kept := mesh.TetMesh{Coords: m.Coords, Tets: sc.tets}
	dst.appendExtracted(&kept, color, sc)
	return AppendSlicePlane(dst, m, pl, color)
}
