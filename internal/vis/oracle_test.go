package vis

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"godiva/internal/mesh"
)

// The oracles below are the map-based filter bodies the map-free kernels
// replaced, kept verbatim: the kernels must equal them element for element
// and float bit for bit, because vertex order decides the rendered image.
// oracleExtractSurface calls mesh.BoundaryFaces, which internal/mesh pins to
// its own map-based oracle.

func oracleExtractSurface(m *mesh.TetMesh, nodeScalar []float64) *TriSurface {
	faces := m.BoundaryFaces()
	s := &TriSurface{}
	remap := make(map[int32]int32)
	for _, f := range faces {
		for _, n := range f {
			v, ok := remap[n]
			if !ok {
				v = int32(s.NumVerts())
				remap[n] = v
				p := m.Node(n)
				s.Coords = append(s.Coords, p.X, p.Y, p.Z)
				if nodeScalar != nil {
					s.Scalars = append(s.Scalars, nodeScalar[n])
				}
			}
			s.Tris = append(s.Tris, v)
		}
	}
	return s
}

func oracleThreshold(m *mesh.TetMesh, elemScalar []float64, lo, hi float64) (*mesh.TetMesh, []int32) {
	out := &mesh.TetMesh{}
	remap := make(map[int32]int32)
	var nodeMap []int32
	for e := 0; e < m.NumCells(); e++ {
		if elemScalar[e] < lo || elemScalar[e] > hi {
			continue
		}
		c := m.Cell(e)
		for _, n := range c {
			v, ok := remap[n]
			if !ok {
				v = int32(out.NumNodes())
				remap[n] = v
				p := m.Node(n)
				out.Coords = append(out.Coords, p.X, p.Y, p.Z)
				nodeMap = append(nodeMap, n)
				if m.GlobalNode != nil {
					out.GlobalNode = append(out.GlobalNode, m.GlobalNode[n])
				}
			}
			out.Tets = append(out.Tets, v)
		}
	}
	return out, nodeMap
}

func oracleContourField(m *mesh.TetMesh, f []float64, iso float64, color []float64) *TriSurface {
	s := &TriSurface{}
	type edge struct{ a, b int32 }
	verts := make(map[edge]int32)
	cut := func(a, b int32) int32 {
		if a > b {
			a, b = b, a
		}
		k := edge{a, b}
		if v, ok := verts[k]; ok {
			return v
		}
		fa, fb := f[a], f[b]
		t := 0.5
		if fb != fa {
			t = (iso - fa) / (fb - fa)
		}
		pa, pb := m.Node(a), m.Node(b)
		p := pa.Add(pb.Sub(pa).Scale(t))
		v := int32(s.NumVerts())
		s.Coords = append(s.Coords, p.X, p.Y, p.Z)
		if color != nil {
			s.Scalars = append(s.Scalars, color[a]+(color[b]-color[a])*t)
		}
		verts[edge{a, b}] = v
		return v
	}
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
			lone := -1
			want := n == 1
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
			v0 := cut(c[lone], o[0])
			v1 := cut(c[lone], o[1])
			v2 := cut(c[lone], o[2])
			s.Tris = append(s.Tris, v0, v1, v2)
		case 2:
			var in, out []int32
			for i, v := range c {
				if inside[i] {
					in = append(in, v)
				} else {
					out = append(out, v)
				}
			}
			v00 := cut(in[0], out[0])
			v01 := cut(in[0], out[1])
			v10 := cut(in[1], out[0])
			v11 := cut(in[1], out[1])
			s.Tris = append(s.Tris, v00, v01, v11)
			s.Tris = append(s.Tris, v00, v11, v10)
		}
	}
	return s
}

// oracleSignedDistance is Plane.SignedDistance as the filters used to call it
// per node and per cell: it normalizes the plane normal on every call.
func oracleSignedDistance(pl Plane, p mesh.Vec3) float64 {
	return pl.Normal.Normalize().Dot(p.Sub(pl.Origin))
}

func oracleSlicePlane(m *mesh.TetMesh, pl Plane, color []float64) *TriSurface {
	dist := make([]float64, m.NumNodes())
	for i := range dist {
		dist[i] = oracleSignedDistance(pl, m.Node(int32(i)))
	}
	return oracleContourField(m, dist, 0, color)
}

func oracleCutPlane(m *mesh.TetMesh, pl Plane, color []float64) *TriSurface {
	keepScalar := make([]float64, m.NumCells())
	for e := 0; e < m.NumCells(); e++ {
		if oracleSignedDistance(pl, m.CellCentroid(e)) >= 0 {
			keepScalar[e] = 1
		}
	}
	kept, nodeMap := oracleThreshold(m, keepScalar, 0.5, 2)
	colorKept := make([]float64, kept.NumNodes())
	for i, old := range nodeMap {
		colorKept[i] = color[old]
	}
	surf := oracleExtractSurface(kept, colorKept)
	surf.Append(oracleSlicePlane(m, pl, color))
	return surf
}

// sameFloats reports bit-for-bit equality (NaNs and signed zeros included).
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameSurface(a, b *TriSurface) bool {
	return reflect.DeepEqual(a.Tris, b.Tris) && sameFloats(a.Coords, b.Coords) &&
		sameFloats(a.Scalars, b.Scalars) && sameFloats(a.Normals, b.Normals)
}

func sameMesh(a, b *mesh.TetMesh) bool {
	return reflect.DeepEqual(a.Tets, b.Tets) && sameFloats(a.Coords, b.Coords) &&
		reflect.DeepEqual(a.GlobalNode, b.GlobalNode)
}

// halfMesh keeps the elements whose centroid lies above mid-height, the
// ragged shape a threshold or cut leaves.
func halfMesh(t *testing.T, m *mesh.TetMesh) *mesh.TetMesh {
	t.Helper()
	keep := make([]float64, m.NumCells())
	for e := range keep {
		keep[e] = m.CellCentroid(e).Z
	}
	_, hi := m.Bounds()
	half, _, err := Threshold(m, keep, hi.Z/2, hi.Z)
	if err != nil {
		t.Fatal(err)
	}
	return half
}

// oracleCases are the meshes the differential tests run over.
func oracleCases(t *testing.T) map[string]*mesh.TetMesh {
	cases := map[string]*mesh.TetMesh{
		"empty": {},
		"unit tet": {
			Coords: []float64{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1},
			Tets:   []int32{0, 1, 2, 3},
		},
		"two tets sharing a face": {
			Coords: []float64{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1},
			Tets:   []int32{0, 1, 2, 3, 1, 2, 3, 4},
		},
		// Face (1,2,3) belongs to three elements.
		"non-manifold soup": {
			Coords: []float64{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, -1, -1, -1},
			Tets:   []int32{0, 1, 2, 3, 1, 2, 3, 4, 5, 3, 2, 1},
		},
	}
	for name, spec := range map[string]mesh.AnnulusSpec{
		"annulus":      {NR: 2, NTheta: 16, NZ: 6, RInner: 0.5, ROuter: 1.0, Length: 3},
		"star annulus": {NR: 2, NTheta: 16, NZ: 6, RInner: 0.5, ROuter: 1.0, Length: 3, StarPoints: 5, StarDepth: 0.3},
	} {
		whole := mesh.GenerateAnnulus(spec)
		cases[name+" half"] = halfMesh(t, whole)
		for i, b := range whole.Partition(5) {
			cases[name+" block "+string(rune('0'+i))] = b
		}
	}
	return cases
}

// wobble is a node scalar with no symmetry to hide an ordering mistake.
func wobble(m *mesh.TetMesh) []float64 {
	s := make([]float64, m.NumNodes())
	for i := range s {
		p := m.Node(int32(i))
		s[i] = math.Sin(3*p.X) + p.Y*p.Z - 0.3*p.Z
	}
	return s
}

func TestExtractSurfaceMatchesOracle(t *testing.T) {
	for name, m := range oracleCases(t) {
		for _, scalar := range [][]float64{nil, wobble(m)} {
			got, err := ExtractSurface(m, scalar)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := oracleExtractSurface(m, scalar)
			if !sameSurface(got, want) {
				t.Errorf("%s (scalars %v): ExtractSurface differs from the map-based oracle", name, scalar != nil)
			}
			if scalar == nil {
				continue
			}
			// The gathers over stored topology — geometry and node list
			// once, scalars through the node list — add exactly what
			// appending the extracted surface adds.
			tet := oracleCases(t)["unit tet"]
			tetScalar := []float64{1, 2, 3, 4}
			prefix, err := ExtractSurface(tet, tetScalar)
			if err != nil {
				t.Fatal(err)
			}
			wantAgg := &TriSurface{}
			wantAgg.Append(prefix)
			wantAgg.Append(want)
			agg := &TriSurface{}
			nodes, err := agg.AppendSurface(tet, tet.AppendBoundaryFaces(nil), nil)
			if err != nil {
				t.Fatal(err)
			}
			split := len(nodes)
			if nodes, err = agg.AppendSurface(m, m.AppendBoundaryFaces(nil), nodes); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if agg.Scalars != nil || len(nodes) != agg.NumVerts() {
				t.Fatalf("%s: AppendSurface left %d scalars and %d nodes for %d vertices", name, len(agg.Scalars), len(nodes), agg.NumVerts())
			}
			agg.Scalars = make([]float64, len(nodes))
			GatherScalars(agg.Scalars[:split], nodes[:split], tetScalar)
			GatherScalars(agg.Scalars[split:], nodes[split:], scalar)
			if !sameSurface(agg, wantAgg) {
				t.Errorf("%s: AppendSurface + GatherScalars differs from Append(ExtractSurface)", name)
			}
		}
	}
}

func TestThresholdMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, m := range oracleCases(t) {
		elem := make([]float64, m.NumCells())
		for e := range elem {
			elem[e] = rng.Float64()
		}
		for _, band := range [][2]float64{{0, 1}, {0.3, 0.8}, {2, 3}} {
			got, gotMap, err := Threshold(m, elem, band[0], band[1])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, wantMap := oracleThreshold(m, elem, band[0], band[1])
			if !sameMesh(got, want) || !reflect.DeepEqual(gotMap, wantMap) {
				t.Errorf("%s band %v: Threshold differs from the map-based oracle", name, band)
			}
		}
	}
}

// Seeded random levels and planes, through every contouring entry point.
func TestContourFiltersMatchOracle(t *testing.T) {
	for name, m := range oracleCases(t) {
		field := wobble(m)
		color := nodeScalarZ(m)
		lo, hi := ScalarRange(field)
		blo, bhi := m.Bounds()
		frac := func(v uint16) float64 { return float64(v) / 65535 }
		check := func(isoFrac, px, py, pz, nx, ny, nz uint16) bool {
			iso := lo + (hi-lo)*frac(isoFrac)
			got, err := IsoSurface(m, field, iso, color)
			if err != nil || !sameSurface(got, oracleContourField(m, field, iso, color)) {
				t.Logf("%s: IsoSurface(%v) differs from the map-based oracle (err %v)", name, iso, err)
				return false
			}
			pl := Plane{
				Origin: mesh.Vec3{
					X: blo.X + (bhi.X-blo.X)*frac(px),
					Y: blo.Y + (bhi.Y-blo.Y)*frac(py),
					Z: blo.Z + (bhi.Z-blo.Z)*frac(pz),
				},
				Normal: mesh.Vec3{X: 4*frac(nx) - 2, Y: 4*frac(ny) - 2, Z: 4*frac(nz) - 2},
			}
			got, err = SlicePlane(m, pl, color)
			if err != nil || !sameSurface(got, oracleSlicePlane(m, pl, color)) {
				t.Logf("%s: SlicePlane(%+v) differs from the map-based oracle (err %v)", name, pl, err)
				return false
			}
			got, err = CutPlane(m, pl, color)
			if err != nil || !sameSurface(got, oracleCutPlane(m, pl, color)) {
				t.Logf("%s: CutPlane(%+v) differs from the map-based oracle (err %v)", name, pl, err)
				return false
			}
			return true
		}
		cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(5))}
		if err := quick.Check(check, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Filters run on the main thread and the I/O workers at once, sharing the
// scratch pool: concurrent results must equal the sequential ones.
func TestFiltersConcurrent(t *testing.T) {
	blocks := annulus().Partition(8)
	type result struct{ surf, iso, slice *TriSurface }
	run := func(m *mesh.TetMesh) (r result, err error) {
		z := nodeScalarZ(m)
		if r.surf, err = ExtractSurface(m, z); err != nil {
			return
		}
		if r.iso, err = IsoSurface(m, z, 1.3, z); err != nil {
			return
		}
		r.slice, err = SlicePlane(m, Plane{Origin: mesh.Vec3{Z: 1.7}, Normal: mesh.Vec3{X: 0.2, Z: 1}}, z)
		return
	}
	want := make([]result, len(blocks))
	for i, b := range blocks {
		var err error
		if want[i], err = run(b); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				i := (g + round) % len(blocks)
				got, err := run(blocks[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !sameSurface(got.surf, want[i].surf) || !sameSurface(got.iso, want[i].iso) || !sameSurface(got.slice, want[i].slice) {
					t.Errorf("goroutine %d: block %d differs from its sequential result", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
