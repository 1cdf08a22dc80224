package mesh

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// unitTet returns a single positively oriented tetrahedron of volume 1/6.
func unitTet() *TetMesh {
	return &TetMesh{
		Coords: []float64{
			0, 0, 0,
			1, 0, 0,
			0, 1, 0,
			0, 0, 1,
		},
		Tets: []int32{0, 1, 2, 3},
	}
}

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if got := a.Add(b); got != (Vec3{5, 7, 9}) {
		t.Fatalf("Add = %v", got)
	}
	if got := b.Sub(a); got != (Vec3{3, 3, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	if got := (Vec3{1, 0, 0}).Cross(Vec3{0, 1, 0}); got != (Vec3{0, 0, 1}) {
		t.Fatalf("Cross = %v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Fatalf("Norm = %v", got)
	}
	if got := (Vec3{0, 0, 0}).Normalize(); got != (Vec3{}) {
		t.Fatalf("Normalize(0) = %v", got)
	}
	if got := (Vec3{0, 3, 0}).Normalize(); got != (Vec3{0, 1, 0}) {
		t.Fatalf("Normalize = %v", got)
	}
}

func TestUnitTetBasics(t *testing.T) {
	m := unitTet()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != 4 || m.NumCells() != 1 {
		t.Fatalf("NumNodes/NumCells = %d/%d", m.NumNodes(), m.NumCells())
	}
	if v := m.CellVolume(0); math.Abs(v-1.0/6) > 1e-12 {
		t.Fatalf("CellVolume = %v, want 1/6", v)
	}
	c := m.CellCentroid(0)
	if math.Abs(c.X-0.25) > 1e-12 || math.Abs(c.Y-0.25) > 1e-12 || math.Abs(c.Z-0.25) > 1e-12 {
		t.Fatalf("centroid = %v", c)
	}
	lo, hi := m.Bounds()
	if lo != (Vec3{0, 0, 0}) || hi != (Vec3{1, 1, 1}) {
		t.Fatalf("bounds = %v %v", lo, hi)
	}
	faces := m.BoundaryFaces()
	if len(faces) != 4 {
		t.Fatalf("single tet has %d boundary faces, want 4", len(faces))
	}
}

func TestValidateCatchesBadMeshes(t *testing.T) {
	m := unitTet()
	m.Coords = m.Coords[:11] // not a multiple of 3
	if err := m.Validate(); !errors.Is(err, ErrBadMesh) {
		t.Fatalf("bad coords: %v", err)
	}

	m = unitTet()
	m.Tets = []int32{0, 1, 2} // not a multiple of 4
	if err := m.Validate(); !errors.Is(err, ErrBadMesh) {
		t.Fatalf("bad connectivity: %v", err)
	}

	m = unitTet()
	m.Tets[3] = 99 // out of range
	if err := m.Validate(); !errors.Is(err, ErrBadMesh) {
		t.Fatalf("index out of range: %v", err)
	}

	m = unitTet()
	m.Tets[0], m.Tets[1] = m.Tets[1], m.Tets[0] // inverted element
	if err := m.Validate(); !errors.Is(err, ErrBadMesh) {
		t.Fatalf("negative volume: %v", err)
	}

	m = unitTet()
	m.GlobalNode = []int64{1, 2} // wrong length
	if err := m.Validate(); !errors.Is(err, ErrBadMesh) {
		t.Fatalf("bad global IDs: %v", err)
	}
}

func TestBoundaryFacesOutwardOrientation(t *testing.T) {
	m := unitTet()
	centroid := m.CellCentroid(0)
	for _, f := range m.BoundaryFaces() {
		a, b, c := m.Node(f[0]), m.Node(f[1]), m.Node(f[2])
		n := b.Sub(a).Cross(c.Sub(a))
		faceCenter := a.Add(b).Add(c).Scale(1.0 / 3)
		if n.Dot(faceCenter.Sub(centroid)) <= 0 {
			t.Fatalf("face %v normal points inward", f)
		}
	}
}

func TestTwoTetsShareInteriorFace(t *testing.T) {
	// Two tets glued on face (1,2,3): 6 external faces, 1 interior.
	m := &TetMesh{
		Coords: []float64{
			0, 0, 0,
			1, 0, 0,
			0, 1, 0,
			0, 0, 1,
			1, 1, 1,
		},
		Tets: []int32{
			0, 1, 2, 3,
			1, 2, 3, 4, // wrong orientation is fine for face counting
		},
	}
	faces := m.BoundaryFaces()
	if len(faces) != 6 {
		t.Fatalf("got %d boundary faces, want 6", len(faces))
	}
	for _, f := range faces {
		if makeFaceKey(f[0], f[1], f[2]) == makeFaceKey(1, 2, 3) {
			t.Fatal("interior face reported as boundary")
		}
	}
}

func defaultAnnulus() AnnulusSpec {
	return AnnulusSpec{
		NR: 2, NTheta: 12, NZ: 4,
		RInner: 0.5, ROuter: 1.0, Length: 3.0,
	}
}

func TestGenerateAnnulusValid(t *testing.T) {
	s := defaultAnnulus()
	m := GenerateAnnulus(s)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	wantNodes := (s.NR + 1) * s.NTheta * (s.NZ + 1)
	wantCells := 6 * s.NR * s.NTheta * s.NZ
	if m.NumNodes() != wantNodes || m.NumCells() != wantCells {
		t.Fatalf("nodes/cells = %d/%d, want %d/%d", m.NumNodes(), m.NumCells(), wantNodes, wantCells)
	}
}

func TestAnnulusVolumeMatchesAnalytic(t *testing.T) {
	s := AnnulusSpec{NR: 3, NTheta: 64, NZ: 6, RInner: 0.5, ROuter: 1.0, Length: 2.0}
	m := GenerateAnnulus(s)
	got := m.totalVolume()
	want := math.Pi * (s.ROuter*s.ROuter - s.RInner*s.RInner) * s.Length
	// The faceted annulus underestimates the circular one; 64 angular
	// divisions put the discretization error well under 1 %.
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("volume = %v, analytic %v (err %.2f%%)", got, want, 100*math.Abs(got-want)/want)
	}
}

func TestStarBoreShrinksVolume(t *testing.T) {
	base := AnnulusSpec{NR: 2, NTheta: 48, NZ: 4, RInner: 0.5, ROuter: 1.0, Length: 2.0}
	star := base
	star.StarPoints = 7
	star.StarDepth = 0.3
	vBase := GenerateAnnulus(base).totalVolume()
	vStar := GenerateAnnulus(star).totalVolume()
	if vStar <= vBase {
		t.Fatalf("star perforation did not increase propellant volume: %v vs %v", vStar, vBase)
	}
	if err := GenerateAnnulus(star).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAnnulusSurfaceIsClosed(t *testing.T) {
	m := GenerateAnnulus(defaultAnnulus())
	faces := m.BoundaryFaces()
	// A closed surface has every edge shared by exactly two faces.
	edges := map[[2]int32]int{}
	for _, f := range faces {
		for i := 0; i < 3; i++ {
			a, b := f[i], f[(i+1)%3]
			if a > b {
				a, b = b, a
			}
			edges[[2]int32{a, b}]++
		}
	}
	for e, n := range edges {
		if n != 2 {
			t.Fatalf("edge %v belongs to %d boundary faces, want 2", e, n)
		}
	}
}

func TestPartitionCoversAllCells(t *testing.T) {
	m := GenerateAnnulus(defaultAnnulus())
	blocks := m.Partition(7)
	if len(blocks) != 7 {
		t.Fatalf("got %d blocks", len(blocks))
	}
	total := 0
	var vol float64
	for i, b := range blocks {
		if err := b.Validate(); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if b.GlobalNode == nil {
			t.Fatalf("block %d has no global node IDs", i)
		}
		total += b.NumCells()
		vol += b.totalVolume()
	}
	if total != m.NumCells() {
		t.Fatalf("blocks hold %d cells, mesh has %d", total, m.NumCells())
	}
	if math.Abs(vol-m.totalVolume()) > 1e-9 {
		t.Fatalf("block volumes sum to %v, mesh volume %v", vol, m.totalVolume())
	}
}

func TestPartitionDuplicatesBoundaryNodes(t *testing.T) {
	m := GenerateAnnulus(defaultAnnulus())
	blocks := m.Partition(4)
	sum := 0
	for _, b := range blocks {
		sum += b.NumNodes()
	}
	if sum <= m.NumNodes() {
		t.Fatalf("partition did not duplicate boundary nodes: %d <= %d", sum, m.NumNodes())
	}
	// Global IDs must point back at identical coordinates.
	for bi, b := range blocks {
		for li := 0; li < b.NumNodes(); li++ {
			g := b.GlobalNode[li]
			pl := b.Node(int32(li))
			pg := m.Node(int32(g))
			if pl != pg {
				t.Fatalf("block %d node %d: coords %v != global %v", bi, li, pl, pg)
			}
		}
	}
}

func TestPartitionSingleBlockIsWhole(t *testing.T) {
	m := GenerateAnnulus(defaultAnnulus())
	blocks := m.Partition(1)
	if len(blocks) != 1 || blocks[0].NumCells() != m.NumCells() || blocks[0].NumNodes() != m.NumNodes() {
		t.Fatalf("1-block partition: %d cells %d nodes", blocks[0].NumCells(), blocks[0].NumNodes())
	}
	if got := m.Partition(0); len(got) != 1 {
		t.Fatalf("Partition(0) gave %d blocks", len(got))
	}
}

func TestStructuredBlock2D(t *testing.T) {
	b := UniformBlock2D(100, 100, 0, 1, 0, 2)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.XCoords) != 101 || len(b.YCoords) != 101 {
		t.Fatalf("coords = %d/%d, want 101/101 (paper Figure 2)", len(b.XCoords), len(b.YCoords))
	}
	if b.NumElements() != 10000 {
		t.Fatalf("NumElements = %d, want 10000", b.NumElements())
	}
	bad := &StructuredBlock2D{NX: 2, NY: 2, XCoords: []float64{0, 1, 0.5}, YCoords: []float64{0, 1, 2}}
	if err := bad.Validate(); !errors.Is(err, ErrBadMesh) {
		t.Fatalf("non-increasing coords: %v", err)
	}
	short := &StructuredBlock2D{NX: 2, NY: 2, XCoords: []float64{0, 1}, YCoords: []float64{0, 1, 2}}
	if err := short.Validate(); !errors.Is(err, ErrBadMesh) {
		t.Fatalf("short coords: %v", err)
	}
}

// Property: any annulus spec within sane ranges produces a valid mesh whose
// partition preserves cells and volume.
func TestQuickAnnulusPartition(t *testing.T) {
	f := func(nr, nt, nz, nb uint8) bool {
		s := AnnulusSpec{
			NR:     int(nr)%3 + 1,
			NTheta: int(nt)%10 + 3,
			NZ:     int(nz)%4 + 1,
			RInner: 0.4, ROuter: 1.1, Length: 2,
		}
		m := GenerateAnnulus(s)
		if m.Validate() != nil {
			return false
		}
		blocks := m.Partition(int(nb)%6 + 1)
		cells := 0
		var vol float64
		for _, b := range blocks {
			if b.Validate() != nil {
				return false
			}
			cells += b.NumCells()
			vol += b.totalVolume()
		}
		return cells == m.NumCells() && math.Abs(vol-m.totalVolume()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// totalVolume returns the sum of element volumes.
func (m *TetMesh) totalVolume() float64 {
	var v float64
	for e := 0; e < m.NumCells(); e++ {
		v += m.CellVolume(e)
	}
	return v
}
