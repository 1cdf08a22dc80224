package mesh

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// faceKey canonicalizes a face's node set for matching interior faces.
type faceKey [3]int32

func makeFaceKey(a, b, c int32) faceKey {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return faceKey{a, b, c}
}

// oracleBoundaryFaces is the map-based extraction BoundaryFaces replaced,
// kept verbatim as the reference the table-based kernel must equal
// element for element.
func oracleBoundaryFaces(m *TetMesh) [][3]int32 {
	count := make(map[faceKey]int, m.NumCells()*2)
	first := make(map[faceKey][3]int32, m.NumCells()*2)
	for e := 0; e < m.NumCells(); e++ {
		c := m.Cell(e)
		for _, f := range tetFaces {
			tri := [3]int32{c[f[0]], c[f[1]], c[f[2]]}
			k := makeFaceKey(tri[0], tri[1], tri[2])
			count[k]++
			if count[k] == 1 {
				first[k] = tri
			}
		}
	}
	var out [][3]int32
	for e := 0; e < m.NumCells(); e++ {
		c := m.Cell(e)
		for _, f := range tetFaces {
			tri := [3]int32{c[f[0]], c[f[1]], c[f[2]]}
			k := makeFaceKey(tri[0], tri[1], tri[2])
			if count[k] == 1 {
				out = append(out, first[k])
				count[k] = 0 // emit once
			}
		}
	}
	return out
}

// halfMesh keeps every other element, the ragged shape a threshold leaves.
func halfMesh(m *TetMesh) *TetMesh {
	out := &TetMesh{Coords: m.Coords}
	for e := 0; e < m.NumCells(); e += 2 {
		out.Tets = append(out.Tets, m.Tets[4*e:4*e+4]...)
	}
	return out
}

// boundaryCases are the meshes the differential tests run over.
func boundaryCases() map[string]*TetMesh {
	cases := map[string]*TetMesh{
		"empty":    {},
		"unit tet": unitTet(),
		"two tets sharing a face": {
			Coords: []float64{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1},
			Tets:   []int32{0, 1, 2, 3, 1, 2, 3, 4},
		},
		// Face (1,2,3) belongs to three elements: still interior, because
		// external means exactly one.
		"non-manifold soup": {
			Coords: []float64{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, -1, -1, -1},
			Tets:   []int32{0, 1, 2, 3, 1, 2, 3, 4, 5, 3, 2, 1, 0, 1, 2, 3},
		},
	}
	for name, spec := range map[string]AnnulusSpec{
		"annulus":      defaultAnnulus(),
		"star annulus": {NR: 2, NTheta: 12, NZ: 4, RInner: 0.5, ROuter: 1.0, Length: 3.0, StarPoints: 5, StarDepth: 0.3},
	} {
		whole := GenerateAnnulus(spec)
		cases[name] = whole
		cases[name+" half"] = halfMesh(whole)
		for i, b := range whole.Partition(5) {
			cases[name+" block "+string(rune('0'+i))] = b
		}
	}
	return cases
}

func TestBoundaryFacesMatchOracle(t *testing.T) {
	for name, m := range boundaryCases() {
		want := oracleBoundaryFaces(m)
		if got := m.BoundaryFaces(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BoundaryFaces differs from the map-based oracle: %d faces, want %d", name, len(got), len(want))
		}
		flat := m.AppendBoundaryFaces([]int32{-7})
		if flat[0] != -7 || len(flat) != 1+3*len(want) {
			t.Fatalf("%s: AppendBoundaryFaces returned %d values after the prefix, want %d", name, len(flat)-1, 3*len(want))
		}
		for i, f := range want {
			if [3]int32(flat[1+3*i:4+3*i]) != f {
				t.Fatalf("%s: flat face %d = %v, want %v", name, i, flat[1+3*i:4+3*i], f)
			}
		}
	}
}

// Random element soups (repeated elements, shared and unshared faces, node
// indices far apart) exercise the table's probing and the exactly-once rule
// beyond what generated meshes reach.
func TestBoundaryFacesMatchOracleOnRandomSoups(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		nodes := int32(4 + rng.Intn(12))
		if round%10 == 0 {
			nodes = 1 << 30
		}
		m := &TetMesh{}
		for e := rng.Intn(40); e > 0; e-- {
			for k := 0; k < 4; k++ {
				m.Tets = append(m.Tets, rng.Int31n(nodes))
			}
		}
		if got, want := m.BoundaryFaces(), oracleBoundaryFaces(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: tets %v: got %v, want %v", round, m.Tets, got, want)
		}
	}
}

// Extractions of different blocks run at once on the I/O workers and the
// main thread, all through the one scratch pool.
func TestBoundaryFacesConcurrent(t *testing.T) {
	blocks := GenerateAnnulus(defaultAnnulus()).Partition(8)
	want := make([][][3]int32, len(blocks))
	for i, b := range blocks {
		want[i] = b.BoundaryFaces()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				i := (g + round) % len(blocks)
				if got := blocks[i].BoundaryFaces(); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: block %d differs from its sequential extraction", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// benchBlock is one block of the benchmark's D1 dataset: 46 080 cells in
// 120 blocks.
func benchBlock() *TetMesh {
	whole := GenerateAnnulus(AnnulusSpec{NR: 2, NTheta: 24, NZ: 160, RInner: 0.6, ROuter: 1.55, Length: 24})
	return whole.Partition(120)[60]
}

var benchFaces []int32

// BenchmarkBoundaryFaces times the extraction the read function runs per
// block, into a reused destination: verify.sh's benchmem stage fails it on
// any allocation.
func BenchmarkBoundaryFaces(b *testing.B) {
	m := benchBlock()
	benchFaces = m.AppendBoundaryFaces(benchFaces[:0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFaces = m.AppendBoundaryFaces(benchFaces[:0])
	}
}
