package mesh

import (
	"math"
	"math/rand"
	"testing"
)

// oracleBounds is Bounds as it was written with math.Min and math.Max, kept
// as the reference the builtin min/max version is pinned to.
func oracleBounds(m *TetMesh) (lo, hi Vec3) {
	if m.NumNodes() == 0 {
		return Vec3{}, Vec3{}
	}
	lo = m.Node(0)
	hi = lo
	for i := 1; i < m.NumNodes(); i++ {
		p := m.Node(int32(i))
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		lo.Z = math.Min(lo.Z, p.Z)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
		hi.Z = math.Max(hi.Z, p.Z)
	}
	return lo, hi
}

func component(v Vec3, axis int) float64 {
	return [3]float64{v.X, v.Y, v.Z}[axis]
}

// TestBoundsMatchesOracle pins Bounds to the math.Min/math.Max body over
// seeded coordinates drawn from finite values, ±0, ±Inf and NaN. The two
// agree bit for bit — which NaN comes back aside: the builtins return the
// one they were given, math.Min a canonical one — except where an axis holds
// both a NaN and the infinity its fold runs toward. There math.Min(-Inf,
// NaN) is -Inf and min(-Inf, NaN) is NaN, whatever the order; that one
// divergence is asserted as such and must be reached.
func TestBoundsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	diverged := 0
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(8)
		m := &TetMesh{Coords: make([]float64, 3*n)}
		for i := range m.Coords {
			if rng.Intn(4) == 0 {
				m.Coords[i] = special[rng.Intn(len(special))]
			} else {
				m.Coords[i] = rng.NormFloat64()
			}
		}
		lo, hi := m.Bounds()
		wantLo, wantHi := oracleBounds(m)
		for axis := 0; axis < 3; axis++ {
			hasNaN := false
			for i := axis; i < len(m.Coords); i += 3 {
				hasNaN = hasNaN || math.IsNaN(m.Coords[i])
			}
			for _, c := range []struct {
				got, want, toward float64
			}{
				{component(lo, axis), component(wantLo, axis), math.Inf(-1)},
				{component(hi, axis), component(wantHi, axis), math.Inf(1)},
			} {
				switch {
				case math.IsNaN(c.got) && math.IsNaN(c.want),
					math.Float64bits(c.got) == math.Float64bits(c.want):
				case math.IsNaN(c.got) && hasNaN && c.want == c.toward:
					diverged++
				default:
					t.Fatalf("trial %d axis %d: Bounds %v, oracle %v over %v", trial, axis, c.got, c.want, m.Coords)
				}
			}
		}
	}
	if diverged == 0 {
		t.Fatal("no trial reached the NaN-over-infinity case")
	}
}
