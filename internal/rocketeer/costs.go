package rocketeer

import (
	"time"

	"godiva/internal/platform"
	"godiva/internal/vis"
)

// Per-primitive compute costs of the visualization pipeline, in virtual time
// at CPUSpeed 1.0 (Engle's 2.0 GHz Pentium 4). Experiments run on a
// geometrically reduced mesh, whose real Go computation costs no virtual
// time, and charge these costs times the full-scale primitive counts to the
// simulated platform. Values are calibrated so the three
// tests' computation-to-I/O ratios land where the paper's evaluation puts
// them (simple lowest, complex highest, with computation of the same order
// as input cost).
const (
	costSurfacePerCell = 1000 * time.Nanosecond // extraction + attribute mapping
	costIsoPerCell     = 1800 * time.Nanosecond // marching tetrahedra
	costSlicePerCell   = 1300 * time.Nanosecond // plane contouring
	costCutPerCell     = 2600 * time.Nanosecond // clip + surface + section
	costCellToPoint    = 250 * time.Nanosecond  // per cell
	costMagnitude      = 60 * time.Nanosecond   // per node
	costRasterPerTri   = 1400 * time.Nanosecond // rendering path
)

func opCellCost(k OpKind) time.Duration {
	switch k {
	case OpSurface:
		return costSurfacePerCell
	case OpIso:
		return costIsoPerCell
	case OpSlice:
		return costSlicePerCell
	case OpCut:
		return costCutPerCell
	default:
		return 0
	}
}

// charger charges scaled compute costs to a simulated platform; a nil
// machine charges nothing (examples run uncharged).
type charger struct {
	m     *platform.Machine
	scale float64 // full-scale primitives per actual primitive
}

func (c charger) compute(per time.Duration, count int) {
	if c.m == nil || count <= 0 {
		return
	}
	s := c.scale
	if s < 1 {
		s = 1
	}
	c.m.Compute(time.Duration(float64(per) * float64(count) * s))
}

func (c charger) render(s *vis.TriSurface) {
	if c.m == nil || s == nil || s.NumTris() == 0 {
		return
	}
	sc := c.scale
	if sc < 1 {
		sc = 1
	}
	c.m.ComputeRender(time.Duration(float64(costRasterPerTri) * float64(s.NumTris()) * sc))
}
