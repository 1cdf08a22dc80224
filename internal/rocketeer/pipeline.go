package rocketeer

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"godiva/internal/mesh"
	"godiva/internal/render"
	"godiva/internal/vis"
)

// blockSource yields one snapshot's per-block data to the pipeline. The O
// build reads from files on demand (re-reading coordinates with every
// variable); the GODIVA builds answer from database buffers.
type blockSource interface {
	// BlockNames lists the snapshot's blocks in processing order.
	BlockNames() []string
	// Mesh returns a block's mesh. The pipeline calls it once per snapshot
	// per block and keeps the answer in its frame.
	Mesh(name string) (*mesh.TetMesh, error)
	// Var returns a block's variable: a flattened node vector or an
	// element scalar.
	Var(name, field string) ([]float64, error)
	// Surface returns a block's boundary triangles as node-index triples
	// into m, its mesh (mesh.AppendBoundaryFaces). The pipeline calls it
	// once per block per snapshot that has a surface pass.
	Surface(name string, m *mesh.TetMesh) ([]int32, error)
}

// snapshotPipeline runs every pass of a test on one snapshot and renders one
// image per pass. One pipeline serves its owner's whole life — a batch run,
// a session, a follower — which sets test and snapID per use.
type snapshotPipeline struct {
	test     VisTest
	ch       charger
	renderer *render.Renderer
	lut      render.LUT
	imageDir string
	snapID   string
	images   int
	frame    frame

	// What every pass reuses, whatever the snapshot or view: each block's
	// node scalar and the aggregate iso, slice and cut passes append into.
	// Neither aliases a unit's buffers.
	ns  [][]float64
	agg vis.TriSurface
}

// frame is what the passes of one snapshot share, because it depends on the
// mesh and not on the variable a pass shows: built block by block the first
// time a pass asks, dropped when the snapshot is done. It lives here and not
// in the unit: it is the consumer's arrangement of the unit's data into one
// aggregate for one camera, and having the read function store it would grow
// every unit by about a third (1.7 MB on D1's 4.6 MB) and move its building
// onto the I/O worker, which is by now as busy as the main thread.
type frame struct {
	meshes []*mesh.TetMesh // per block fetched so far
	lo, hi mesh.Vec3       // bounds of meshes

	// What surface passes share, built by the first one: the aggregate
	// external surface of every block (Coords and Tris gathered once,
	// Normals computed before its first draw, Scalars rewritten by each
	// pass) and the way back from its vertices to mesh nodes.
	surf  vis.TriSurface
	nodes []int32 // per surf vertex: the node behind it, in its block's mesh
	ends  []int   // per block appended so far: where its vertices end in surf
	// drawn says the renderer's fragments are surf's, so the next surface
	// pass only recolors. Any other draw takes them away.
	drawn bool
}

// reset empties the frame, keeping its arrays for the next snapshot but none
// of the unit's buffers the meshes alias.
func (fr *frame) reset() {
	clear(fr.meshes)
	fr.meshes = fr.meshes[:0]
	fr.surf.Reset()
	fr.nodes, fr.ends = fr.nodes[:0], fr.ends[:0]
	fr.drawn = false
}

// mesh returns block i's mesh, asking the source the first time and growing
// the frame's bounds by it. Passes walk the blocks in order, so block i is
// either held already or the next one to fetch.
func (fr *frame) mesh(src blockSource, i int, name string) (*mesh.TetMesh, error) {
	if i < len(fr.meshes) {
		return fr.meshes[i], nil
	}
	m, err := src.Mesh(name)
	if err != nil {
		return nil, err
	}
	lo, hi := m.Bounds()
	if i == 0 {
		fr.lo, fr.hi = lo, hi
	} else {
		fr.lo = mesh.Vec3{X: minf(fr.lo.X, lo.X), Y: minf(fr.lo.Y, lo.Y), Z: minf(fr.lo.Z, lo.Z)}
		fr.hi = mesh.Vec3{X: maxf(fr.hi.X, hi.X), Y: maxf(fr.hi.Y, hi.Y), Z: maxf(fr.hi.Z, hi.Z)}
	}
	fr.meshes = append(fr.meshes, m)
	return m, nil
}

// appendSurface adds the next block's external surface to the aggregate.
func (fr *frame) appendSurface(src blockSource, name string, m *mesh.TetMesh) error {
	tris, err := src.Surface(name, m)
	if err != nil {
		return err
	}
	if fr.nodes, err = fr.surf.AppendSurface(m, tris, fr.nodes); err != nil {
		return err
	}
	fr.ends = append(fr.ends, len(fr.nodes))
	return nil
}

// colorSurface writes block i's share of the aggregate's scalars from the
// block's node scalar ns (one value per mesh node, which is what nodeScalar
// returns and what the indices in nodes stay below).
func (fr *frame) colorSurface(i int, ns []float64) {
	from := 0
	if i > 0 {
		from = fr.ends[i-1]
	}
	vis.GatherScalars(fr.surf.Scalars[from:fr.ends[i]], fr.nodes[from:fr.ends[i]], ns)
}

func (p *snapshotPipeline) run(src blockSource) error {
	defer p.frame.reset()
	for oi, op := range p.test.Ops {
		if err := p.runOp(src, oi, op); err != nil {
			return fmt.Errorf("pass %d (%v %s): %w", oi, op.Kind, op.Var, err)
		}
	}
	return nil
}

// runOp executes one pass: fetch each block's variable (and, the first time
// the snapshot needs them, its mesh and surface), derive the node scalar,
// compute the pass geometry per block, then render the aggregate. A surface
// pass has no geometry left to compute: it colors the frame's surface.
func (p *snapshotPipeline) runOp(src blockSource, oi int, op Op) error {
	names := src.BlockNames()
	fr := &p.frame
	if len(p.ns) < len(names) {
		p.ns = append(p.ns, make([][]float64, len(names)-len(p.ns))...)
	}
	var lo, hi float64
	for i, name := range names {
		m, err := fr.mesh(src, i, name)
		if err != nil {
			return fmt.Errorf("block %s mesh: %w", name, err)
		}
		data, err := src.Var(name, op.Var)
		if err != nil {
			return fmt.Errorf("block %s %s: %w", name, op.Var, err)
		}
		ns, err := p.nodeScalar(p.ns[i][:0], m, op.Var, data)
		if err != nil {
			return err
		}
		p.ns[i] = ns
		if op.Kind == OpSurface && len(fr.ends) == i {
			if err := fr.appendSurface(src, name, m); err != nil {
				return fmt.Errorf("block %s surface: %w", name, err)
			}
		}
		slo, shi := vis.ScalarRange(ns)
		if i == 0 {
			lo, hi = slo, shi
			continue
		}
		lo = minf(lo, slo)
		hi = maxf(hi, shi)
	}

	agg := &p.agg
	if op.Kind == OpSurface {
		agg = &fr.surf
		if nv := agg.NumVerts(); len(agg.Scalars) != nv {
			agg.Scalars = slices.Grow(agg.Scalars[:0], nv)[:nv]
		}
	} else {
		agg.Reset()
	}
	for i, m := range fr.meshes {
		if err := p.appendGeometry(agg, op, i, p.ns[i], lo, hi); err != nil {
			return err
		}
		p.ch.compute(opCellCost(op.Kind), m.NumCells())
	}

	var err error
	if op.Kind == OpSurface && fr.drawn {
		err = p.renderer.Recolor(agg.Scalars, p.lut, lo, hi)
	} else {
		if len(agg.Normals) != len(agg.Coords) {
			vis.ComputeNormals(agg) // into the memory the last pass left
		}
		p.renderer.Clear()
		err = p.renderer.DrawSurface(agg, render.DefaultCamera(fr.lo, fr.hi), p.lut, lo, hi)
		fr.drawn = op.Kind == OpSurface && agg.NumTris() > 0
	}
	if err != nil {
		return err
	}
	p.ch.render(agg)
	p.images++
	if p.imageDir != "" {
		name := fmt.Sprintf("%s_%s_%02d_%s_%s.png", p.test.Name, p.snapID, oi, op.Kind, op.Var)
		if err := os.MkdirAll(p.imageDir, 0o755); err != nil {
			return err
		}
		if err := p.renderer.WritePNG(filepath.Join(p.imageDir, name)); err != nil {
			return err
		}
	}
	return nil
}

// nodeScalar reduces a variable to a per-node scalar, appended to dst:
// vector magnitude for node vectors, cell-to-point averaging for element
// scalars.
func (p *snapshotPipeline) nodeScalar(dst []float64, m *mesh.TetMesh, field string, data []float64) ([]float64, error) {
	if len(data) == 3*m.NumNodes() {
		p.ch.compute(costMagnitude, m.NumNodes())
		return vis.AppendVectorMagnitude(dst, data), nil
	}
	if len(data) == m.NumCells() {
		p.ch.compute(costCellToPoint, m.NumCells())
		return vis.AppendCellToPoint(dst, m, data)
	}
	return nil, fmt.Errorf("rocketeer: variable %s has %d values for %d nodes / %d cells",
		field, len(data), m.NumNodes(), m.NumCells())
}

// appendGeometry computes block i's share of a pass into the aggregate: the
// scalars of its stretch of the frame's surface for a surface pass, a filter
// run appended for everything else.
func (p *snapshotPipeline) appendGeometry(agg *vis.TriSurface, op Op, i int, ns []float64, lo, hi float64) error {
	fr := &p.frame
	m := fr.meshes[i]
	switch op.Kind {
	case OpSurface:
		fr.colorSurface(i, ns)
		return nil
	case OpIso:
		iso := lo + op.IsoFrac*(hi-lo)
		return vis.AppendIsoSurface(agg, m, ns, iso, ns)
	case OpSlice:
		return vis.AppendSlicePlane(agg, m, op.plane(fr.lo, fr.hi), ns)
	case OpCut:
		return vis.AppendCutPlane(agg, m, op.plane(fr.lo, fr.hi), ns)
	}
	return fmt.Errorf("rocketeer: unknown op kind %d", int(op.Kind))
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
