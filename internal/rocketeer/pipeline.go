package rocketeer

import (
	"fmt"
	"os"
	"path/filepath"

	"godiva/internal/mesh"
	"godiva/internal/render"
	"godiva/internal/vis"
)

// blockSource yields one snapshot's per-block data to the pipeline. The O
// build reads from files on demand (re-reading coordinates every pass); the
// GODIVA builds answer from database buffers.
type blockSource interface {
	// BlockNames lists the snapshot's blocks in processing order.
	BlockNames() []string
	// Mesh returns a block's mesh. The pipeline calls it once per pass per
	// block, which is exactly where the original Voyager re-reads.
	Mesh(name string) (*mesh.TetMesh, error)
	// Var returns a block's variable: a flattened node vector or an
	// element scalar.
	Var(name, field string) ([]float64, error)
	// Surface returns a block's boundary triangles as node-index triples
	// into its mesh (mesh.AppendBoundaryFaces). The pipeline calls it once
	// per surface pass per block; the topology is the same in every pass of
	// a snapshot, so sources keep it rather than rebuild it.
	Surface(name string) ([]int32, error)
}

// snapshotPipeline runs every pass of a test on one snapshot and renders one
// image per pass.
type snapshotPipeline struct {
	test     VisTest
	ch       charger
	renderer *render.Renderer
	lut      render.LUT
	imageDir string
	snapID   string
	images   int
}

func (p *snapshotPipeline) run(src blockSource) error {
	for oi, op := range p.test.Ops {
		if err := p.runOp(src, oi, op); err != nil {
			return fmt.Errorf("pass %d (%v %s): %w", oi, op.Kind, op.Var, err)
		}
	}
	return nil
}

// runOp executes one pass: fetch each block's mesh and variable (and, for a
// surface pass, its surface topology), derive the node scalar, compute the
// pass geometry per block, then render the aggregate.
func (p *snapshotPipeline) runOp(src blockSource, oi int, op Op) error {
	names := src.BlockNames()
	meshes := make([]*mesh.TetMesh, len(names))
	scalars := make([][]float64, len(names))
	surfaces := make([][]int32, len(names)) // surface passes only
	surfTris, surfVerts := 0, 0
	var lo, hi float64
	var boundsLo, boundsHi mesh.Vec3
	first := true
	for i, name := range names {
		m, err := src.Mesh(name)
		if err != nil {
			return fmt.Errorf("block %s mesh: %w", name, err)
		}
		data, err := src.Var(name, op.Var)
		if err != nil {
			return fmt.Errorf("block %s %s: %w", name, op.Var, err)
		}
		ns, err := p.nodeScalar(m, op.Var, data)
		if err != nil {
			return err
		}
		meshes[i], scalars[i] = m, ns
		if op.Kind == OpSurface {
			// Building topology (the O build, once per snapshot; a session
			// view) is pipeline work like the geometry below.
			p.ch.occupy(func() { surfaces[i], err = src.Surface(name) })
			if err != nil {
				return fmt.Errorf("block %s surface: %w", name, err)
			}
			surfTris += len(surfaces[i]) / 3
			surfVerts += min(len(surfaces[i]), m.NumNodes())
		}
		blo, bhi := m.Bounds()
		slo, shi := vis.ScalarRange(ns)
		if first {
			lo, hi = slo, shi
			boundsLo, boundsHi = blo, bhi
			first = false
			continue
		}
		lo = minf(lo, slo)
		hi = maxf(hi, shi)
		boundsLo = mesh.Vec3{X: minf(boundsLo.X, blo.X), Y: minf(boundsLo.Y, blo.Y), Z: minf(boundsLo.Z, blo.Z)}
		boundsHi = mesh.Vec3{X: maxf(boundsHi.X, bhi.X), Y: maxf(boundsHi.Y, bhi.Y), Z: maxf(boundsHi.Z, bhi.Z)}
	}

	agg := &vis.TriSurface{}
	if op.Kind == OpSurface { // a surface pass knows its size before it runs
		agg.Tris = make([]int32, 0, 3*surfTris)
		agg.Coords = make([]float64, 0, 3*surfVerts)
		agg.Scalars = make([]float64, 0, surfVerts)
	}
	for i := range meshes {
		var err error
		p.ch.occupy(func() {
			err = p.appendGeometry(agg, op, meshes[i], scalars[i], surfaces[i], lo, hi, boundsLo, boundsHi)
		})
		if err != nil {
			return err
		}
		p.ch.compute(opCellCost(op.Kind), meshes[i].NumCells())
	}

	cam := render.DefaultCamera(boundsLo, boundsHi)
	var drawErr error
	p.ch.occupy(func() {
		p.renderer.Clear()
		drawErr = p.renderer.DrawSurface(agg, cam, p.lut, lo, hi)
	})
	if drawErr != nil {
		return drawErr
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

// nodeScalar reduces a variable to a per-node scalar: vector magnitude for
// node vectors, cell-to-point averaging for element scalars.
func (p *snapshotPipeline) nodeScalar(m *mesh.TetMesh, field string, data []float64) ([]float64, error) {
	if len(data) == 3*m.NumNodes() {
		var out []float64
		p.ch.occupy(func() { out = vis.VectorMagnitude(data) })
		p.ch.compute(costMagnitude, m.NumNodes())
		return out, nil
	}
	if len(data) == m.NumCells() {
		var out []float64
		var err error
		p.ch.occupy(func() { out, err = vis.CellToPoint(m, data) })
		p.ch.compute(costCellToPoint, m.NumCells())
		return out, err
	}
	return nil, fmt.Errorf("rocketeer: variable %s has %d values for %d nodes / %d cells",
		field, len(data), m.NumNodes(), m.NumCells())
}

// appendGeometry computes one block's share of a pass and appends it to the
// aggregate: a gather over the stored topology for surfaces, a filter run
// for everything else.
func (p *snapshotPipeline) appendGeometry(agg *vis.TriSurface, op Op, m *mesh.TetMesh, ns []float64, surface []int32, lo, hi float64, blo, bhi mesh.Vec3) error {
	var part *vis.TriSurface
	var err error
	switch op.Kind {
	case OpSurface:
		return agg.AppendSurface(m, surface, ns)
	case OpIso:
		iso := lo + op.IsoFrac*(hi-lo)
		part, err = vis.IsoSurface(m, ns, iso, ns)
	case OpSlice:
		part, err = vis.SlicePlane(m, op.plane(blo, bhi), ns)
	case OpCut:
		part, err = vis.CutPlane(m, op.plane(blo, bhi), ns)
	default:
		return fmt.Errorf("rocketeer: unknown op kind %d", int(op.Kind))
	}
	if err != nil {
		return err
	}
	agg.Append(part)
	return nil
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
