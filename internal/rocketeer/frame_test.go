package rocketeer

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"godiva/internal/genx"
	"godiva/internal/mesh"
	"godiva/internal/render"
	"godiva/internal/vis"
)

// perPassPNG renders one pass over one snapshot the way the pipeline did
// before it kept a frame: nothing carried from any other pass — each block's
// surface extracted with the pass's scalars, appended, and drawn into a new
// renderer. It is the reference the frame's images are compared with.
func perPassPNG(t *testing.T, spec genx.Spec, dir string, step int, op Op, w, h int) []byte {
	t.Helper()
	blocks := map[string]*genx.BlockData{}
	reader := &genx.Reader{}
	for _, path := range spec.SnapshotFiles(dir, step) {
		fh, err := reader.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range fh.Blocks() {
			bd, err := fh.ReadBlock(e, []string{op.Var})
			if err != nil {
				t.Fatal(err)
			}
			blocks[bd.Name] = bd
		}
		if err := fh.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var (
		meshes         []*mesh.TetMesh
		scalars        [][]float64
		lo, hi         float64
		boundLo, bound mesh.Vec3
	)
	for b := 0; b < spec.Blocks; b++ {
		bd := blocks[genx.BlockID(b)]
		var ns []float64
		if data, ok := bd.Node[op.Var]; ok {
			ns = vis.VectorMagnitude(data)
		} else {
			var err error
			if ns, err = vis.CellToPoint(bd.Mesh, bd.Elem[op.Var]); err != nil {
				t.Fatal(err)
			}
		}
		meshes, scalars = append(meshes, bd.Mesh), append(scalars, ns)
		blo, bhi := bd.Mesh.Bounds()
		slo, shi := vis.ScalarRange(ns)
		if b == 0 {
			lo, hi, boundLo, bound = slo, shi, blo, bhi
			continue
		}
		lo, hi = minf(lo, slo), maxf(hi, shi)
		boundLo = mesh.Vec3{X: minf(boundLo.X, blo.X), Y: minf(boundLo.Y, blo.Y), Z: minf(boundLo.Z, blo.Z)}
		bound = mesh.Vec3{X: maxf(bound.X, bhi.X), Y: maxf(bound.Y, bhi.Y), Z: maxf(bound.Z, bhi.Z)}
	}
	agg := &vis.TriSurface{}
	for i, m := range meshes {
		var part *vis.TriSurface
		var err error
		switch op.Kind {
		case OpSurface:
			part, err = vis.ExtractSurface(m, scalars[i])
		case OpIso:
			part, err = vis.IsoSurface(m, scalars[i], lo+op.IsoFrac*(hi-lo), scalars[i])
		case OpSlice:
			part, err = vis.SlicePlane(m, op.plane(boundLo, bound), scalars[i])
		case OpCut:
			part, err = vis.CutPlane(m, op.plane(boundLo, bound), scalars[i])
		}
		if err != nil {
			t.Fatal(err)
		}
		agg.Append(part)
	}
	r := render.NewRenderer(w, h)
	if err := r.DrawSurface(agg, render.DefaultCamera(boundLo, bound), render.Rainbow{}, lo, hi); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pass.png")
	if err := r.WritePNG(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A snapshot's surface passes share one frame and, while nothing else is
// drawn between them, one rasterization; every image is still the one its
// pass would draw alone. The test interleaves kinds, so the second surface
// pass finds the frame but not the fragments, and the third recolors.
func TestFrameMatchesPerPassDrawing(t *testing.T) {
	spec, dir := testDataset(t)
	test := VisTest{
		Name: "mixed",
		Vars: []string{"velocity", "stress_avg", "temperature"},
		Ops: []Op{
			{Kind: OpSlice, Var: "temperature", PlaneFrac: 0.4},
			{Kind: OpSurface, Var: "velocity"},
			{Kind: OpIso, Var: "stress_avg", IsoFrac: 0.5},
			{Kind: OpSurface, Var: "stress_avg"},
			{Kind: OpSurface, Var: "temperature"},
			{Kind: OpCut, Var: "stress_avg", PlaneFrac: 0.5},
			{Kind: OpSurface, Var: "velocity"},
		},
	}
	const w, h = 64, 48
	want := map[string][]byte{}
	for s := 0; s < spec.Snapshots; s++ {
		for oi, op := range test.Ops {
			name := fmt.Sprintf("mixed_t%04d_%02d_%s_%s.png", s, oi, op.Kind, op.Var)
			want[name] = perPassPNG(t, spec, dir, s, op, w, h)
		}
	}
	if bytes.Equal(want["mixed_t0000_01_surface_velocity.png"], want["mixed_t0000_03_surface_stress_avg.png"]) ||
		bytes.Equal(want["mixed_t0000_01_surface_velocity.png"], want["mixed_t0001_01_surface_velocity.png"]) {
		t.Fatal("reference images do not differ across variables and snapshots")
	}
	for _, c := range []struct {
		name string
		v    Version
		cfg  Config
	}{
		{"O", VersionO, Config{}},
		{"TG", VersionTG, Config{}},
		{"TG, a unit per file", VersionTG, Config{UnitPerFile: true}},
	} {
		cfg := c.cfg
		cfg.Test, cfg.Spec, cfg.Dir = test, spec, dir
		cfg.ImageDir, cfg.Width, cfg.Height = t.TempDir(), w, h
		res, err := Run(c.v, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := pngsIn(t, cfg.ImageDir)
		if res.Images != len(want) || len(got) != len(want) {
			t.Fatalf("%s: %d images reported, %d written, want %d", c.name, res.Images, len(got), len(want))
		}
		for name, data := range want {
			if !bytes.Equal(got[name], data) {
				t.Errorf("%s: %s differs from the pass drawn on its own", c.name, name)
			}
		}
	}
}

// countingSource counts what the pipeline asks of a block source.
type countingSource struct {
	blockSource
	meshes, surfaces, vars int
}

func (c *countingSource) Mesh(name string) (*mesh.TetMesh, error) {
	c.meshes++
	return c.blockSource.Mesh(name)
}

func (c *countingSource) Surface(name string, m *mesh.TetMesh) ([]int32, error) {
	c.surfaces++
	return c.blockSource.Surface(name, m)
}

func (c *countingSource) Var(name, field string) ([]float64, error) {
	c.vars++
	return c.blockSource.Var(name, field)
}

// The frame is per snapshot: however many passes, the pipeline asks the
// source for each block's mesh once and for its surface once (not at all
// without a surface pass), and lets go of both when the snapshot is done.
func TestFrameAsksSourceOncePerSnapshot(t *testing.T) {
	spec, dir := testDataset(t)
	for _, c := range []struct {
		test     string
		surfaces int
	}{{"medium", spec.Blocks}, {"complex", spec.Blocks}, {"slices", 0}} {
		test, ok := TestByName(c.test)
		if !ok {
			test = VisTest{Name: c.test, Vars: []string{"stress_avg"}, Ops: []Op{
				{Kind: OpSlice, Var: "stress_avg", PlaneFrac: 0.3}, {Kind: OpCut, Var: "stress_avg", PlaneFrac: 0.6}}}
		}
		cfg := Config{Test: test, Spec: spec, Dir: dir, Width: 32, Height: 24}
		p := cfg.newPipeline()
		for step := 0; step < 2; step++ {
			var ioWall time.Duration
			o, err := openOSource(&genx.Reader{}, cfg, step, &ioWall)
			if err != nil {
				t.Fatal(err)
			}
			src := &countingSource{blockSource: o}
			err = p.run(src)
			o.Close()
			if err != nil {
				t.Fatal(err)
			}
			if src.meshes != spec.Blocks || src.surfaces != c.surfaces || src.vars != spec.Blocks*len(test.Ops) {
				t.Errorf("%s, snapshot %d: %d Mesh, %d Surface and %d Var calls for %d blocks and %d passes",
					c.test, step, src.meshes, src.surfaces, src.vars, spec.Blocks, len(test.Ops))
			}
			if fr := &p.frame; len(fr.meshes) != 0 || fr.surf.NumVerts() != 0 || fr.surf.Scalars != nil || fr.drawn {
				t.Errorf("%s, snapshot %d: the frame outlived its snapshot", c.test, step)
			}
		}
		if want := 2 * len(test.Ops); p.images != want {
			t.Errorf("%s: %d images, want %d", c.test, p.images, want)
		}
	}
}
