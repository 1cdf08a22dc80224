package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"godiva/internal/core"
	"godiva/internal/genx"
	"godiva/internal/mesh"
	"godiva/internal/push"
	"godiva/internal/remote"
	"godiva/internal/render"
	"godiva/internal/rocketeer"
	"godiva/internal/shdf"
	"godiva/internal/vis"
)

// The layer walk pushes one snapshot of D1 through every layer's exported
// functions in the order a unit travels — shdf open/read, genx ReadBlock,
// core commit, core query, the vis operators, render draw and PNG; then
// godivad Serve, FetchFiles cold and hot, a unit through the scanner; then
// Ingest, the pushed event, and the fetch after it — timing each call from
// out here. It is the same whatever workload the run is for: it prices each
// layer per unit of work, so that a workload's end-to-end movement can be
// laid against the layer that moved. Every number is the median over the
// walk's repetitions.
type walker struct {
	spec    genx.Spec
	dir     string // a D1 dataset
	scratch string
	rec     *recorder
	samples map[string][]float64
}

func (w *walker) observe(name string, v float64) { w.samples[name] = append(w.samples[name], v) }

// span times fn as one recorded span and returns how long it took.
func (w *walker) span(name string, trace int64, parent int, fn func() error) (time.Duration, error) {
	i := w.rec.begin(name, trace, parent)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	w.rec.end(i)
	return d, err
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }

// mbPerS is payload megabytes per second.
func mbPerS(bytes int64, d time.Duration) float64 { return ratio(float64(bytes)/1e6, d.Seconds()) }

// runWalk runs the walk reps times over the dataset in dir and returns the
// walk-derived per-layer metrics.
func runWalk(env *env, sz sizes, dir string, rec *recorder) (map[string]float64, error) {
	w := &walker{
		spec: sz.spec, dir: dir, rec: rec,
		scratch: filepath.Join(env.dataDir, "walk"),
		samples: make(map[string][]float64),
	}
	if err := os.MkdirAll(w.scratch, 0o755); err != nil {
		return nil, err
	}
	srv, err := remote.Serve(remote.ServerOptions{Dir: dir})
	if err != nil {
		return nil, err
	}
	cli := remote.NewClient(remote.ClientOptions{Addr: srv.Addr(), PoolSize: 2})
	ingestSrv, err := remote.Serve(remote.ServerOptions{Dir: filepath.Join(w.scratch, "ingest"), Ingest: true})
	if err != nil {
		return nil, closeAfter(err, cli.Close, srv.Close)
	}
	ingestCli := remote.NewClient(remote.ClientOptions{Addr: ingestSrv.Addr(), PoolSize: 2})
	stop := func() error { return closeAfter(nil, ingestCli.Close, ingestSrv.Close, cli.Close, srv.Close) }

	for rep := 0; rep < sz.walkReps; rep++ {
		trace := int64(rep)
		step := rep % w.spec.Snapshots
		root := rec.begin("bench.walk", trace, -1)
		blocks, err := w.local(step, trace, root)
		if err == nil {
			err = w.fetch(cli, (step+1)%w.spec.Snapshots, trace, root)
		}
		if err == nil {
			err = w.ingest(ingestCli, blocks, rep, trace, root)
		}
		if err == nil {
			err = w.publish(trace, root)
		}
		rec.end(root)
		if err != nil {
			return nil, closeAfter(fmt.Errorf("layer walk rep %d: %w", rep, err), stop)
		}
	}
	if err := stop(); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(w.samples))
	for name, s := range w.samples {
		out[name] = median(s)
	}
	return out, os.RemoveAll(w.scratch)
}

// local walks the local read path and the compute layers for one step and
// returns the step's blocks grouped by file.
func (w *walker) local(step int, trace int64, root int) ([][]*genx.BlockData, error) {
	paths := w.spec.SnapshotFiles(w.dir, step)

	// shdf: open, read every dataset (decoded copy, then mapped view), write.
	open, read, bytes, first, err := w.readFiles(paths, "shdf.open", shdf.Open, trace, root)
	if err != nil {
		return nil, err
	}
	_, mapped, _, _, err := w.readFiles(paths, "shdf.open_mapped", shdf.OpenMapped, trace, root)
	if err != nil {
		return nil, err
	}
	w.observe("shdf.open_us_per_file", us(open)/float64(len(paths)))
	w.observe("shdf.read_mb_per_s", mbPerS(bytes, read))
	w.observe("shdf.mapped_read_mb_per_s", mbPerS(bytes, mapped))
	if err := w.writeBack(first, trace, root); err != nil {
		return nil, err
	}

	// genx: the same files through the block reader.
	reader := &genx.Reader{}
	vars := allVars()
	files := make([][]*genx.BlockData, len(paths))
	nblocks := 0
	genxTime, err := w.span("genx.read_blocks", trace, root, func() error {
		for i, path := range paths {
			h, err := reader.Open(path)
			if err != nil {
				return err
			}
			for _, e := range h.Blocks() {
				bd, err := h.ReadBlock(e, vars)
				if err != nil {
					return closeAfter(err, h.Close)
				}
				files[i] = append(files[i], bd)
				nblocks++
			}
			if err := h.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	w.observe("genx.read_block_us", us(genxTime)/float64(nblocks))
	// Computed: the block reader's time minus the shdf walk of the same
	// files, which it contains.
	w.observe("genx.read_block_self_us", us(genxTime-open-read)/float64(nblocks))

	if err := w.coreAndCompute(files, nblocks, trace, root); err != nil {
		return nil, err
	}
	return files, nil
}

// readFiles opens each file with open and reads every dataset in it. It
// returns the time spent opening, the time spent reading, the payload
// bytes read and the first file's datasets.
func (w *walker) readFiles(paths []string, spanName string, open func(string) (*shdf.File, error),
	trace int64, root int) (opening, reading time.Duration, bytes int64, first []*shdf.Dataset, err error) {
	for i, path := range paths {
		var f *shdf.File
		d, err := w.span(spanName, trace, root, func() (err error) { f, err = open(path); return })
		if err != nil {
			return 0, 0, 0, nil, err
		}
		opening += d
		d, err = w.span("shdf.read_sds", trace, root, func() error {
			for _, info := range f.Datasets() {
				ds, err := f.ReadSDS(info.Ref)
				if err != nil {
					return err
				}
				bytes += info.ByteLen
				if i == 0 {
					first = append(first, ds)
				}
			}
			return nil
		})
		reading += d
		if err = closeAfter(err, f.Close); err != nil {
			return 0, 0, 0, nil, err
		}
	}
	return opening, reading, bytes, first, nil
}

// writeBack rewrites one file's datasets through the SHDF writer.
func (w *walker) writeBack(sets []*shdf.Dataset, trace int64, root int) error {
	path := filepath.Join(w.scratch, "writeback.shdf")
	var bytes int64
	d, err := w.span("shdf.write", trace, root, func() error {
		out, err := shdf.Create(path)
		if err != nil {
			return err
		}
		for _, ds := range sets {
			var data any
			switch {
			case ds.Float64s != nil:
				data, bytes = ds.Float64s, bytes+int64(8*len(ds.Float64s))
			case ds.Int32s != nil:
				data, bytes = ds.Int32s, bytes+int64(4*len(ds.Int32s))
			case ds.Int64s != nil:
				data, bytes = ds.Int64s, bytes+int64(8*len(ds.Int64s))
			default:
				continue
			}
			if _, err := out.WriteSDS(ds.Name, ds.Dims, data); err != nil {
				return closeAfter(err, out.Close)
			}
		}
		return out.Close()
	})
	if err != nil {
		return err
	}
	w.observe("shdf.write_mb_per_s", mbPerS(bytes, d))
	return os.Remove(path)
}

// coreAndCompute commits the blocks as one unit, queries every buffer back,
// cycles empty units, and runs the vis operators and the renderer over the
// committed buffers.
func (w *walker) coreAndCompute(files [][]*genx.BlockData, nblocks int, trace int64, root int) (err error) {
	db := core.Open(core.Options{MemoryLimit: 64 << 20, BackgroundIO: true})
	defer func() { err = closeAfter(err, db.Close) }()
	if err := defineSchema(db); err != nil {
		return err
	}
	const unit = "walk"
	var commit atomic.Int64 // ns; the read function runs on core's I/O worker
	err = db.ReadUnit(unit, func(u *core.Unit) error {
		for _, blocks := range files {
			for _, bd := range blocks {
				d, err := w.span("core.commit_record", trace, root, func() error { return commitBlock(u, bd) })
				if err != nil {
					return err
				}
				commit.Add(int64(d))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	w.observe("core.commit_us_per_record", us(time.Duration(commit.Load()))/float64(nblocks))

	stepID := files[0][0].StepID
	fields := bufferFields()
	var meshes []*mesh.TetMesh
	var velocity, stress [][]float64
	queries := 0
	d, err := w.span("core.query", trace, root, func() error {
		for b := 0; b < nblocks; b++ {
			name := genx.BlockID(b)
			bufs := make(map[string]*core.Buffer, len(fields))
			for _, f := range fields {
				buf, err := db.GetFieldBuffer(recBlock, f, name, stepID)
				if err != nil {
					return err
				}
				bufs[f] = buf
				queries++
			}
			m, err := meshOf(bufs)
			if err != nil {
				return err
			}
			vel, err := bufs["velocity"].Float64s()
			if err != nil {
				return err
			}
			st, err := bufs["stress_avg"].Float64s()
			if err != nil {
				return err
			}
			meshes, velocity, stress = append(meshes, m), append(velocity, vel), append(stress, st)
		}
		return nil
	})
	if err == nil {
		w.observe("core.query_ns", ns(d)/float64(queries))
		err = w.compute(meshes, velocity, stress, trace, root)
	}
	if ferr := db.DeleteUnit(unit); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}

	const cycles = 200
	noop := func(*core.Unit) error { return nil }
	d, err = w.span("core.unit_cycle", trace, root, func() error {
		for i := 0; i < cycles; i++ {
			if err := db.AddUnit("empty", noop); err != nil {
				return err
			}
			if err := db.WaitUnit("empty"); err != nil {
				return err
			}
			if err := db.DeleteUnit("empty"); err != nil {
				return err
			}
		}
		return nil
	})
	w.observe("core.unit_cycle_us", us(d)/cycles)
	return err
}

func meshOf(bufs map[string]*core.Buffer) (*mesh.TetMesh, error) {
	coords, err := bufs["coords"].Float64s()
	if err != nil {
		return nil, err
	}
	conn, err := bufs["conn"].Int32s()
	if err != nil {
		return nil, err
	}
	gids, err := bufs["gids"].Int64s()
	if err != nil {
		return nil, err
	}
	return &mesh.TetMesh{Coords: coords, Tets: conn, GlobalNode: gids}, nil
}

// compute runs each vis operator over every block and renders the surface.
func (w *walker) compute(meshes []*mesh.TetMesh, velocity, stress [][]float64, trace int64, root int) error {
	var cells, nodes int
	var lo, hi mesh.Vec3
	for i, m := range meshes {
		cells += m.NumCells()
		nodes += m.NumNodes()
		blo, bhi := m.Bounds()
		if i == 0 {
			lo, hi = blo, bhi
		}
		lo = mesh.Vec3{X: min(lo.X, blo.X), Y: min(lo.Y, blo.Y), Z: min(lo.Z, blo.Z)}
		hi = mesh.Vec3{X: max(hi.X, bhi.X), Y: max(hi.Y, bhi.Y), Z: max(hi.Z, bhi.Z)}
	}
	mags := make([][]float64, len(meshes))
	d, _ := w.span("vis.magnitude", trace, root, func() error {
		for i := range meshes {
			mags[i] = vis.VectorMagnitude(velocity[i])
		}
		return nil
	})
	w.observe("vis.magnitude_ns_per_node", ns(d)/float64(nodes))

	points := make([][]float64, len(meshes))
	d, err := w.span("vis.cell_to_point", trace, root, func() (err error) {
		for i, m := range meshes {
			if points[i], err = vis.CellToPoint(m, stress[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	w.observe("vis.cell_to_point_ns_per_cell", ns(d)/float64(cells))

	slo, shi := vis.ScalarRange(points[0])
	for _, p := range points[1:] {
		l, h := vis.ScalarRange(p)
		slo, shi = min(slo, l), max(shi, h)
	}
	plane := vis.Plane{Origin: lo.Add(hi).Scale(0.5), Normal: mesh.Vec3{Z: 1}}
	surface := &vis.TriSurface{}
	ops := []struct {
		name string
		op   func(i int, m *mesh.TetMesh) (*vis.TriSurface, error)
	}{
		{"surface", func(i int, m *mesh.TetMesh) (*vis.TriSurface, error) {
			s, err := vis.ExtractSurface(m, mags[i])
			if err == nil {
				surface.Append(s)
			}
			return s, err
		}},
		{"iso", func(i int, m *mesh.TetMesh) (*vis.TriSurface, error) {
			return vis.IsoSurface(m, points[i], slo+0.45*(shi-slo), points[i])
		}},
		{"slice", func(i int, m *mesh.TetMesh) (*vis.TriSurface, error) { return vis.SlicePlane(m, plane, points[i]) }},
		{"cut", func(i int, m *mesh.TetMesh) (*vis.TriSurface, error) { return vis.CutPlane(m, plane, points[i]) }},
	}
	for _, op := range ops {
		d, err := w.span("vis."+op.name, trace, root, func() error {
			for i, m := range meshes {
				if _, err := op.op(i, m); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		w.observe("vis."+op.name+"_ns_per_cell", ns(d)/float64(cells))
	}

	r := render.NewRenderer(160, 120)
	mlo, mhi := vis.ScalarRange(surface.Scalars)
	d, err = w.span("render.draw_surface", trace, root, func() error {
		r.Clear()
		return r.DrawSurface(surface, render.DefaultCamera(lo, hi), render.Rainbow{}, mlo, mhi)
	})
	if err != nil {
		return err
	}
	w.observe("render.draw_ns_per_tri", ns(d)/float64(surface.NumTris()))
	png := filepath.Join(w.scratch, "walk.png")
	d, err = w.span("render.write_png", trace, root, func() error { return r.WritePNG(png) })
	w.observe("render.png_ms_per_image", ms(d))
	return err
}

// fetch walks the remote read path for one step: pings, a cold FetchFiles
// (a step the server has not encoded yet), the same again hot, and the unit
// once more through the scanner, so the trace shows read and commits.
func (w *walker) fetch(cli *remote.Client, step int, trace int64, root int) error {
	const pings = 20
	d, err := w.span("remote.ping", trace, root, func() error {
		for i := 0; i < pings; i++ {
			if err := cli.Ping(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	w.observe("remote.ping_us", us(d)/pings)

	paths := w.spec.SnapshotFiles("", step)
	for _, temp := range []string{"cold", "hot"} {
		d, err := w.span("remote.fetch_files_"+temp, trace, root, func() error {
			fps, err := cli.FetchFiles(paths, allVars())
			for _, fp := range fps {
				fp.Recycle()
			}
			return err
		})
		if err != nil {
			return err
		}
		w.observe("remote.fetch_ms_per_unit_"+temp, ms(d))
	}
	scan, err := newScanner(cli, w.spec, w.rec)
	if err != nil {
		return err
	}
	_, _, err = scan.pass([]int{step}, false, trace)
	return closeAfter(err, scan.close)
}

// ingest walks the write path: a subscriber is listening, the step's files
// are ingested, their events arrive, and the files are fetched back.
func (w *walker) ingest(cli *remote.Client, files [][]*genx.BlockData, step int, trace int64, root int) error {
	sub, err := cli.Subscribe(push.Spec{ToStep: -1}, push.Options{Policy: push.Block})
	if err != nil {
		return err
	}
	defer sub.Close()
	stepID := w.spec.StepID(step)
	d, err := w.span("remote.ingest", trace, root, func() error {
		for f, blocks := range files {
			fp := &remote.FilePayload{Time: float64(step+1) * w.spec.DT, StepID: stepID, Blocks: blocks}
			if err := cli.Ingest(genx.SnapshotFile("", step, f), fp); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	w.observe("remote.ingest_ms_per_file", ms(d)/float64(len(files)))
	_, err = w.span("push.events", trace, root, func() error {
		for range files {
			select {
			case _, ok := <-sub.Events():
				if !ok {
					return fmt.Errorf("subscription ended: %w", sub.Err())
				}
			case <-time.After(10 * time.Second):
				return fmt.Errorf("no event for an ingested file within 10s")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	d, err = w.span("remote.fetch_after_ingest", trace, root, func() error {
		fps, err := cli.FetchFiles(w.spec.SnapshotFiles("", step), allVars())
		for _, fp := range fps {
			fp.Recycle()
		}
		return err
	})
	w.observe("remote.fetch_after_ingest_ms", ms(d))
	return err
}

// publish prices the push layer alone: one subscriber blocked in Next, one
// event at a time, so delivery is the registry's wake-up latency rather
// than a queue's depth.
func (w *walker) publish(trace int64, root int) error {
	const events = 200
	reg := push.NewRegistry()
	sub, err := reg.Subscribe(push.Spec{ToStep: -1}, push.Options{Policy: push.Block})
	if err != nil {
		return err
	}
	arrived := make(chan time.Duration)
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		defer close(arrived)
		for {
			ev, ok := sub.Next()
			if !ok {
				return
			}
			arrived <- time.Since(ev.Created)
		}
	}()
	var publish time.Duration
	var delivery []float64
	_, err = w.span("push.publish", trace, root, func() error {
		for i := 0; i < events; i++ {
			t0 := time.Now()
			if _, err := reg.Publish(push.Event{Step: i, Created: t0}); err != nil {
				return err
			}
			publish += time.Since(t0)
			delivery = append(delivery, ms(<-arrived))
		}
		return nil
	})
	reg.Close()
	for range arrived {
	}
	consumer.Wait()
	if err != nil {
		return err
	}
	w.observe("push.publish_us", us(publish)/events)
	w.observe("push.delivery_ms_p50", median(delivery))
	return nil
}

// buildTriple runs the paper's Fig. 3 triple at native speed — the original
// Voyager (O, the plain single-threaded baseline), the single-thread
// library (G) and the multi-thread library (TG) — over the first snaps
// snapshots and reports each build's compute and visible I/O per snapshot.
func buildTriple(sz sizes, dir string, rec *recorder) (map[string]float64, error) {
	test, _ := rocketeer.TestByName("medium")
	snaps := min(sz.tripleSnaps, sz.spec.Snapshots)
	out := make(map[string]float64)
	for i, v := range []rocketeer.Version{rocketeer.VersionO, rocketeer.VersionG, rocketeer.VersionTG} {
		span := rec.begin("rocketeer.run_"+string(v), int64(i), -1)
		res, err := rocketeer.Run(v, rocketeer.Config{
			Test: test, Spec: sz.spec, Dir: dir, MemoryLimit: 48 << 20, Snapshots: snaps,
		})
		rec.end(span)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", v, err)
		}
		suffix := map[rocketeer.Version]string{"O": ".o", "G": ".g", "TG": ".tg"}[v]
		out["rocketeer.compute_ms_per_snapshot"+suffix] = ms(res.Compute) / float64(snaps)
		out["rocketeer.visible_io_ms_per_snapshot"+suffix] = ms(res.VisibleIO) / float64(snaps)
	}
	return out, nil
}
