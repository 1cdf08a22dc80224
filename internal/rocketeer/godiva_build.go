package rocketeer

import (
	"errors"
	"fmt"

	"godiva/internal/core"
	"godiva/internal/genx"
	"godiva/internal/mesh"
	"godiva/internal/remote"
	"godiva/internal/zerocopy"
)

// Names of the GODIVA schema Voyager uses: one record per block per
// snapshot, keyed by block ID and time-step ID exactly as the paper's
// Table 1 keys its fluid records.
const (
	recBlock   = "block"
	fieldBlock = "block id"
	fieldStep  = "time-step id"
	// fieldSurface holds data derived from the block rather than read from
	// it: the block's boundary triangles as local node-index triples, in
	// mesh.AppendBoundaryFaces order. The unit's read function fills it when
	// its test has a surface pass, so the topology is built once per
	// snapshot, off the main thread in the TG build, and lives and dies with
	// the unit like any other buffer.
	fieldSurface = "surface"
)

// defineSchema defines the block record type: two string key fields plus a
// buffer field for every dataset the GENx files can hold and one for the
// derived surface (only the fields a test reads are ever allocated; UNKNOWN
// sizes are resolved per block).
func defineSchema(db *core.DB) error {
	if err := db.DefineField(fieldBlock, core.String, 11); err != nil {
		return err
	}
	if err := db.DefineField(fieldStep, core.String, 9); err != nil {
		return err
	}
	if err := db.DefineField("coords", core.Float64, core.Unknown); err != nil {
		return err
	}
	if err := db.DefineField("conn", core.Int32, core.Unknown); err != nil {
		return err
	}
	if err := db.DefineField("gids", core.Int64, core.Unknown); err != nil {
		return err
	}
	if err := db.DefineField(fieldSurface, core.Int32, core.Unknown); err != nil {
		return err
	}
	for _, v := range genx.NodeVectorFields {
		if err := db.DefineField(v, core.Float64, core.Unknown); err != nil {
			return err
		}
	}
	for _, v := range genx.ElemScalarFields {
		if err := db.DefineField(v, core.Float64, core.Unknown); err != nil {
			return err
		}
	}
	if err := db.DefineRecordType(recBlock, 2); err != nil {
		return err
	}
	fields := []struct {
		name string
		key  bool
	}{{fieldBlock, true}, {fieldStep, true}, {"coords", false}, {"conn", false}, {"gids", false}, {fieldSurface, false}}
	for _, v := range genx.NodeVectorFields {
		fields = append(fields, struct {
			name string
			key  bool
		}{v, false})
	}
	for _, v := range genx.ElemScalarFields {
		fields = append(fields, struct {
			name string
			key  bool
		}{v, false})
	}
	for _, f := range fields {
		if err := db.InsertField(recBlock, f.name, f.key); err != nil {
			return err
		}
	}
	return db.CommitRecordType(recBlock)
}

// unitName names a snapshot's processing unit. The whole snapshot (all of
// its files) is one unit, the granularity the paper's Voyager chose.
func unitName(step int) string { return fmt.Sprintf("snap_%04d", step) }

// fileUnitName names a single snapshot file's unit (the finer granularity
// of Config.UnitPerFile).
func fileUnitName(step, file int) string { return fmt.Sprintf("snap_%04d_f%02d", step, file) }

// orderedVars sorts variables into the file layout order (node vectors then
// element scalars, catalog order), so one pass over a unit's files reads
// sequentially with no back-seeks — the access pattern a unit read function
// naturally has.
func orderedVars(vars []string) []string {
	want := map[string]bool{}
	for _, v := range vars {
		want[v] = true
	}
	out := make([]string, 0, len(vars))
	for _, v := range genx.NodeVectorFields {
		if want[v] {
			out = append(out, v)
		}
	}
	for _, v := range genx.ElemScalarFields {
		if want[v] {
			out = append(out, v)
		}
	}
	return out
}

// unitPaths resolves a unit name back into the snapshot file(s) holding its
// data, rooted at dir ("" yields paths in a godivad server's namespace).
func unitPaths(spec genx.Spec, dir, unit string) ([]string, error) {
	var step, file int
	if n, _ := fmt.Sscanf(unit, "snap_%d_f%d", &step, &file); n == 2 {
		return []string{genx.SnapshotFile(dir, step, file)}, nil
	}
	if n, _ := fmt.Sscanf(unit, "snap_%d", &step); n == 1 {
		return spec.SnapshotFiles(dir, step), nil
	}
	return nil, fmt.Errorf("rocketeer: bad unit name %q", unit)
}

// makeReadFunc builds the developer-supplied read function: it parses the
// unit name back into a snapshot (or snapshot-file) index — the paper
// passes the unit name to the read function for exactly this — reads every
// block of the unit's files, and commits one record per block into the
// database. With Config.Remote the same units are fetched from a godivad
// server instead of local files; the worker pool, deadlock accounting and
// cache behave identically either way.
//
// A local unit keeps its files open for as long as it is resident: each
// handle's Close is the unit's release hook, so the datasets it read — with
// a Mapped reader, views of the file's mapping — are committed by reference
// and the database drops them and releases the file together, on every
// path out (deletion, eviction, a failed or deadlocked read, Close). A
// Mapped reader keeps a released file mapped, idle, for the next unit that
// reads it, until the reader is closed.
func makeReadFunc(cfg Config, reader *genx.Reader) core.ReadFunc {
	vars := orderedVars(cfg.Test.Vars)
	if cfg.Remote != nil {
		resolve := func(unit string) ([]string, error) {
			return unitPaths(cfg.Spec, "", unit)
		}
		return remote.NewReadFunc(cfg.Remote, resolve, vars, blockCommitter(cfg.Test, false))
	}
	commit := blockCommitter(cfg.Test, true)
	return func(u *core.Unit) error {
		paths, err := unitPaths(cfg.Spec, cfg.Dir, u.Name())
		if err != nil {
			return err
		}
		for _, path := range paths {
			h, err := reader.Open(path)
			if err != nil {
				return err
			}
			// The file was only read and a hook has no caller to tell.
			u.OnRelease(func() { _ = h.Close() })
			for _, e := range h.Blocks() {
				bd, err := h.ReadBlock(e, vars)
				if err != nil {
					return err
				}
				if err := commit(u, bd); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// blockCommitter returns the commit callback every read function of a run
// shares — local files, godivad fetches and followed streams alike: it
// stores one block's datasets as a GODIVA record and, when the test has a
// surface pass, the block's surface topology beside them (see fieldSurface).
// A test without one — an interactive session cannot know its views in
// advance — commits no derived data, and gSource.Surface builds on demand.
//
// borrow says bd's arrays live as long as the unit — a local read, whose
// files close with the unit — so the record's buffers are those arrays,
// adopted by Record.BorrowFieldBuffer instead of copied. A fetched block's
// arrays alias a frame the remote client recycles once the file is
// committed, so remote and followed units copy. The derived surface is a
// fresh heap slice nobody else holds and is borrowed from every source.
func blockCommitter(test VisTest, borrow bool) remote.CommitFunc {
	surface := false
	for _, op := range test.Ops {
		surface = surface || op.Kind == OpSurface
	}
	return func(u *core.Unit, bd *genx.BlockData) error {
		rec, err := u.NewRecord(recBlock)
		if err != nil {
			return err
		}
		if err := rec.SetString(fieldBlock, bd.Name); err != nil {
			return err
		}
		if err := rec.SetString(fieldStep, bd.StepID); err != nil {
			return err
		}
		if err := fillFloat64(rec, "coords", bd.Mesh.Coords, borrow); err != nil {
			return err
		}
		if err := fillInt32(rec, "conn", bd.Mesh.Tets, borrow); err != nil {
			return err
		}
		if err := fillInt64(rec, "gids", bd.Mesh.GlobalNode, borrow); err != nil {
			return err
		}
		for name, data := range bd.Node {
			if err := fillFloat64(rec, name, data, borrow); err != nil {
				return err
			}
		}
		for name, data := range bd.Elem {
			if err := fillFloat64(rec, name, data, borrow); err != nil {
				return err
			}
		}
		if surface {
			if err := fillInt32(rec, fieldSurface, bd.Mesh.AppendBoundaryFaces(nil), true); err != nil {
				return err
			}
		}
		return u.DB().CommitRecord(rec)
	}
}

// fillFloat64, fillInt32 and fillInt64 make data field's buffer: data itself
// when borrow is set and the host can view it in the files' little-endian
// byte order, a copy otherwise. Either way the buffer is charged the same
// bytes.
func fillFloat64(rec *core.Record, field string, data []float64, borrow bool) error {
	if raw, ok := zerocopy.BytesOfF64s(data); borrow && ok {
		_, err := rec.BorrowFieldBuffer(field, raw)
		return err
	}
	buf, err := rec.AllocFieldBuffer(field, 8*len(data))
	if err != nil {
		return err
	}
	dst, err := buf.Float64s()
	if err != nil {
		return err
	}
	copy(dst, data)
	return nil
}

func fillInt32(rec *core.Record, field string, data []int32, borrow bool) error {
	if raw, ok := zerocopy.BytesOfI32s(data); borrow && ok {
		_, err := rec.BorrowFieldBuffer(field, raw)
		return err
	}
	buf, err := rec.AllocFieldBuffer(field, 4*len(data))
	if err != nil {
		return err
	}
	dst, err := buf.Int32s()
	if err != nil {
		return err
	}
	copy(dst, data)
	return nil
}

func fillInt64(rec *core.Record, field string, data []int64, borrow bool) error {
	if raw, ok := zerocopy.BytesOfI64s(data); borrow && ok {
		_, err := rec.BorrowFieldBuffer(field, raw)
		return err
	}
	buf, err := rec.AllocFieldBuffer(field, 8*len(data))
	if err != nil {
		return err
	}
	dst, err := buf.Int64s()
	if err != nil {
		return err
	}
	copy(dst, data)
	return nil
}

// gSource answers the pipeline from GODIVA buffers: the mesh and variables
// are fetched by key query and used in place — no copies, no re-reads.
type gSource struct {
	db     *core.DB
	names  []string
	stepID string
}

func (s *gSource) BlockNames() []string { return s.names }

func (s *gSource) Mesh(name string) (*mesh.TetMesh, error) {
	coordsBuf, err := s.db.GetFieldBuffer(recBlock, "coords", name, s.stepID)
	if err != nil {
		return nil, err
	}
	coords, err := coordsBuf.Float64s()
	if err != nil {
		return nil, err
	}
	connBuf, err := s.db.GetFieldBuffer(recBlock, "conn", name, s.stepID)
	if err != nil {
		return nil, err
	}
	conn, err := connBuf.Int32s()
	if err != nil {
		return nil, err
	}
	gidsBuf, err := s.db.GetFieldBuffer(recBlock, "gids", name, s.stepID)
	if err != nil {
		return nil, err
	}
	gids, err := gidsBuf.Int64s()
	if err != nil {
		return nil, err
	}
	return &mesh.TetMesh{Coords: coords, Tets: conn, GlobalNode: gids}, nil
}

func (s *gSource) Var(name, field string) ([]float64, error) {
	buf, err := s.db.GetFieldBuffer(recBlock, field, name, s.stepID)
	if err != nil {
		return nil, err
	}
	return buf.Float64s()
}

// Surface answers from the derived field the unit's read function filled;
// when that read function had no surface pass to prepare for (a session's),
// the field is unallocated and the topology is built here, for this view.
func (s *gSource) Surface(name string, m *mesh.TetMesh) ([]int32, error) {
	buf, err := s.db.GetFieldBuffer(recBlock, fieldSurface, name, s.stepID)
	if errors.Is(err, core.ErrNoBuffer) {
		return m.AppendBoundaryFaces(nil), nil
	}
	if err != nil {
		return nil, err
	}
	return buf.Int32s()
}

// runGodiva is the GODIVA-based Voyager: all units are added up front and
// processed in order, each deleted after its images are made (the paper's
// batch-mode pattern). background selects the multi-thread library (TG)
// over the single-thread one (G).
func runGodiva(cfg Config, background bool) (*Result, error) {
	// The paper-reproduction runs pin the pool to the paper's single I/O
	// thread (IOWorkers zero); it is ignored in the single-thread (G) build.
	workers := cfg.IOWorkers
	if workers < 1 {
		workers = 1
	}
	// Deferred first, so it runs after the database has released every unit.
	reader := &genx.Reader{M: cfg.Machine, VolumeScale: cfg.VolumeScale, Mapped: true}
	defer reader.Close()
	opts := core.Options{
		MemoryLimit:  cfg.memoryLimit(),
		BackgroundIO: background,
		IOWorkers:    workers,
		TraceUnits:   cfg.TraceUnits,
	}
	if cfg.Machine != nil {
		// Set only with a machine: a nil *Machine would be a non-nil Clock.
		opts.Clock = cfg.Machine
	}
	db := core.Open(opts)
	defer db.Close()
	if cfg.Remote != nil {
		db.RegisterStatsSource("remote", func() any { return cfg.Remote.Stats() })
	}
	if err := defineSchema(db); err != nil {
		return nil, err
	}
	readFn := makeReadFunc(cfg, reader)
	// snapUnits lists the unit(s) making up one snapshot: the whole
	// snapshot by default, or one unit per file at the finer granularity.
	snapUnits := func(s int) []string {
		if !cfg.UnitPerFile {
			return []string{unitName(s)}
		}
		units := make([]string, cfg.Spec.FilesPerSnapshot)
		for f := range units {
			units[f] = fileUnitName(s, f)
		}
		return units
	}
	nsnap := cfg.snapshots()
	for i := 0; i < nsnap; i++ {
		for _, name := range snapUnits(cfg.FirstSnapshot + i) {
			if err := db.AddUnit(name, readFn); err != nil {
				return nil, err
			}
		}
	}
	res := &Result{}
	names := make([]string, cfg.Spec.Blocks)
	for b := range names {
		names[b] = genx.BlockID(b)
	}
	p := cfg.newPipeline()
	for i := 0; i < nsnap; i++ {
		s := cfg.FirstSnapshot + i
		units := snapUnits(s)
		for _, name := range units {
			if err := db.WaitUnit(name); err != nil {
				return nil, err
			}
		}
		src := &gSource{db: db, names: names, stepID: cfg.Spec.StepID(s)}
		p.snapID = fmt.Sprintf("t%04d", s)
		if err := p.run(src); err != nil {
			return nil, fmt.Errorf("snapshot %d: %w", s, err)
		}
		for _, name := range units {
			if err := db.DeleteUnit(name); err != nil {
				return nil, err
			}
		}
	}
	res.Images = p.images
	res.DB = db.Stats()
	res.Events = db.UnitEvents()
	res.VisibleIO = res.DB.VisibleWait
	return res, nil
}
