package rocketeer

import (
	"fmt"
	"time"

	"godiva/internal/core"
	"godiva/internal/genx"
	"godiva/internal/mesh"
	"godiva/internal/platform"
	"godiva/internal/remote"
	"godiva/internal/render"
)

// Version selects one of the evaluation's Voyager builds.
type Version string

// The builds compared in §4.2. TG1 and TG2 are the multi-thread build run
// with and without a competing compute-intensive process; the competition is
// configured separately (Config.CompetingLoad) so "TG" plus the flag covers
// both.
const (
	VersionO  Version = "O"  // original: coupled reading and processing
	VersionG  Version = "G"  // single-thread GODIVA library
	VersionTG Version = "TG" // multi-thread GODIVA library (background I/O)
)

// Config configures one Voyager run.
type Config struct {
	// Test is the visualization test to run.
	Test VisTest
	// Spec describes the dataset in Dir.
	Spec genx.Spec
	// Dir holds the snapshot files (written by genx.WriteDataset).
	Dir string
	// Machine, when set, runs the build on a simulated platform, charging
	// it all I/O and computation and timing the run in its virtual time;
	// when nil the run executes at native speed with no cost model (used
	// by examples and the CLI).
	Machine *platform.Machine
	// VolumeScale scales charged data volumes and primitive counts up to
	// the paper's full-scale dataset when running on a reduced one.
	VolumeScale float64
	// MemoryLimit is the GODIVA database memory cap in (actual) bytes. The
	// paper configures 384 MB; reduced-volume runs scale it down by
	// VolumeScale to preserve the prefetch-depth regime. Zero selects that
	// scaled default.
	MemoryLimit int64
	// FirstSnapshot is the first snapshot index to process; parallel runs
	// give each Voyager process its own range, as the paper's parallel
	// Voyager "assigns different processors different snapshots".
	FirstSnapshot int
	// Snapshots caps how many snapshots are processed (0 = all remaining).
	Snapshots int
	// CompetingLoad runs a compute-intensive process alongside Voyager for
	// the whole run: the paper's TG1 configuration.
	CompetingLoad bool
	// TraceUnits enables the GODIVA unit event log; the transitions are
	// returned in Result.Events.
	TraceUnits bool
	// UnitPerFile makes each snapshot file its own processing unit instead
	// of grouping a whole snapshot into one unit — the finer prefetch
	// granularity the paper's §3.2 describes as an alternative. Only
	// meaningful for the GODIVA builds.
	UnitPerFile bool
	// IOWorkers sizes the background I/O worker pool of the TG build. Zero
	// keeps the paper's single I/O thread; the paper-reproduction
	// experiments leave it zero for exactly that reason.
	IOWorkers int
	// Remote, when set, makes the GODIVA builds fetch unit data from a
	// godivad server instead of opening local SHDF files: Dir is ignored
	// and snapshot files are resolved in the server's namespace. Remote
	// runs execute at native speed — combining Remote with Machine is an
	// error, since platform simulation models a local disk.
	Remote *remote.Client
	// ImageDir, when non-empty, receives one PNG per pass per snapshot.
	ImageDir string
	// Width and Height size rendered images (default 160x120).
	Width, Height int
}

func (c *Config) snapshots() int {
	avail := c.Spec.Snapshots - c.FirstSnapshot
	if avail < 0 {
		avail = 0
	}
	if c.Snapshots > 0 && c.Snapshots < avail {
		return c.Snapshots
	}
	return avail
}

func (c *Config) memoryLimit() int64 {
	if c.MemoryLimit > 0 {
		return c.MemoryLimit
	}
	scale := c.VolumeScale
	if scale < 1 {
		scale = 1
	}
	return int64(384e6 / scale)
}

// Result reports one run's metrics in virtual time (native time when no
// machine was configured): the paper's total execution time, visible I/O
// time (blocking reads plus unit waits) and computation time (their
// difference).
type Result struct {
	Version   Version
	Test      string
	Total     time.Duration
	VisibleIO time.Duration
	Compute   time.Duration
	Disk      platform.DiskStats // simulated disk activity of this run
	Images    int
	DB        core.Stats // zero for the O build
	// Events holds the unit state-transition log when Config.TraceUnits
	// was set (GODIVA builds only).
	Events []core.UnitEvent
}

// Run executes one Voyager run and reports its metrics. With a Machine the
// whole run — the build, its I/O workers and the competing load — runs on the
// machine (Machine.Run).
func Run(v Version, cfg Config) (*Result, error) {
	if cfg.Width == 0 {
		cfg.Width = 160
	}
	if cfg.Height == 0 {
		cfg.Height = 120
	}
	if cfg.Remote != nil && cfg.Machine != nil {
		return nil, fmt.Errorf("rocketeer: Remote and Machine are mutually exclusive")
	}
	if cfg.Remote != nil && v == VersionO {
		return nil, fmt.Errorf("rocketeer: the original (O) build reads local files; remote units need a GODIVA build")
	}
	if cfg.CompetingLoad && cfg.Machine == nil {
		return nil, fmt.Errorf("rocketeer: CompetingLoad needs a Machine")
	}
	if cfg.Machine == nil {
		return run(v, cfg)
	}
	var (
		res *Result
		err error
	)
	cfg.Machine.Run(func() { res, err = run(v, cfg) })
	return res, err
}

// run executes one run on the calling goroutine and times it by cfg's clock.
func run(v Version, cfg Config) (*Result, error) {
	if cfg.CompetingLoad {
		defer cfg.Machine.Load()()
	}
	var diskBefore platform.DiskStats
	if cfg.Machine != nil {
		diskBefore = cfg.Machine.Disk()
	}
	start := cfg.now()
	var (
		res *Result
		err error
	)
	switch v {
	case VersionO:
		res, err = runOriginal(cfg)
	case VersionG:
		res, err = runGodiva(cfg, false)
	case VersionTG:
		res, err = runGodiva(cfg, true)
	default:
		return nil, fmt.Errorf("rocketeer: unknown version %q", v)
	}
	if err != nil {
		return nil, err
	}
	res.Version = v
	res.Test = cfg.Test.Name
	res.Total = cfg.now().Sub(start)
	res.Compute = res.Total - res.VisibleIO
	if cfg.Machine != nil {
		after := cfg.Machine.Disk()
		res.Disk = platform.DiskStats{
			Bytes: after.Bytes - diskBefore.Bytes,
			Seeks: after.Seeks - diskBefore.Seeks,
			Opens: after.Opens - diskBefore.Opens,
			Busy:  after.Busy - diskBefore.Busy,
		}
	}
	return res, nil
}

// now reads the run's clock: the machine's virtual time, or the host's.
func (c *Config) now() time.Time {
	if c.Machine == nil {
		return time.Now()
	}
	return c.Machine.Now()
}

// newPipeline returns the pipeline of one run, session or follower; its
// renderer (image, depth and visibility buffers, per-vertex scratch) and its
// frame's arrays serve every pass of every snapshot. The caller sets snapID
// before each snapshot.
func (c *Config) newPipeline() *snapshotPipeline {
	return &snapshotPipeline{
		test:     c.Test,
		ch:       charger{m: c.Machine, scale: c.VolumeScale},
		renderer: render.NewRenderer(c.Width, c.Height),
		lut:      render.Rainbow{},
		imageDir: c.ImageDir,
	}
}

// --- the original Voyager (O): coupled reading and processing ---

// runOriginal processes each snapshot by reading data on demand during the
// visualization passes, re-reading mesh coordinates in every pass, as the
// paper describes the pre-GODIVA Voyager.
func runOriginal(cfg Config) (*Result, error) {
	res := &Result{}
	reader := &genx.Reader{M: cfg.Machine, VolumeScale: cfg.VolumeScale}
	p := cfg.newPipeline()
	for i := 0; i < cfg.snapshots(); i++ {
		s := cfg.FirstSnapshot + i
		src, err := openOSource(reader, cfg, s, &res.VisibleIO)
		if err != nil {
			return nil, fmt.Errorf("snapshot %d: %w", s, err)
		}
		p.snapID = fmt.Sprintf("t%04d", s)
		err = p.run(src)
		src.Close()
		if err != nil {
			return nil, fmt.Errorf("snapshot %d: %w", s, err)
		}
	}
	res.Images = p.images
	return res, nil
}

// oSource reads block data from the snapshot files on demand, the way the
// pre-GODIVA Voyager couples reading with processing: each variable is read
// together with the mesh coordinates it is defined on, so with more than
// one variable to visualize the coordinates are read repeatedly ("the
// original Voyager needs to go back and forth in a file to read the mesh
// data multiple times"). GODIVA's buffer reuse eliminates exactly these
// redundant reads.
type oSource struct {
	r       *genx.Reader
	handles []*genx.FileHandle
	loc     map[string]oLoc
	names   []string
	now     func() time.Time
	io      *time.Duration // the run's visible I/O

	vars     map[string][]float64
	varsRead map[string]int // per block: variables read so far
}

type oLoc struct {
	h *genx.FileHandle
	e genx.BlockEntry
}

func openOSource(r *genx.Reader, cfg Config, step int, io *time.Duration) (*oSource, error) {
	src := &oSource{
		r:        r,
		loc:      make(map[string]oLoc),
		now:      cfg.now,
		io:       io,
		vars:     make(map[string][]float64),
		varsRead: make(map[string]int),
	}
	err := src.track(func() error {
		for _, path := range cfg.Spec.SnapshotFiles(cfg.Dir, step) {
			h, err := r.Open(path)
			if err != nil {
				return err
			}
			src.handles = append(src.handles, h)
			for _, e := range h.Blocks() {
				src.loc[e.Name] = oLoc{h: h, e: e}
			}
		}
		return nil
	})
	if err != nil {
		src.Close()
		return nil, err
	}
	// Deterministic processing order: by block ID.
	ids := make([]string, 0, len(src.loc))
	for _, h := range src.handles {
		for _, e := range h.Blocks() {
			ids = append(ids, e.Name)
		}
	}
	src.names = ids
	return src, nil
}

// track adds a foreground read section's time to the run's visible I/O.
func (s *oSource) track(fn func() error) error {
	t0 := s.now()
	err := fn()
	*s.io += s.now().Sub(t0)
	return err
}

func (s *oSource) Close() {
	for _, h := range s.handles {
		h.Close()
	}
}

func (s *oSource) BlockNames() []string { return s.names }

// Mesh reads a block's mesh; the pipeline asks once per snapshot. The
// redundant coordinate reads happen in Var, bundled with each variable.
func (s *oSource) Mesh(name string) (*mesh.TetMesh, error) {
	l, ok := s.loc[name]
	if !ok {
		return nil, fmt.Errorf("rocketeer: unknown block %q", name)
	}
	var m *mesh.TetMesh
	err := s.track(func() error {
		var err error
		m, err = l.h.ReadMesh(l.e)
		return err
	})
	return m, err
}

// Surface builds a block's surface topology from its mesh.
func (s *oSource) Surface(_ string, m *mesh.TetMesh) ([]int32, error) {
	return m.AppendBoundaryFaces(nil), nil
}

// Var reads a block's variable. In the coupled original implementation each
// new variable is read together with the block's coordinates, so every
// variable beyond the first re-reads coordinate data the program already
// has — the redundant 14-24% of I/O the paper measures.
func (s *oSource) Var(name, field string) ([]float64, error) {
	key := name + "/" + field
	if v, ok := s.vars[key]; ok {
		return v, nil
	}
	l, ok := s.loc[name]
	if !ok {
		return nil, fmt.Errorf("rocketeer: unknown block %q", name)
	}
	var data []float64
	err := s.track(func() error {
		// Element-based variables live apart from the node data, so the
		// coupled reader repositions and re-reads the coordinates with
		// each one; node-based variables sit with the coordinates and are
		// picked up in the same sweep.
		if s.varsRead[name] > 0 && genx.IsElemField(field) {
			if _, err := l.h.ReadField(l.e, "coords"); err != nil {
				return err
			}
		}
		var err error
		data, err = l.h.ReadField(l.e, field)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.varsRead[name]++
	s.vars[key] = data
	return data, nil
}
