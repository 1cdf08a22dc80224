package rocketeer

import (
	"errors"
	"fmt"
	"time"

	"godiva/internal/core"
	"godiva/internal/genx"
	"godiva/internal/remote"
)

// SessionConfig configures an interactive session (the Apollo/Houston side
// of the Rocketeer suite).
type SessionConfig struct {
	Spec          genx.Spec
	Dir           string
	MemoryLimit   int64
	ImageDir      string
	Width, Height int
	// IOWorkers sizes the background I/O worker pool (zero = the paper's
	// single I/O thread).
	IOWorkers int
	// Remote, when set, fetches units from a godivad server instead of
	// local files (Dir is then ignored).
	Remote *remote.Client
}

// Session is a stateful interactive visualization session over a snapshot
// series. Unlike batch mode, future accesses are unknown: every view issues
// an explicit blocking ReadUnit, and viewed snapshots are marked finished —
// not deleted — so revisits hit GODIVA's cache until memory pressure
// evicts them LRU-first (paper §3.2's interactive pattern).
type Session struct {
	cfg    SessionConfig
	db     *core.DB
	reader *genx.Reader
	readFn core.ReadFunc
	names  []string
	// pipe renders every view; View gives it the view's one-pass test.
	pipe  *snapshotPipeline
	views int
}

// ViewResult reports one interactive view.
type ViewResult struct {
	Image    string // path of the rendered PNG ("" when ImageDir is empty)
	CacheHit bool   // the snapshot was still resident
	Elapsed  time.Duration
}

// NewSession opens the database and prepares the read machinery. Units are
// whole snapshots reading every variable, since an interactive user may ask
// for any of them.
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.Width == 0 {
		cfg.Width = 640
	}
	if cfg.Height == 0 {
		cfg.Height = 480
	}
	if cfg.MemoryLimit == 0 {
		cfg.MemoryLimit = 384 << 20
	}
	workers := cfg.IOWorkers
	if workers < 1 {
		// Default 1: interactive sessions reproduce the paper's
		// single-I/O-thread behavior.
		workers = 1
	}
	db := core.Open(core.Options{MemoryLimit: cfg.MemoryLimit, BackgroundIO: true, IOWorkers: workers})
	if cfg.Remote != nil {
		db.RegisterStatsSource("remote", func() any { return cfg.Remote.Stats() })
	}
	if err := defineSchema(db); err != nil {
		if cerr := db.Close(); cerr != nil {
			err = fmt.Errorf("%w (and close failed: %v)", err, cerr)
		}
		return nil, err
	}
	allVars := append(append([]string{}, genx.NodeVectorFields...), genx.ElemScalarFields...)
	runCfg := Config{
		Test:     VisTest{Name: "session", Vars: allVars},
		Spec:     cfg.Spec,
		Dir:      cfg.Dir,
		Remote:   cfg.Remote,
		ImageDir: cfg.ImageDir,
		Width:    cfg.Width,
		Height:   cfg.Height,
	}
	reader := &genx.Reader{Mapped: true}
	names := make([]string, cfg.Spec.Blocks)
	for b := range names {
		names[b] = genx.BlockID(b)
	}
	return &Session{
		cfg:    cfg,
		db:     db,
		reader: reader,
		readFn: makeReadFunc(runCfg, reader),
		names:  names,
		pipe:   runCfg.newPipeline(),
	}, nil
}

// Close releases the session's database, then the files its reader still
// holds open.
func (s *Session) Close() error { return errors.Join(s.db.Close(), s.reader.Close()) }

// Stats returns the underlying database counters.
func (s *Session) Stats() core.Stats { return s.db.Stats() }

// ExternalStats returns the registered external counter snapshots (e.g. the
// remote client's transport stats), keyed by source name.
func (s *Session) ExternalStats() map[string]any { return s.db.ExternalStats() }

// SetMemSpace adjusts the database memory cap at run time.
func (s *Session) SetMemSpace(bytes int64) { s.db.SetMemSpace(bytes) }

// Drop explicitly deletes a snapshot's unit.
func (s *Session) Drop(step int) error { return s.db.DeleteUnit(unitName(step)) }

// View renders one feature of one variable at one snapshot. feature is
// "surface", "iso", "slice" or "cut"; param positions isosurfaces (range
// fraction) and planes (axis fraction).
func (s *Session) View(step int, feature, variable string, param float64) (*ViewResult, error) {
	if step < 0 || step >= s.cfg.Spec.Snapshots {
		return nil, fmt.Errorf("rocketeer: step %d outside [0, %d)", step, s.cfg.Spec.Snapshots)
	}
	op, err := parseOp(feature, variable, param)
	if err != nil {
		return nil, err
	}
	name := unitName(step)
	start := time.Now()
	before := s.db.Stats().CacheHits
	if err := s.db.ReadUnit(name, s.readFn); err != nil {
		return nil, err
	}
	hit := s.db.Stats().CacheHits > before

	p := s.pipe
	p.test = VisTest{Name: "session", Vars: []string{variable}, Ops: []Op{op}}
	p.snapID = fmt.Sprintf("t%04d_v%03d", step, s.views)
	s.views++
	src := &gSource{db: s.db, names: s.names, stepID: s.cfg.Spec.StepID(step)}
	if err := p.run(src); err != nil {
		// The unit stays resident for revisits, but this view's pin must
		// not outlive the failed render.
		return nil, errors.Join(err, s.db.FinishUnit(name))
	}
	// Finished, not deleted: the user may revisit (paper §3.2).
	if err := s.db.FinishUnit(name); err != nil {
		return nil, err
	}
	res := &ViewResult{CacheHit: hit, Elapsed: time.Since(start)}
	if s.cfg.ImageDir != "" {
		res.Image = fmt.Sprintf("%s/%s_%s_00_%v_%s.png",
			s.cfg.ImageDir, p.test.Name, p.snapID, op.Kind, op.Var)
	}
	return res, nil
}

// parseOp maps a feature name to an Op.
func parseOp(feature, variable string, param float64) (Op, error) {
	if !genx.IsNodeField(variable) && !genx.IsElemField(variable) {
		return Op{}, fmt.Errorf("rocketeer: unknown variable %q", variable)
	}
	switch feature {
	case "surface":
		return Op{Kind: OpSurface, Var: variable}, nil
	case "iso":
		return Op{Kind: OpIso, Var: variable, IsoFrac: param}, nil
	case "slice":
		return Op{Kind: OpSlice, Var: variable, PlaneFrac: param}, nil
	case "cut":
		return Op{Kind: OpCut, Var: variable, PlaneFrac: param}, nil
	default:
		return Op{}, fmt.Errorf("rocketeer: unknown feature %q (want surface, iso, slice or cut)", feature)
	}
}
