package main

import (
	"fmt"
	"sync"

	"godiva/internal/core"
	"godiva/internal/genx"
	"godiva/internal/remote"
)

// scanner is the minimal visualization tool: a GODIVA database fed by a
// godivad server, whose consumer waits for each unit, key-queries every
// buffer of every block, touches it, and deletes the unit. It does no vis
// and no rendering, so what it measures is remote + core alone. The
// correctness gate and the layer walk reuse it.
type scanner struct {
	db     *core.DB
	read   core.ReadFunc
	spec   genx.Spec
	blocks []string
	fields []string
	bufs   []*core.Buffer // query results of the unit being consumed, reused

	rec   *recorder
	mu    sync.Mutex
	reads map[string]unitTrace // by unit name, while the unit is in flight
}

// unitTrace ties the spans recorded on an I/O worker (the unit's read and
// the commits inside it) to the trace id the consumer gave the unit.
type unitTrace struct {
	trace int64
	read  int // the open remote.read_unit span, once a worker picked it up
}

func scanUnitName(step int) string { return fmt.Sprintf("snap_%04d", step) }

// newScanner opens the database (background I/O, two workers) and builds
// its read function over cli. The memory limit holds a whole pass: the
// consumer queues every unit of a pass up front, two workers complete units
// out of order, and at 48 MiB a worker that runs ahead can fill memory with
// later units while the one the consumer waits for still needs room — the
// §3.3 rule then fails that read ("prefetch deadlock"), about once in fifty
// runs on this host. A benchmark's operations must not fail by design. With a recorder, each unit read and
// each block commit inside it records a span from the benchmark's own
// wrappers around the read function and the commit callback.
func newScanner(cli *remote.Client, spec genx.Spec, rec *recorder) (*scanner, error) {
	s := &scanner{
		db:     core.Open(core.Options{MemoryLimit: 128 << 20, BackgroundIO: true, IOWorkers: 2}),
		spec:   spec,
		fields: bufferFields(),
		rec:    rec,
		reads:  make(map[string]unitTrace),
	}
	if err := defineSchema(s.db); err != nil {
		return nil, closeAfter(err, s.db.Close)
	}
	for b := 0; b < spec.Blocks; b++ {
		s.blocks = append(s.blocks, genx.BlockID(b))
	}
	s.bufs = make([]*core.Buffer, 0, len(s.blocks)*len(s.fields))
	resolve := func(unit string) ([]string, error) {
		var step int
		if _, err := fmt.Sscanf(unit, "snap_%d", &step); err != nil {
			return nil, fmt.Errorf("bench: bad unit name %q", unit)
		}
		return spec.SnapshotFiles("", step), nil
	}
	commit := remote.CommitFunc(commitBlock)
	if rec != nil {
		commit = func(u *core.Unit, bd *genx.BlockData) error {
			s.mu.Lock()
			ut := s.reads[u.Name()]
			s.mu.Unlock()
			i := rec.begin("core.commit_record", ut.trace, ut.read)
			err := commitBlock(u, bd)
			rec.end(i)
			return err
		}
	}
	inner := remote.NewReadFunc(cli, resolve, allVars(), commit)
	s.read = inner
	if rec != nil {
		s.read = func(u *core.Unit) error {
			s.mu.Lock()
			ut := s.reads[u.Name()]
			ut.read = rec.begin("remote.read_unit", ut.trace, -1)
			s.reads[u.Name()] = ut
			s.mu.Unlock()
			err := inner(u)
			rec.end(ut.read)
			return err
		}
	}
	return s, nil
}

func (s *scanner) close() error { return s.db.Close() }

// pass queues steps as units, in order, and consumes each: one closed-loop
// sweep of the client. It returns the wraparound sum of the units'
// checksums (every element when full, else the sparse touch) and the key
// queries it made. trace identifies the pass in recorded spans.
func (s *scanner) pass(steps []int, full bool, trace int64) (sum uint64, queries int, err error) {
	root := s.rec.begin("bench.scan_pass", trace, -1)
	defer s.rec.end(root)
	for _, step := range steps {
		name := scanUnitName(step)
		if s.rec != nil {
			s.mu.Lock()
			s.reads[name] = unitTrace{trace: trace*1000 + int64(step), read: -1}
			s.mu.Unlock()
		}
		if err := s.db.AddUnit(name, s.read); err != nil {
			return 0, 0, err
		}
	}
	for _, step := range steps {
		unitSum, n, err := s.consume(step, full, trace*1000+int64(step), root)
		if err != nil {
			return 0, 0, fmt.Errorf("step %d: %w", step, err)
		}
		sum += unitSum
		queries += n
	}
	return sum, queries, nil
}

// consume is the per-unit body of the consumer loop.
func (s *scanner) consume(step int, full bool, trace int64, parent int) (uint64, int, error) {
	name := scanUnitName(step)
	stepID := s.spec.StepID(step)
	i := s.rec.begin("core.wait_unit", trace, parent)
	err := s.db.WaitUnit(name)
	s.rec.end(i)
	if err != nil {
		return 0, 0, err
	}
	sum, err := s.queryAndTouch(stepID, full, trace, parent)
	i = s.rec.begin("core.delete_unit", trace, parent)
	derr := s.db.DeleteUnit(name)
	s.rec.end(i)
	if err == nil {
		err = derr
	}
	return sum, len(s.bufs), err
}

func (s *scanner) queryAndTouch(stepID string, full bool, trace int64, parent int) (uint64, error) {
	i := s.rec.begin("core.query", trace, parent)
	s.bufs = s.bufs[:0]
	for _, block := range s.blocks {
		for _, field := range s.fields {
			b, err := s.db.GetFieldBuffer(recBlock, field, block, stepID)
			if err != nil {
				s.rec.end(i)
				return 0, fmt.Errorf("%s/%s: %w", block, field, err)
			}
			s.bufs = append(s.bufs, b)
		}
	}
	s.rec.end(i)
	i = s.rec.begin("bench.touch", trace, parent)
	defer s.rec.end(i)
	var sum uint64
	for k, b := range s.bufs {
		v, err := sumBuffer(s.fields[k%len(s.fields)], b, full)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}
