package main

import (
	"fmt"
	"time"

	"godiva/internal/core"
	"godiva/internal/rocketeer"
)

// movieLocal is the paper's headline batch scenario at native speed: the
// multi-thread GODIVA build of Voyager (TG) renders the "medium" test over
// every snapshot of D1 from local files, closed loop, one client. Nothing
// here depends on the seed: the movie is the dataset.
//
// Warm operation: one snapshot of a full run (run wall / snapshots), its
// unit prefetched behind the previous snapshot's rendering. Cold operation:
// time to first image — a one-snapshot run, whose only unit read is visible.
type movieLocal struct {
	sz   sizes
	rec  *recorder
	cfg  rocketeer.Config
	disk int64
}

func (w *movieLocal) setup(env *env, sz sizes, rec *recorder) error {
	w.sz, w.rec = sz, rec
	dir, disk, err := writeDataset(env, "d1", sz.spec)
	if err != nil {
		return err
	}
	w.disk = disk
	test, ok := rocketeer.TestByName("medium")
	if !ok {
		return fmt.Errorf("rocketeer has no medium test")
	}
	w.cfg = rocketeer.Config{
		Test: test, Spec: sz.spec, Dir: dir,
		MemoryLimit: 48 << 20,
		TraceUnits:  rec != nil,
	}
	// One untimed snapshot: the page cache holds the first file and the
	// renderer's code paths have run once.
	_, err = w.run(0, 1)
	return err
}

func (w *movieLocal) run(first, n int) (*rocketeer.Result, error) {
	cfg := w.cfg
	cfg.FirstSnapshot, cfg.Snapshots = first, n
	return rocketeer.Run(rocketeer.VersionTG, cfg)
}

func (w *movieLocal) measure() (*outcome, error) {
	snaps := w.sz.spec.Snapshots
	out := &outcome{layer: map[string]float64{}, exact: map[string]uint64{}}
	var db core.Stats
	var images int
	wall, alloc, err := timed(func() error {
		for r := 0; r < w.sz.movieRuns; r++ {
			first := w.rec.begin("rocketeer.first_image", int64(r), -1)
			t0 := time.Now()
			if _, err := w.run(r%snaps, 1); err != nil {
				return err
			}
			out.cold = append(out.cold, ms(time.Since(t0)))
			w.rec.end(first)

			full := w.rec.begin("rocketeer.run", int64(r), -1)
			t0 = time.Now()
			res, err := w.run(0, snaps)
			if err != nil {
				return err
			}
			took := time.Since(t0)
			w.rec.end(full)
			out.warm = append(out.warm, ms(took)/float64(snaps))
			images += res.Images
			addStats(&db, res.DB)
			w.traceUnits(res, int64(r), full)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.wall, out.allocBytes, out.diskBytes = wall, alloc, w.disk
	out.ops = w.sz.movieRuns * (snaps + 1)
	coreLayer(out, db, int64(w.sz.movieRuns*snaps))
	out.exact["movie.images"] = uint64(images)
	if want := w.sz.movieRuns * snaps * len(w.cfg.Test.Ops); images != want {
		out.check = fmt.Errorf("movie-local rendered %d images, want %d", images, want)
	}
	return out, nil
}

// traceUnits turns the run's unit event log into spans: each unit's read
// (reading -> ready, on an I/O worker, beside the rendering rather than
// inside it, so a root span) and, under the run, the visible wait the
// program accounted — a computed span, placed at the run's start where the
// one unhidden read happens.
func (w *movieLocal) traceUnits(res *rocketeer.Result, trace int64, run int) {
	if w.rec == nil {
		return
	}
	reading := make(map[string]time.Time)
	for _, ev := range res.Events {
		switch ev.To {
		case "reading":
			reading[ev.Unit] = ev.When
		case "ready":
			if t0, ok := reading[ev.Unit]; ok {
				w.rec.add("core.unit_read", trace, -1, t0, ev.When)
			}
		}
	}
	start := w.rec.startOf(run)
	w.rec.add("core.visible_wait", trace, run, start, start.Add(res.VisibleIO))
}

func (w *movieLocal) teardown() error { return nil }

// addStats accumulates the additive counters of one database's lifetime.
func addStats(sum *core.Stats, s core.Stats) {
	sum.UnitsAdded += s.UnitsAdded
	sum.UnitsRead += s.UnitsRead
	sum.UnitsPrefetched += s.UnitsPrefetched
	sum.UnitsEvicted += s.UnitsEvicted
	sum.CacheHits += s.CacheHits
	sum.BytesLoaded += s.BytesLoaded
	sum.VisibleWait += s.VisibleWait
	sum.ReadTime += s.ReadTime
	if s.PeakBytes > sum.PeakBytes {
		sum.PeakBytes = s.PeakBytes
	}
}

// coreLayer fills the core layer's workload-derived numbers from its Stats.
// accesses is how many times the workload asked core for a unit.
func coreLayer(out *outcome, s core.Stats, accesses int64) {
	reads := float64(s.UnitsRead)
	out.layer["core.bytes_loaded_per_unit"] = ratio(float64(s.BytesLoaded), reads)
	out.layer["core.read_ms_per_unit"] = ratio(ms(s.ReadTime), reads)
	out.layer["core.visible_wait_ms_per_unit"] = ratio(ms(s.VisibleWait), float64(accesses))
	out.layer["core.units_prefetched_ratio"] = ratio(float64(s.UnitsPrefetched), reads)
	out.layer["core.cache_hit_ratio"] = ratio(float64(s.CacheHits), float64(accesses))
	out.layer["core.units_evicted"] = float64(s.UnitsEvicted)
	out.layer["core.peak_mb"] = float64(s.PeakBytes) / 1e6
}
