package main

import (
	"fmt"
	"math/rand"
	"time"

	"godiva/internal/rocketeer"
)

// sessionRevisit is the interactive pattern of §3.2: one user, closed loop,
// viewing steps drawn from a seeded Zipf(1.2) over D1's snapshots through a
// database that holds 4.5 units — a working set four times core's cache.
// Views are cheap (a slice or an isosurface at 160x120), so both kinds of
// view show: a hit is core key queries + vis + render, a miss first loads
// all 12 variables of every block through genx + shdf and commits them,
// evicting the least recently finished unit.
//
// Warm operation: a view whose unit was resident. Cold: one that loaded it.
type sessionRevisit struct {
	sz    sizes
	rec   *recorder
	sess  *rocketeer.Session
	views []view
	unit  int64 // one unit's BytesLoaded
	disk  int64
}

type view struct {
	step     int
	feature  string
	variable string
	param    float64
}

var (
	viewFeatures  = []string{"slice", "iso"}
	viewVariables = []string{"velocity", "displacement", "stress_avg", "temperature"}
)

// viewSequence generates the user's requests from the seed. Popularity
// rank is mapped to a step through a seeded permutation, so which steps are
// hot differs between seeds while the skew stays the same.
func viewSequence(seed int64, steps, n int) []view {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(steps)
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(steps-1))
	out := make([]view, n)
	for i := range out {
		out[i] = view{
			step:     perm[zipf.Uint64()],
			feature:  viewFeatures[rng.Intn(len(viewFeatures))],
			variable: viewVariables[rng.Intn(len(viewVariables))],
			param:    0.3 + 0.4*rng.Float64(),
		}
	}
	return out
}

func (w *sessionRevisit) setup(env *env, sz sizes, rec *recorder) error {
	w.sz, w.rec = sz, rec
	dir, disk, err := writeDataset(env, "d1", sz.spec)
	if err != nil {
		return err
	}
	w.disk = disk
	cfg := rocketeer.SessionConfig{Spec: sz.spec, Dir: dir, Width: 160, Height: 120}

	// A throwaway session measures one unit's size, which fixes the cache
	// at 4.5 units whatever the dataset's scale.
	probe, err := rocketeer.NewSession(cfg)
	if err != nil {
		return err
	}
	if _, err := probe.View(0, "slice", "velocity", 0.5); err != nil {
		return closeAfter(err, probe.Close)
	}
	w.unit = probe.Stats().BytesLoaded
	if err := probe.Close(); err != nil {
		return err
	}

	cfg.MemoryLimit = w.unit * 9 / 2
	w.sess, err = rocketeer.NewSession(cfg)
	if err != nil {
		return err
	}
	w.views = viewSequence(env.seed, sz.spec.Snapshots, sz.warmViews+sz.views)
	// Untimed views fill the cache, so the timed region starts in the
	// steady state a long session is in.
	for _, v := range w.views[:sz.warmViews] {
		if _, err := w.sess.View(v.step, v.feature, v.variable, v.param); err != nil {
			return err
		}
	}
	return nil
}

func (w *sessionRevisit) measure() (*outcome, error) {
	out := &outcome{layer: map[string]float64{}, exact: map[string]uint64{}}
	before := w.sess.Stats()
	var hits int
	wall, alloc, err := timed(func() error {
		for i, v := range w.views[w.sz.warmViews:] {
			span := w.rec.begin("rocketeer.view", int64(i), -1)
			var readBefore time.Duration
			if w.rec != nil {
				readBefore = w.sess.Stats().ReadTime
			}
			res, err := w.sess.View(v.step, v.feature, v.variable, v.param)
			w.rec.end(span)
			if err != nil {
				return fmt.Errorf("view %d (step %d %s %s): %w", i, v.step, v.feature, v.variable, err)
			}
			if res.CacheHit {
				hits++
				out.warm = append(out.warm, ms(res.Elapsed))
				continue
			}
			out.cold = append(out.cold, ms(res.Elapsed))
			if w.rec != nil {
				// The unit read inside the view, as core accounted it: a
				// computed span at the view's start, where ReadUnit blocks.
				start := w.rec.startOf(span)
				w.rec.add("core.read_unit", int64(i), span, start,
					start.Add(w.sess.Stats().ReadTime-readBefore))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.wall, out.allocBytes, out.ops, out.diskBytes = wall, alloc, w.sz.views, w.disk

	s := w.sess.Stats()
	s.CacheHits -= before.CacheHits
	s.UnitsRead -= before.UnitsRead
	s.UnitsPrefetched -= before.UnitsPrefetched
	s.UnitsEvicted -= before.UnitsEvicted
	s.BytesLoaded -= before.BytesLoaded
	s.VisibleWait -= before.VisibleWait
	s.ReadTime -= before.ReadTime
	coreLayer(out, s, int64(w.sz.views))
	out.layer["core.read_share_of_miss_pct"] = 100 * ratio(out.layer["core.read_ms_per_unit"], median(out.cold))
	out.exact["core.cache_hits"] = uint64(s.CacheHits)
	out.exact["core.units_evicted"] = uint64(s.UnitsEvicted)

	misses := w.sz.views - hits
	switch {
	case int64(hits) != s.CacheHits || int64(misses) != s.UnitsRead:
		out.check = fmt.Errorf("session-revisit saw %d hits / %d misses, core counted %d hits / %d reads",
			hits, misses, s.CacheHits, s.UnitsRead)
	case s.BytesLoaded != int64(misses)*w.unit:
		out.check = fmt.Errorf("session-revisit loaded %d bytes over %d misses, want %d per miss",
			s.BytesLoaded, misses, w.unit)
	}
	return out, nil
}

func (w *sessionRevisit) teardown() error {
	if w.sess == nil {
		return nil
	}
	err := w.sess.Close()
	w.sess = nil
	return err
}
