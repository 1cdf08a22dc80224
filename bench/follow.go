package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"godiva/internal/genx"
	"godiva/internal/push"
	"godiva/internal/remote"
	"godiva/internal/rocketeer"
)

// followLive is the open-loop workload: a producer ingests one D1h time
// step (8 files, sent back to back as a simulation dumps them) every period
// through Client.Ingest, whether or not the follower has kept up, while
// rocketeer.Follow renders each step as it completes. It uses remote the
// other way round from scan-remote — SHDF write + temp/rename, cache
// invalidation and push fan-out on the server, then fetches that can never
// hit — so a read-path gain that taxes ingest or invalidation shows here.
// The seed jitters each step's due time by up to a tenth of the period.
//
// Cold operation: a step, from the moment it was due to the moment the
// follower logged it rendered (ingest, event, always-miss fetch, render).
// Warm operation: one Ingest call, from the moment its step was due — the
// producer's side, which fetches nothing. Step 0 is warm-up: Follow holds
// the first step until a later event confirms how many files a step has.
type followLive struct {
	sz       sizes
	rec      *recorder
	seed     int64
	dir      string
	srv      *remote.Server
	producer *remote.Client
	follower *remote.Client
	payloads [][][]*genx.BlockData // [distinct step][file] -> blocks
}

func (w *followLive) setup(env *env, sz sizes, rec *recorder) error {
	w.sz, w.rec, w.seed = sz, rec, env.seed
	spec := sz.ingestSpec
	w.payloads = make([][][]*genx.BlockData, spec.Snapshots)
	for i := range w.payloads {
		w.payloads[i] = make([][]*genx.BlockData, spec.FilesPerSnapshot)
	}
	err := genx.StreamDataset(spec, func(step, file int, blocks []*genx.BlockData) error {
		w.payloads[step][file] = blocks
		return nil
	})
	if err != nil {
		return err
	}
	w.dir = filepath.Join(env.dataDir, "ingest")
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	w.srv, err = remote.Serve(remote.ServerOptions{Dir: w.dir, Ingest: true})
	if err != nil {
		return err
	}
	w.producer = remote.NewClient(remote.ClientOptions{Addr: w.srv.Addr(), PoolSize: 1})
	w.follower = remote.NewClient(remote.ClientOptions{Addr: w.srv.Addr(), PoolSize: 2})
	if err := w.follower.Ping(); err != nil {
		return err
	}
	// An earlier run's first steps are already on the server: connections,
	// the SHDF write path and the directory are warm, and the measured run
	// overwrites these files, which is the path that invalidates caches.
	for step := range w.payloads {
		for f := 0; f < spec.FilesPerSnapshot; f++ {
			if err := w.producer.Ingest(genx.SnapshotFile("", step, f), stamped(spec, w.payloads, step, f)); err != nil {
				return err
			}
		}
	}
	return nil
}

// stamped re-stamps one of the distinct in-memory steps as step: the server
// writes the time and step ID it is handed, so memory stays bounded however
// many steps are ingested.
func stamped(spec genx.Spec, payloads [][][]*genx.BlockData, step, file int) *remote.FilePayload {
	return &remote.FilePayload{
		Time:   float64(step+1) * spec.DT,
		StepID: spec.StepID(step),
		Blocks: payloads[step%len(payloads)][file],
	}
}

func (w *followLive) measure() (*outcome, error) {
	out := &outcome{layer: map[string]float64{}, exact: map[string]uint64{}}
	spec, period, rec := w.sz.ingestSpec, w.sz.period, w.rec
	steps, files := w.sz.followSteps, spec.FilesPerSnapshot
	rng := rand.New(rand.NewSource(w.seed))
	jitter := make([]time.Duration, steps)
	for i := range jitter {
		jitter[i] = time.Duration(rng.Int63n(int64(period)/10 + 1))
	}

	// Follow logs one line per rendered step; a skipped step never gets an
	// entry.
	var mu sync.Mutex // guards rendered
	rendered := make(map[int]time.Time)
	logf := func(format string, args ...any) {
		if strings.HasPrefix(format, "step %d (%s)") {
			now := time.Now()
			mu.Lock()
			rendered[args[0].(int)] = now
			mu.Unlock()
		}
	}

	var (
		start    time.Time
		ingestMs []float64
		lags     []time.Duration
		prodErr  error
		res      *rocketeer.FollowResult
	)
	due := func(step int) time.Time { return start.Add(time.Duration(step)*period + jitter[step]) }
	wall, alloc, err := timed(func() error {
		var wg sync.WaitGroup
		followEnded := make(chan struct{})
		srv, producer, payloads := w.srv, w.producer, w.payloads
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Events reach only subscribers registered before Publish.
			for srv.Stats().Subscriptions == 0 {
				select {
				case <-followEnded:
					return
				case <-time.After(time.Millisecond):
				}
			}
			start = time.Now().Add(10 * time.Millisecond)
			lags, prodErr = openLoop(steps, due, func(step int, due time.Time) error {
				select {
				case <-followEnded:
					return fmt.Errorf("follower ended before step %d was ingested", step)
				default:
				}
				span := rec.begin("bench.ingest_step", int64(step), -1)
				defer rec.end(span)
				for f := 0; f < files; f++ {
					i := rec.begin("remote.ingest", int64(step), span)
					err := producer.Ingest(genx.SnapshotFile("", step, f), stamped(spec, payloads, step, f))
					rec.end(i)
					if err != nil {
						return err
					}
					ingestMs = append(ingestMs, ms(time.Since(due)))
				}
				return nil
			})
		}()
		var err error
		res, err = rocketeer.Follow(rocketeer.FollowConfig{
			Test: rocketeer.VisTest{Name: "follow", Vars: []string{"stress_avg"},
				Ops: []rocketeer.Op{{Kind: rocketeer.OpSlice, Var: "stress_avg", PlaneFrac: 0.5}}},
			Client: w.follower, Policy: push.DropOldest, Queue: 64,
			MaxSteps: steps, MemoryLimit: 48 << 20, Width: 160, Height: 120,
			Logf: logf,
		})
		close(followEnded)
		wg.Wait()
		if err != nil {
			return err
		}
		return prodErr
	})
	if err != nil {
		return nil, err
	}
	out.wall, out.allocBytes, out.ops = wall, alloc, steps
	if out.diskBytes, err = dirSize(w.dir); err != nil {
		return nil, err
	}

	for step := 1; step < steps; step++ {
		mu.Lock()
		at, ok := rendered[step]
		mu.Unlock()
		if !ok {
			out.failed++ // skipped or never completed: missed any latency limit
			continue
		}
		lat := at.Sub(due(step))
		out.cold = append(out.cold, ms(lat))
		if w.rec != nil {
			w.rec.add("rocketeer.follow_step", int64(step), -1, due(step), at)
		}
	}
	out.warm = ingestMs[files:] // without warm-up step 0
	out.lagMs = msAll(lags)

	ps := w.srv.PushStats()
	srv, cli := w.srv.Stats(), w.follower.Stats()
	coreLayer(out, res.DB, res.DB.UnitsAdded)
	remoteLayer(out, remote.RemoteStats{}, cli, srv, res.DB.UnitsRead)
	out.layer["remote.retries"] += float64(w.producer.Stats().Retries)
	out.layer["push.delivered"] = float64(ps.Delivered)
	out.layer["push.dropped"] = float64(ps.Dropped)
	out.layer["generator_lag_ms_p99"] = percentileOf(out.lagMs, 99)
	out.exact["follow.steps_rendered"] = uint64(res.Steps)
	out.exact["follow.events"] = uint64(res.Events)
	out.exact["remote.ingests"] = uint64(srv.Ingests) // set-up's included

	switch {
	case res.Steps != steps || res.Skipped != 0 || res.Images != steps:
		out.check = fmt.Errorf("follow-live rendered %d steps (%d images), skipped %d, want %d and none",
			res.Steps, res.Images, res.Skipped, steps)
	case ps.Dropped != 0:
		out.check = fmt.Errorf("follow-live dropped %d events below saturation", ps.Dropped)
	default:
		out.check = w.verifyLanded(steps - 1)
	}
	return out, nil
}

// verifyLanded reads a step's files back from the server's directory with
// the local reader and compares every element with what was ingested.
func (w *followLive) verifyLanded(step int) error {
	spec := w.sz.ingestSpec
	var want uint64
	for f := 0; f < spec.FilesPerSnapshot; f++ {
		for _, bd := range stamped(spec, w.payloads, step, f).Blocks {
			want += sumBlockData(bd, true)
		}
	}
	got, err := sumStepLocal(spec, w.dir, step, true)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("follow-live step %d reads back as %#x, ingested %#x", step, got, want)
	}
	return nil
}

func (w *followLive) teardown() error {
	var err error
	for _, c := range []*remote.Client{w.follower, w.producer} {
		if c != nil {
			err = closeAfter(err, c.Close)
		}
	}
	if w.srv != nil {
		err = closeAfter(err, w.srv.Close)
	}
	w.follower, w.producer, w.srv = nil, nil, nil
	if w.dir != "" {
		err = closeAfter(err, func() error { return os.RemoveAll(w.dir) })
	}
	return err
}
