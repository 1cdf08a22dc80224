package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"godiva/internal/genx"
	"godiva/internal/mesh"
)

// sizes fixes how much work a run does. A workload runs a fixed amount of
// work, not a fixed time, so that counts (hits, evictions, RPCs, bytes)
// repeat exactly for a seed; the amounts are sized so that the measured
// region takes about `seconds` on the 2-CPU reference host, and scale
// linearly with it.
type sizes struct {
	spec       genx.Spec // D1: the dataset every read workload uses
	ingestSpec genx.Spec // D1h: what follow-live's producer ingests

	movieRuns   int // movie-local: runs over all of D1's snapshots
	views       int // session-revisit: timed Session.View calls
	warmViews   int // session-revisit: untimed views that fill the cache in set-up
	coldPasses  int // scan-remote: passes over every step
	hotPasses   int // scan-remote: passes over the first hotSteps steps
	hotSteps    int
	followSteps int           // follow-live: ingested and rendered steps
	period      time.Duration // follow-live: one step is due every period
	walkReps    int           // traced run: layer-walk repetitions
	tripleSnaps int           // traced run: snapshots per O/G/TG build run
}

// d1 is the benchmark's dataset: the paper's full block and file structure
// (120 blocks, 8 files per snapshot) at one tenth of the full grain's cell
// count — 6.3 MB per snapshot with all 12 variables, 97 MB for 16 steps.
func d1() genx.Spec {
	s := genx.Default()
	s.Mesh = mesh.AnnulusSpec{NR: 2, NTheta: 24, NZ: 160, RInner: 0.6, ROuter: 1.55, Length: 24}
	s.Snapshots = 16
	return s
}

// sizesFor scales the reference amounts (tuned for 20 s) to seconds.
func sizesFor(seconds int) sizes {
	scale := func(n int) int { return max(1, (n*seconds+10)/20) }
	half := d1()
	half.Mesh.NTheta = 12 // D1h: 3.2 MB per step
	half.Snapshots = 4    // distinct payloads kept in memory; re-stamped per step
	return sizes{
		spec:        d1(),
		ingestSpec:  half,
		movieRuns:   scale(3),
		views:       scale(2000),
		warmViews:   32,
		coldPasses:  scale(72),
		hotPasses:   scale(216),
		hotSteps:    6,
		followSteps: scale(100) + 1, // + the warm-up step
		period:      200 * time.Millisecond,
		walkReps:    scale(6),
		tripleSnaps: scale(4),
	}
}

// third is the one-third-length run the traced pass measures twice (once
// untraced for the overhead baseline, once traced).
func (sz sizes) third() sizes {
	cut := func(n int) int { return max(1, n/3) }
	sz.movieRuns = cut(sz.movieRuns)
	sz.views = cut(sz.views)
	sz.coldPasses = cut(sz.coldPasses)
	sz.hotPasses = cut(sz.hotPasses)
	sz.followSteps = max(3, sz.followSteps/3+1)
	return sz
}

// toySizes is the smoke-test size: the real mesh cross-section on a short
// grain, two snapshots, a handful of operations per workload.
func toySizes() sizes {
	spec := d1()
	spec.Mesh.NZ = 16
	spec.Mesh.Length = 2.4
	spec.Blocks = 16
	spec.Snapshots = 2
	ingest := spec
	ingest.Mesh.NTheta = 12
	return sizes{
		spec: spec, ingestSpec: ingest,
		movieRuns: 1, views: 20, warmViews: 2, coldPasses: 2, hotPasses: 2, hotSteps: 1,
		followSteps: 4, period: 40 * time.Millisecond, walkReps: 1, tripleSnaps: 1,
	}
}

// outcome is what one measured run of a workload produced.
type outcome struct {
	ops    int           // operations attempted in the measured region
	failed int           // of those, failed, refused or skipped
	wall   time.Duration // the measured region
	// warm and cold are per-operation latencies in ms of the workload's two
	// classes (see the README's mapping table): data already where it is
	// needed versus data that has to be brought in.
	warm, cold []float64
	allocBytes uint64
	diskBytes  int64 // size of the dataset the run read or wrote
	// layer holds per-layer numbers read from the layers' exported Stats
	// after the run; exact names the ones (plus checksums) that must
	// repeat exactly for a seed.
	layer map[string]float64
	exact map[string]uint64
	// lagMs is how late the open-loop generator ran, per operation
	// (follow-live only).
	lagMs []float64
	// check is nil when the run's outputs were correct.
	check error
}

// workload is one of the benchmark's four scenarios. setup builds everything
// the measured region needs (dataset, servers, clients, sessions, warm
// caches) and is timed as setup_s; measure runs the fixed work; teardown
// stops what setup started and removes what it wrote.
type workload interface {
	setup(env *env, sz sizes, rec *recorder) error
	measure() (*outcome, error)
	teardown() error
}

// env is the invocation's context: where it may write and what seeds it.
type env struct {
	dataDir string // this invocation's private scratch; removed on exit
	outDir  string
	seed    int64
}

// workloads names the scenarios and records why each exists.
var workloads = []struct {
	name string
	why  string
	make func() workload
}{
	{"movie-local", "batch movie over local files: vis+render do ~95% of the work and I/O hides behind them, so a vis/render gain shows here and a read-path gain must not",
		func() workload { return &movieLocal{} }},
	{"session-revisit", "interactive revisits with a working set 4x core's cache: misses are genx+shdf+core commit/evict, hits are core query+vis, views are cheap enough for both to show",
		func() workload { return &sessionRevisit{} }},
	{"scan-remote", "a consumer that does no vis over godivad: cold passes overflow the server caches, hot passes fit, so remote wire/encode/cache/decode and core commit do all the work",
		func() workload { return &scanRemote{} }},
	{"follow-live", "open loop, writes beside reads: paced ingest (SHDF write, invalidation, push fan-out) feeding always-miss fetches, so a read-cache gain that taxes ingest shows here",
		func() workload { return &followLive{} }},
}

// timed runs fn as a measured region: wall time plus the Go heap bytes
// allocated during it. It collects set-up's garbage first, so the region
// does not start with someone else's GC cycle due.
func timed(fn func() error) (time.Duration, uint64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return wall, after.TotalAlloc - before.TotalAlloc, err
}

// writeDataset generates spec into a fresh directory under the invocation's
// scratch space and returns it with its size on disk.
func writeDataset(env *env, name string, spec genx.Spec) (string, int64, error) {
	dir := filepath.Join(env.dataDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", 0, err
	}
	if _, err := genx.WriteDataset(spec, dir); err != nil {
		return "", 0, fmt.Errorf("generate %s: %w", name, err)
	}
	bytes, err := dirSize(dir)
	return dir, bytes, err
}

func dirSize(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var bytes int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		bytes += fi.Size()
	}
	return bytes, nil
}

// closeAfter runs cleanups on the way out and joins their failures to the
// error being returned (nil when there is none).
func closeAfter(err error, closers ...func() error) error {
	for _, c := range closers {
		err = errors.Join(err, c())
	}
	return err
}
