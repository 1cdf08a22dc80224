// Command bench is the repository's benchmark: four workloads that stress
// different layers, a handful of end-to-end metrics a user of the system
// would see, and a traced run that prices every layer. See README.md.
//
//	go run -C bench . --workload scan-remote --seed 1 --seconds 20 --trace 0
//
// Everything runs at native speed (no internal/platform cost model), in one
// process, on at most two CPUs, with godivad started in-process on
// loopback. The last line of standard output is the result as one JSON
// object; a fuller report (provenance, sample counts, exact counts) goes to
// out/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"godiva/internal/genx"
)

// setupReps is how many times set-up is run (and torn down) to report its
// median time; the last one is kept for the measured region.
const setupReps = 5

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed of the generated inputs (view sequence, ingest jitter, scan rotation)")
		seconds  = flag.Int("seconds", 20, "size the fixed work so the measured region takes about this long on the reference host")
		trace    = flag.Int("trace", 0, "1: run the traced pass and print the per-layer metrics instead of the end-to-end ones")
		repeat   = flag.Int("repeat", 0, "run every workload N times in child processes and fail if the sets disagree beyond the metrics' bounds")
		describe = flag.Bool("describe", false, "print the metric declarations as BENCHMARK.json and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	switch {
	case *describe:
		doc, err := benchmarkJSON(*seconds)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(doc))
	case *repeat > 0:
		if err := repeatCheck(*repeat, *seed, *seconds); err != nil {
			fatal(err)
		}
	default:
		if *seconds < 1 || (*trace != 0 && *trace != 1) {
			fatal(fmt.Errorf("want --seconds >= 1 and --trace 0 or 1"))
		}
		res, err := run(*name, *seed, sizesFor(*seconds), *trace == 1, true)
		if err != nil {
			fatal(err)
		}
		if err := res.print(os.Stdout); err != nil {
			fatal(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one invocation's outcome. Its first four fields are the result
// line the driver reads; the rest goes to the report in out/.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	report report
}

// report is the fuller record of a run.
type report struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Traced     bool              `json:"traced"`
	Provenance provenance        `json:"provenance"`
	Samples    map[string]dist   `json:"samples"`      // the timing sets behind the latency metrics
	Exact      map[string]uint64 `json:"exact_counts"` // must repeat exactly for a seed
	Problem    string            `json:"problem,omitempty"`
}

// provenance says what ran where.
type provenance struct {
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GitCommit   string `json:"git_commit"`
	Seed        int64  `json:"seed"`
	Dataset     string `json:"dataset"`
	BytesOnDisk int64  `json:"bytes_on_disk"`
}

// run executes one workload end to end: the correctness gate, set-up (timed,
// repeated), the measured region or the traced pass, and teardown.
func run(name string, seed int64, sz sizes, traced, gate bool) (res *result, err error) {
	var mk func() workload
	var why string
	for _, w := range workloads {
		if w.name == name {
			mk, why = w.make, w.why
		}
	}
	if mk == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	env := &env{
		dataDir: filepath.Join(root, "data", fmt.Sprintf("%s-%d", name, os.Getpid())),
		outDir:  filepath.Join(root, "out"),
		seed:    seed,
	}
	if err := os.MkdirAll(env.dataDir, 0o755); err != nil {
		return nil, err
	}
	defer func() { err = closeAfter(err, func() error { return os.RemoveAll(env.dataDir) }) }()

	res = &result{Correct: true, Metrics: make(map[string]metricValue)}
	res.report = report{
		Workload: name, Why: why, Traced: traced,
		Samples: make(map[string]dist), Exact: make(map[string]uint64),
		Provenance: provenance{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			GitCommit: gitCommit(root), Seed: seed, Dataset: describeSpec(sz),
		},
	}
	fail := func(problem error) {
		res.Correct = false
		res.Failed++
		if res.report.Problem == "" {
			res.report.Problem = problem.Error()
		}
		fmt.Fprintln(os.Stderr, "bench: INCORRECT:", problem)
	}

	if gate {
		checks, err := runGate(env, sz.spec)
		res.Attempted += checks
		if err != nil {
			fail(err)
		}
	}

	w := mk()
	values := make(map[string]float64)
	if traced {
		err = tracedPass(w, env, sz, res, values, fail)
	} else {
		err = measuredPass(w, env, sz, res, values, fail)
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	return res, writeReport(env, res)
}

// measuredPass is a run with tracing off: it yields the end-to-end metrics.
func measuredPass(w workload, env *env, sz sizes, res *result, values map[string]float64, fail func(error)) error {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(env, sz, nil); err != nil {
			return closeAfter(fmt.Errorf("set-up: %w", err), w.teardown)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := w.teardown(); err != nil {
				return err
			}
		}
	}
	out, err := w.measure()
	if err = closeAfter(err, w.teardown); err != nil {
		return err
	}
	absorb(res, out, fail)
	warm, cold := summarize(out.warm), summarize(out.cold)
	res.report.Samples["setup_s"] = summarize(setups)
	res.report.Samples["warm_ms"], res.report.Samples["cold_ms"] = warm, cold
	values["setup_s"] = median(setups)
	values["ops_per_s"] = float64(out.ops-out.failed) / out.wall.Seconds()
	values["warm_ms_p50"], values["cold_ms_p50"] = warm.P50, cold.P50
	values["alloc_mb_per_op"] = float64(out.allocBytes) / 1e6 / float64(out.ops)
	return nil
}

// tracedPass runs the workload at one-third length twice — untraced, for
// the overhead baseline, then with the span recorder on — followed by the
// layer walk and the build triple, and yields the per-layer metrics. The
// spans are written to out/ as Chrome-trace JSON.
func tracedPass(w workload, env *env, sz sizes, res *result, values map[string]float64, fail func(error)) error {
	short := sz.third()
	once := func(rec *recorder) (*outcome, error) {
		if err := w.setup(env, short, rec); err != nil {
			return nil, closeAfter(fmt.Errorf("set-up: %w", err), w.teardown)
		}
		out, err := w.measure()
		return out, closeAfter(err, w.teardown)
	}
	base, err := once(nil)
	if err != nil {
		return err
	}
	rec := newRecorder()
	out, err := once(rec)
	if err != nil {
		return err
	}
	absorb(res, out, fail)
	for name, v := range out.layer {
		values[name] = v
	}
	values["trace_overhead_pct"] = 100 * (out.wall - base.wall).Seconds() / base.wall.Seconds()
	for layer, self := range layerSelf(rec.snapshot()) {
		values["trace.self_pct."+layer] = 100 * self.Seconds() / out.wall.Seconds()
	}
	warm, cold := summarize(out.warm), summarize(out.cold)
	res.report.Samples["warm_ms"], res.report.Samples["cold_ms"] = warm, cold
	values["workload.warm_ms_tail"], values["workload.cold_ms_tail"] = warm.Tail, cold.Tail

	dir, _, err := writeDataset(env, "d1", sz.spec)
	if err != nil {
		return err
	}
	walkRec := newRecorder()
	walked, err := runWalk(env, sz, dir, walkRec)
	if err != nil {
		return err
	}
	triple, err := buildTriple(sz, dir, walkRec)
	if err != nil {
		return err
	}
	for _, m := range []map[string]float64{walked, triple} {
		for name, v := range m {
			values[name] = v
		}
	}
	prefix := filepath.Join(env.outDir, fmt.Sprintf("trace-%s-seed%d", res.report.Workload, env.seed))
	if err := writeChromeTrace(prefix+"-workload.json", rec.snapshot()); err != nil {
		return err
	}
	return writeChromeTrace(prefix+"-walk.json", walkRec.snapshot())
}

// absorb folds a measured outcome into the result: operation counts, the
// counts that must repeat exactly, and the outputs check.
func absorb(res *result, out *outcome, fail func(error)) {
	res.Attempted += out.ops
	res.Failed += out.failed
	res.report.Provenance.BytesOnDisk = out.diskBytes
	for name, v := range out.exact {
		res.report.Exact[name] = v
	}
	if len(out.lagMs) > 0 {
		res.report.Samples["generator_lag_ms"] = summarize(out.lagMs)
	}
	if out.check != nil {
		fail(out.check)
	} else if out.failed > 0 {
		res.Correct = false
	}
}

func describeSpec(sz sizes) string {
	d := func(name string, s genx.Spec) string {
		return fmt.Sprintf("%s: %d blocks, %d files/snapshot, %d snapshots, mesh NR=%d NTheta=%d NZ=%d",
			name, s.Blocks, s.FilesPerSnapshot, s.Snapshots, s.Mesh.NR, s.Mesh.NTheta, s.Mesh.NZ)
	}
	return d("D1", sz.spec) + "; " + d("D1h", sz.ingestSpec)
}

// gitCommit reads the checked-out commit from the repository the benchmark
// sits in, without running git; a checkout that is not a repository (the
// driver's) reports "unknown".
func gitCommit(benchDir string) string {
	gitDir := filepath.Join(filepath.Dir(benchDir), ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if rest, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(gitDir, rest))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(data))
	}
	return ref
}

// print writes the human-readable table and then, as the last line, the
// result object.
func (r *result) print(f io.Writer) error {
	rep := r.report
	fmt.Fprintf(f, "workload %s (seed %d, traced %v)\n  why: %s\n  host: %d CPUs, GOMAXPROCS %d, %s, commit %s\n  data: %s\n",
		rep.Workload, rep.Provenance.Seed, rep.Traced, rep.Why,
		rep.Provenance.NumCPU, rep.Provenance.GOMAXPROCS, rep.Provenance.GoVersion, rep.Provenance.GitCommit,
		rep.Provenance.Dataset)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(f, "  %-42s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, name := range []string{"warm_ms", "cold_ms", "setup_s", "generator_lag_ms"} {
		if d, ok := rep.Samples[name]; ok {
			fmt.Fprintf(f, "  samples %-18s n=%d p50=%.4f p%.0f=%.4f min=%.4f max=%.4f\n",
				name, d.N, d.P50, d.TailPct, d.Tail, d.Min, d.Max)
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(line))
	return err
}

// writeReport stores the fuller record beside the traces.
func writeReport(env *env, r *result) error {
	if err := os.MkdirAll(env.outDir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if r.report.Traced {
		mode = "layers"
	}
	data, err := json.MarshalIndent(struct {
		report
		Result *result `json:"result"`
	}{r.report, r}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(env.outDir, fmt.Sprintf("result-%s-seed%d-%s.json", r.report.Workload, env.seed, mode))
	return os.WriteFile(path, data, 0o644)
}
