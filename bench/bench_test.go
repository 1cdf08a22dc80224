package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, tc := range []struct {
		n       int
		tailPct float64
		tail    float64
	}{
		{3, 50, 2},       // no tail: the median stands in
		{20, 50, 10.5},   // p75 would leave only 5 beyond
		{40, 75, 30},     // exactly 10 beyond p75
		{99, 75, 75},     // p90 leaves 9
		{100, 90, 90},    // exactly 10 beyond p90
		{200, 95, 190},   // exactly 10 beyond p95
		{999, 95, 950},   // p99 leaves 9
		{1000, 99, 990},  // exactly 10 beyond p99
		{5000, 99, 4950}, // never higher than the highest candidate
	} {
		d := summarize(seq(tc.n))
		if d.N != tc.n {
			t.Errorf("n=%d: reported sample count %d", tc.n, d.N)
		}
		if d.TailPct != tc.tailPct || d.Tail != tc.tail {
			t.Errorf("n=%d: tail p%.0f=%.1f, want p%.0f=%.1f", tc.n, d.TailPct, d.Tail, tc.tailPct, tc.tail)
		}
		if beyond := tc.n - rank(tc.n, d.TailPct); d.TailPct > 50 && beyond < minBeyond {
			t.Errorf("n=%d: p%.0f has only %d samples beyond it", tc.n, d.TailPct, beyond)
		}
	}
	if d := summarize([]float64{9, 1, 5, 3}); d.P50 != 4 || d.Min != 1 || d.Max != 9 {
		t.Errorf("unsorted input: %+v", d)
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "bench.pass", Parent: -1, Start: msec(0), End: msec(100)},
		{Name: "core.wait", Parent: 0, Start: msec(10), End: msec(30)},
		{Name: "core.query", Parent: 0, Start: msec(20), End: msec(50)},   // overlaps its sibling
		{Name: "remote.read", Parent: 0, Start: msec(90), End: msec(120)}, // sticks out of the parent
		{Name: "core.commit", Parent: 3, Start: msec(95), End: msec(100)},
		{Name: "core.prefetch", Parent: -1, Start: msec(0), End: msec(40)}, // a root beside the pass
	}
	self := selfTimes(spans)
	want := []time.Duration{msec(100 - 40 - 10), msec(20), msec(30), msec(25), msec(5), msec(40)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, self[i], want[i])
		}
	}
	byLayer := layerSelf(spans)
	if byLayer["core"] != msec(20+30+5+40) || byLayer["bench"] != msec(50) || byLayer["remote"] != msec(25) {
		t.Errorf("layer self times: %v", byLayer)
	}
}

func TestRecorderOffIsNil(t *testing.T) {
	var rec *recorder
	i := rec.begin("x.y", 1, -1)
	rec.end(i)
	if i != -1 || rec.add("x.y", 1, -1, time.Now(), time.Now()) != -1 || rec.snapshot() != nil {
		t.Fatal("a nil recorder must record nothing")
	}
	on := newRecorder()
	p := on.begin("bench.parent", 7, -1)
	c := on.begin("core.child", 7, p)
	on.end(c)
	on.end(p)
	got := on.snapshot()
	if len(got) != 2 || got[1].Parent != p || got[1].Trace != 7 || got[0].End < got[1].End {
		t.Fatalf("recorded %+v", got)
	}
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := writeChromeTrace(path, got); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) != 4 { // 2 spans + 2 lane names
		t.Fatalf("chrome trace: %v, %d events", err, len(doc.TraceEvents))
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	const period = 20 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * period) }
	var latency []time.Duration
	lags, err := openLoop(4, due, func(i int, d time.Time) error {
		if !d.Equal(due(i)) {
			t.Errorf("op %d handed due time %v, want %v", i, d, due(i))
		}
		if i == 1 {
			time.Sleep(2*period + period/2) // a stall that swallows ops 2 and 3's due times
		}
		latency = append(latency, time.Since(d))
		return nil
	})
	if err != nil || len(lags) != 4 {
		t.Fatalf("lags %v, err %v", lags, err)
	}
	// Ops 0 and 1 start on time; op 2 was due while op 1 stalled, so the
	// generator ran about 1.5 periods late for it and op 2's latency, timed
	// from its due time, carries that wait.
	if lags[0] > period/2 || lags[1] > period/2 {
		t.Errorf("on-time ops report lag %v, %v", lags[0], lags[1])
	}
	if lags[2] < period {
		t.Errorf("op queued behind a stall reports lag %v, want >= %v", lags[2], period)
	}
	if latency[2] < lags[2] {
		t.Errorf("op 2 latency %v does not include its %v of queueing", latency[2], lags[2])
	}
	if _, err := openLoop(2, due, func(int, time.Time) error { return fmt.Errorf("refused") }); err == nil {
		t.Error("an op's error must stop the loop")
	}
}

func TestViewSequenceIsSeeded(t *testing.T) {
	a, b, c := viewSequence(7, 16, 500), viewSequence(7, 16, 500), viewSequence(8, 16, 500)
	same := func(x, y []view) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) || same(a, c) {
		t.Fatal("the same seed must give the same views and another seed other views")
	}
	count := make(map[int]int)
	for _, v := range a {
		if v.step < 0 || v.step >= 16 {
			t.Fatalf("step %d out of range", v.step)
		}
		count[v.step]++
	}
	hottest := 0
	for _, n := range count {
		hottest = max(hottest, n)
	}
	if hottest < len(a)/5 {
		t.Errorf("hottest step drew %d of %d views; Zipf(1.2) should skew harder", hottest, len(a))
	}
}

// TestBenchmarkJSONInSync keeps the root BENCHMARK.json equal to the
// declarations the program prints from.
func TestBenchmarkJSONInSync(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var have struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &have); err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkJSON(have.RunSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(data), want) {
		t.Errorf("BENCHMARK.json is stale; regenerate with: go run -C bench . -describe -seconds %d > BENCHMARK.json", have.RunSeconds)
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
}

// TestSmoke runs the gate once and all four workloads at toy size, in both
// modes, and checks that each mode prints every metric BENCHMARK.json
// declares for it exactly once and that the run was correct.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()

	sz := toySizes()
	for i, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(w.name, 3, sz, traced, i == 0 && !traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d (%s)",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.report.Problem)
			}
			var buf bytes.Buffer
			if err := res.print(&buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			defs, other := endToEnd, perLayer
			if traced {
				defs, other = perLayer, endToEnd
			}
			for _, d := range defs {
				n := 0
				for _, line := range lines[:len(lines)-1] {
					if f := strings.Fields(line); len(f) == 3 && f[0] == d.Name && f[2] == d.Unit {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s traced=%v: metric %s printed %d times with its unit", w.name, traced, d.Name, n)
				}
			}
			var last struct {
				Correct   *bool                  `json:"correct"`
				Attempted *int                   `json:"attempted"`
				Failed    *int                   `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil || last.Correct == nil || last.Attempted == nil || last.Failed == nil {
				t.Fatalf("%s traced=%v: result line %q: %v", w.name, traced, lines[len(lines)-1], err)
			}
			if len(last.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: result line has %d metrics, want %d", w.name, traced, len(last.Metrics), len(defs))
			}
			for _, d := range other {
				if _, ok := last.Metrics[d.Name]; ok {
					t.Errorf("%s traced=%v: result line carries %s from the other mode", w.name, traced, d.Name)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if v := last.Metrics[d.Name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, d.Name, v)
					}
				}
			}
		}
	}
	if left, err := os.ReadDir(filepath.Join(dir, "data")); err != nil || len(left) != 0 {
		t.Errorf("scratch data left behind: %v %v", left, err)
	}
	traces, err := filepath.Glob(filepath.Join(dir, "out", "trace-*-workload.json"))
	if err != nil || len(traces) != len(workloads) {
		t.Errorf("want one workload trace per workload in out/, found %v (%v)", traces, err)
	}
}
