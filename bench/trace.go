package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers (never from inside internal/*). Name is "<layer>.<call>"; Trace
// identifies the unit, view or step the span belongs to; Parent is the index
// of the span that caused it (-1 for a root).
type span struct {
	Name       string
	Trace      int64
	Parent     int
	Start, End time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// tracing switched off: every method is a no-op, so untraced runs pay one
// nil check per call site and nothing else.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (r *recorder) begin(name string, trace int64, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Trace: trace, Parent: parent, Start: now, End: now})
	i := len(r.spans) - 1
	r.mu.Unlock()
	return i
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// add records a span whose interval was observed elsewhere (a unit event
// log, a Stats delta).
func (r *recorder) add(name string, trace int64, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Trace: trace, Parent: parent,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	i := len(r.spans) - 1
	r.mu.Unlock()
	return i
}

// startOf is the wall-clock start of a recorded span, for placing computed
// child spans inside it.
func (r *recorder) startOf(i int) time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch.Add(r.spans[i].Start)
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover. Children may overlap each other (two I/O
// workers under one pass) and may stick out of the parent (a prefetch that
// started before its consumer asked); only the covered part of the parent's
// own interval is subtracted, once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := s.Start // everything before this is already accounted
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < covered {
				lo = covered
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				out[i] -= hi - lo
				covered = hi
			}
		}
	}
	return out
}

// layerOf is the "<layer>" of a "<layer>.<call>" span name.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range selfTimes(spans) {
		out[layerOf(spans[i].Name)] += d
	}
	return out
}

// writeChromeTrace writes spans as Chrome-trace JSON (chrome://tracing,
// Perfetto): complete events, one thread lane per layer (named by a
// metadata event), with the trace id, span id and parent as args.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	lanes := make(map[string]int)
	var events []event
	for i, s := range spans {
		layer := layerOf(s.Name)
		lane, ok := lanes[layer]
		if !ok {
			lane = len(lanes) + 1
			lanes[layer] = lane
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: lane,
				Args: map[string]any{"name": layer}})
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: lane,
			Args: map[string]any{"trace": s.Trace, "span": i, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
