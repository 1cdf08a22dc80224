package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// repeatCheck is the repeatability self-check: it runs every workload n
// times, each run in its own child process as the driver would, and fails
// if, between the first set and any later one, a gated end-to-end metric
// moved by more than its own bound or a count that must repeat exactly
// (cache hits, evictions, RPCs, bytes in, checksums) moved at all. It
// prints the spread it saw per metric.
func repeatCheck(n int, seed int64, seconds int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	type runResult struct {
		Metrics map[string]metricValue `json:"metrics"`
		Correct bool                   `json:"correct"`
		Failed  int                    `json:"failed"`
	}
	var problems []string
	for _, w := range workloads {
		var first runResult
		var firstExact map[string]uint64
		for set := 0; set < n; set++ {
			cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s set %d: %w", w.name, set, err)
			}
			var got runResult
			if err := json.Unmarshal(lastLine(stdout), &got); err != nil {
				return fmt.Errorf("%s set %d: result line: %w", w.name, set, err)
			}
			exact, err := readExact(w.name, seed)
			if err != nil {
				return err
			}
			if !got.Correct || got.Failed != 0 {
				problems = append(problems, fmt.Sprintf("%s set %d: correct=%v failed=%d", w.name, set, got.Correct, got.Failed))
			}
			if set == 0 {
				first, firstExact = got, exact
				continue
			}
			for _, d := range endToEnd {
				a, b := first.Metrics[d.Name].Value, got.Metrics[d.Name].Value
				diff := math.Abs(b-a) / a
				verdict := "ok"
				if d.Name != "setup_s" && diff > d.Bound {
					verdict = "BEYOND BOUND"
					problems = append(problems, fmt.Sprintf("%s %s: %.4f vs %.4f differ by %.1f%% (bound %.0f%%)",
						w.name, d.Name, a, b, 100*diff, 100*d.Bound))
				}
				fmt.Printf("%-16s %-16s set0 %12.4f set%d %12.4f  diff %5.1f%% of bound %2.0f%%  %s\n",
					w.name, d.Name, a, set, b, 100*diff, 100*d.Bound, verdict)
			}
			for name, a := range firstExact {
				if b := exact[name]; a != b {
					problems = append(problems, fmt.Sprintf("%s exact count %s: %d vs %d", w.name, name, a, b))
				}
			}
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "bench: repeat:", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d repeatability problems", len(problems))
	}
	fmt.Println("repeat: every gated metric within its bound, every exact count equal")
	return nil
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// readExact reads the exact counts from the report the child just wrote.
func readExact(workload string, seed int64) (map[string]uint64, error) {
	data, err := os.ReadFile(filepath.Join("out", fmt.Sprintf("result-%s-seed%d-e2e.json", workload, seed)))
	if err != nil {
		return nil, err
	}
	var rep struct {
		Exact map[string]uint64 `json:"exact_counts"`
	}
	return rep.Exact, json.Unmarshal(data, &rep)
}
