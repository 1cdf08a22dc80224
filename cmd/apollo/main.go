// Command apollo is the interactive-mode counterpart of voyager, named for
// the paper's Apollo/Houston interactive tool, driven by a session script
// instead of a GUI so sessions are reproducible. Each script line is a
// command; the tool issues explicit blocking ReadUnit calls (interactive
// tools cannot predict the user), marks viewed snapshots "finished" so
// GODIVA's cache serves revisits, and renders the requested view.
//
// Script commands (one per line, '#' comments):
//
//	view <step> <surface|iso|slice|cut> <variable> [param]
//	mem <MB>          adjust the database memory cap (SetMemSpace)
//	drop <step>       explicitly delete a snapshot's unit
//	stats             print database statistics
//
// Usage:
//
//	apollo -data genx-data -script session.txt -out images
//
// Without -script, a built-in demo session runs: the back-and-forth
// browsing pattern the paper describes for interactive users.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"godiva/internal/genx"
	"godiva/internal/remote"
	"godiva/internal/rocketeer"
)

const demoScript = `
# Compare two time steps back and forth (cache hits after the first views),
# then scan forward, then come back.
view 1 surface velocity
view 2 surface velocity
view 1 surface velocity
view 2 surface velocity
view 0 iso stress_avg 0.5
view 3 slice temperature 0.4
view 1 surface velocity
stats
`

func main() {
	var (
		data   = flag.String("data", "genx-data", "dataset directory (see genxgen)")
		script = flag.String("script", "", "session script (empty = built-in demo)")
		out    = flag.String("out", "apollo-images", "image output directory")
		mem    = flag.Int("mem", 384, "initial GODIVA memory limit in MB")
		width  = flag.Int("width", 640, "image width")
		height = flag.Int("height", 480, "image height")
		raddr  = flag.String("remote", "", "godivad server address; fetch units remotely instead of from -data")
	)
	flag.Parse()

	var (
		spec   genx.Spec
		client *remote.Client
		err    error
	)
	if *raddr != "" {
		client = remote.NewClient(remote.ClientOptions{Addr: *raddr})
		if spec, err = client.Spec(); err != nil {
			fail(err)
		}
		defer client.Close()
	} else if spec, err = genx.Discover(*data); err != nil {
		fail(err)
	}
	lines := strings.Split(demoScript, "\n")
	demo := true
	if *script != "" {
		demo = false
		f, err := os.Open(*script)
		if err != nil {
			fail(err)
		}
		lines = nil
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		f.Close()
		if err := sc.Err(); err != nil {
			fail(err)
		}
	}

	session, err := rocketeer.NewSession(rocketeer.SessionConfig{
		Spec:        spec,
		Dir:         *data,
		MemoryLimit: int64(*mem) << 20,
		ImageDir:    *out,
		Width:       *width,
		Height:      *height,
		Remote:      client,
	})
	if err != nil {
		fail(err)
	}
	defer session.Close()

	for ln, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := run(session, client, line, demo, spec.Snapshots); err != nil {
			fail(fmt.Errorf("line %d (%q): %w", ln+1, line, err))
		}
	}
}

func run(s *rocketeer.Session, client *remote.Client, line string, demo bool, snapshots int) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "view":
		if len(fields) < 4 {
			return fmt.Errorf("view needs: step feature variable [param]")
		}
		step, err := strconv.Atoi(fields[1])
		if err != nil {
			return err
		}
		if demo {
			step %= snapshots // the built-in demo adapts to small datasets
		}
		param := 0.5
		if len(fields) > 4 {
			if param, err = strconv.ParseFloat(fields[4], 64); err != nil {
				return err
			}
		}
		view, err := s.View(step, fields[2], fields[3], param)
		if err != nil {
			return err
		}
		how := "disk"
		if view.CacheHit {
			how = "cache"
		}
		fmt.Printf("view step %d %s %s: %s (%v), wrote %s\n",
			step, fields[2], fields[3], how, view.Elapsed.Round(1e6), view.Image)
		return nil
	case "mem":
		if len(fields) != 2 {
			return fmt.Errorf("mem needs a size in MB")
		}
		mb, err := strconv.Atoi(fields[1])
		if err != nil {
			return err
		}
		s.SetMemSpace(int64(mb) << 20)
		fmt.Printf("memory cap set to %d MB\n", mb)
		return nil
	case "drop":
		if len(fields) != 2 {
			return fmt.Errorf("drop needs a step")
		}
		step, err := strconv.Atoi(fields[1])
		if err != nil {
			return err
		}
		return s.Drop(step)
	case "stats":
		st := s.Stats()
		fmt.Printf("stats: %d units read, %d cache hits, %d evicted, peak %.1f MB, visible wait %v\n",
			st.UnitsRead, st.CacheHits, st.UnitsEvicted, float64(st.PeakBytes)/1e6,
			st.VisibleWait.Round(1e6))
		if client != nil {
			rs := client.Stats()
			fmt.Printf("remote: %d fetches, %d RPCs, %d retries, %d errors, %.1f MB in\n",
				rs.Fetches, rs.RPCs, rs.Retries, rs.Errors, float64(rs.BytesIn)/1e6)
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q", fields[0])
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "apollo:", err)
	os.Exit(1)
}
