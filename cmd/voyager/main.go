// Command voyager is the reproduction's batch-mode visualization tool: it
// grinds through a series of GENx snapshot files and renders one PNG per
// visualization pass per snapshot, like the paper's Rocketeer Voyager.
//
// Three builds are selectable, matching the evaluation's comparison:
//
//	-version O    original: reading coupled with processing (redundant reads)
//	-version G    single-thread GODIVA library (blocking unit reads)
//	-version TG   multi-thread GODIVA library (background prefetching)
//
// Usage:
//
//	voyager -data genx-data -out images [-test complex] [-version TG] [-mem 384]
//
// The run executes at native speed (no platform simulation) and prints the
// paper's metrics — total, visible I/O and computation time — at the end.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"godiva/internal/genx"
	"godiva/internal/push"
	"godiva/internal/remote"
	"godiva/internal/rocketeer"
)

func main() {
	var (
		data    = flag.String("data", "genx-data", "dataset directory (see genxgen)")
		out     = flag.String("out", "images", "image output directory (empty = no images)")
		test    = flag.String("test", "simple", "visualization test: simple, medium or complex")
		version = flag.String("version", "TG", "build: O, G or TG")
		mem     = flag.Int("mem", 384, "GODIVA database memory limit in MB")
		snaps   = flag.Int("snapshots", 0, "snapshots to process (0 = all)")
		width   = flag.Int("width", 640, "image width")
		height  = flag.Int("height", 480, "image height")
		trace   = flag.Bool("trace", false, "print the unit prefetch timeline (G/TG builds)")
		raddr   = flag.String("remote", "", "godivad server address; fetch units remotely instead of from -data")
		workers = flag.Int("io-workers", 0, "background I/O workers (0 = the paper's single thread; TG build)")
		follow  = flag.Bool("follow", false, "subscribe to a push-enabled server (-remote) and render steps as they are ingested")
		policy  = flag.String("policy", "drop", "follow delivery policy: drop (skip stale steps) or block (lossless)")
		queue   = flag.Int("queue", 0, "follow delivery queue depth (0 = default)")
		maxStep = flag.Int("max-steps", 0, "stop following after this many rendered steps (0 = until the stream ends)")
	)
	flag.Parse()

	vt, ok := rocketeer.TestByName(*test)
	if !ok {
		fmt.Fprintf(os.Stderr, "voyager: unknown test %q (want simple, medium or complex)\n", *test)
		os.Exit(2)
	}
	if *follow {
		if *raddr == "" {
			fmt.Fprintln(os.Stderr, "voyager: -follow needs -remote (a push-enabled godivad)")
			os.Exit(2)
		}
		if err := runFollow(*raddr, vt, *policy, *queue, *maxStep, *out, *width, *height, int64(*mem)<<20); err != nil {
			fmt.Fprintln(os.Stderr, "voyager:", err)
			os.Exit(1)
		}
		return
	}
	var (
		spec   genx.Spec
		client *remote.Client
		err    error
	)
	if *raddr != "" {
		client = remote.NewClient(remote.ClientOptions{Addr: *raddr})
		if spec, err = client.Spec(); err != nil {
			fmt.Fprintln(os.Stderr, "voyager:", err)
			os.Exit(1)
		}
		defer client.Close()
		fmt.Printf("remote dataset at %s: ", *raddr)
	} else {
		spec, err = genx.Discover(*data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "voyager:", err)
			os.Exit(1)
		}
		fmt.Print("dataset: ")
	}
	fmt.Printf("%d snapshots x %d files, %d blocks\n",
		spec.Snapshots, spec.FilesPerSnapshot, spec.Blocks)

	res, err := rocketeer.Run(rocketeer.Version(*version), rocketeer.Config{
		Test:        vt,
		Spec:        spec,
		Dir:         *data,
		MemoryLimit: int64(*mem) << 20,
		Snapshots:   *snaps,
		ImageDir:    *out,
		Width:       *width,
		Height:      *height,
		TraceUnits:  *trace,
		IOWorkers:   *workers,
		Remote:      client,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "voyager:", err)
		os.Exit(1)
	}
	fmt.Printf("%s/%s: %d images\n", res.Test, res.Version, res.Images)
	fmt.Printf("  total time:       %v\n", res.Total.Round(1e6))
	fmt.Printf("  visible I/O time: %v\n", res.VisibleIO.Round(1e6))
	fmt.Printf("  computation time: %v\n", res.Compute.Round(1e6))
	if res.Version != rocketeer.VersionO {
		fmt.Printf("  GODIVA: %d units read (%d prefetched), %d cache hits, peak %0.1f MB\n",
			res.DB.UnitsRead, res.DB.UnitsPrefetched, res.DB.CacheHits,
			float64(res.DB.PeakBytes)/1e6)
	}
	if client != nil {
		rs := client.Stats()
		fmt.Printf("  remote: %d fetches, %d RPCs, %d retries, %d errors, %.1f MB in\n",
			rs.Fetches, rs.RPCs, rs.Retries, rs.Errors, float64(rs.BytesIn)/1e6)
	}
	if *trace && len(res.Events) > 0 {
		fmt.Println("  unit timeline (ms from first event):")
		t0 := res.Events[0].When
		for _, e := range res.Events {
			fmt.Printf("   %8.1f  %-12s %s -> %s\n",
				float64(e.When.Sub(t0).Microseconds())/1000, e.Unit, e.From, e.To)
		}
	}
}

// runFollow is the live mode: subscribe to a push-enabled godivad and
// render each time step as its files are ingested, until the stream ends,
// -max-steps is reached, or SIGINT.
func runFollow(addr string, vt rocketeer.VisTest, policy string, queue, maxSteps int, out string, width, height int, mem int64) error {
	var pol push.Policy
	switch policy {
	case "drop":
		pol = push.DropOldest
	case "block":
		pol = push.Block
	default:
		return fmt.Errorf("unknown -policy %q (want drop or block)", policy)
	}
	client := remote.NewClient(remote.ClientOptions{Addr: addr})
	defer client.Close()
	if err := client.Ping(); err != nil {
		return err
	}
	fmt.Printf("following %s (%s test, %s policy)\n", addr, vt.Name, pol)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("voyager: interrupted, closing the stream")
		if err := client.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "voyager:", err)
		}
	}()

	res, err := rocketeer.Follow(rocketeer.FollowConfig{
		Test:        vt,
		Client:      client,
		Policy:      pol,
		Queue:       queue,
		MaxSteps:    maxSteps,
		MemoryLimit: mem,
		ImageDir:    out,
		Width:       width,
		Height:      height,
		Logf: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("followed %d steps (%d skipped, %d events): %d images\n",
		res.Steps, res.Skipped, res.Events, res.Images)
	fmt.Printf("  GODIVA: %d units read (%d prefetched), %d cache hits, peak %0.1f MB\n",
		res.DB.UnitsRead, res.DB.UnitsPrefetched, res.DB.CacheHits,
		float64(res.DB.PeakBytes)/1e6)
	return nil
}
