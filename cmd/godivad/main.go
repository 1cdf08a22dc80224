// Command godivad is the GODIVA remote unit server: it serves unit payloads
// out of a directory of GENx/SHDF snapshot files over the wire protocol in
// internal/remote, so voyager and apollo (run with -remote) can process data
// that lives on another machine without changing their GODIVA usage at all.
//
// Usage:
//
//	godivad -data genx-data [-addr 127.0.0.1:7144]
//
// Fault-injection flags make a configurable fraction of fetch responses
// fail — dropped mid-payload, rejected with a retryable error, or delayed —
// to exercise client retry behavior:
//
//	godivad -data genx-data -fault-err 0.05 -fault-drop 0.05 -fault-seed 1
//
// With -ingest the server also accepts pushed snapshots (genxgen -stream)
// and serves reactive subscriptions (voyager -follow); it then starts even
// on an empty or missing -data directory and fills it as producers push.
//
// On SIGINT/SIGTERM the server drains and prints its operation counters.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"godiva/internal/remote"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7144", "listen address")
		data      = flag.String("data", "genx-data", "snapshot directory to serve (see genxgen)")
		idle      = flag.Duration("idle", 5*time.Minute, "drop connections idle this long")
		quiet     = flag.Bool("quiet", false, "suppress per-connection logging")
		ingest    = flag.Bool("ingest", false, "accept pushed snapshots and subscriptions")
		heartbeat = flag.Duration("heartbeat", 0, "keep-alive interval on idle subscription streams (0 = auto)")
		faultDrop = flag.Float64("fault-drop", 0, "fraction of fetches dropped mid-payload")
		faultErr  = flag.Float64("fault-err", 0, "fraction of fetches answered with a retryable error")
		faultSlow = flag.Float64("fault-delay-frac", 0, "fraction of fetches delayed by -fault-delay")
		faultWait = flag.Duration("fault-delay", 100*time.Millisecond, "delay applied to slowed fetches")
		faultStal = flag.Float64("fault-stall-frac", 0, "fraction of event deliveries stalled by -fault-delay")
		faultSeed = flag.Int64("fault-seed", 1, "fault-injection random seed")
	)
	flag.Parse()

	opts := remote.ServerOptions{
		Addr:        *addr,
		Dir:         *data,
		IdleTimeout: *idle,
		Ingest:      *ingest,
		Heartbeat:   *heartbeat,
		Faults: remote.Faults{
			Seed:      *faultSeed,
			DropFrac:  *faultDrop,
			ErrFrac:   *faultErr,
			DelayFrac: *faultSlow,
			StallFrac: *faultStal,
			Delay:     *faultWait,
		},
	}
	if !*quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "godivad: "+format+"\n", args...)
		}
	}
	srv, err := remote.Serve(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "godivad:", err)
		os.Exit(1)
	}
	spec := srv.Spec()
	fmt.Printf("godivad: serving %s on %s (%d snapshots x %d files, %d blocks)\n",
		*data, srv.Addr(), spec.Snapshots, spec.FilesPerSnapshot, spec.Blocks)
	if *ingest {
		fmt.Println("godivad: ingest on: accepting pushed snapshots and subscriptions")
	}
	if *faultDrop > 0 || *faultErr > 0 || *faultSlow > 0 {
		fmt.Printf("godivad: fault injection on: drop %.0f%%, err %.0f%%, delay %.0f%% x %v (seed %d)\n",
			*faultDrop*100, *faultErr*100, *faultSlow*100, *faultWait, *faultSeed)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("godivad: shutting down")
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "godivad:", err)
	}
	st := srv.Stats()
	fmt.Printf("godivad: %d conns, %d RPCs, %d errors, %d faults injected, %.1f MB out\n",
		st.Conns, st.RPCs, st.Errors, st.FaultsInjected, float64(st.BytesOut)/1e6)
	fmt.Printf("godivad: mapped files: %d opened, %d closed, %d hits\n", st.ReaderOpens, st.ReaderCloses, st.ReaderHits)
	if *ingest {
		ps := srv.PushStats()
		fmt.Printf("godivad: push: %d ingests, %d subscriptions, %d published, %d delivered, %d dropped\n",
			st.Ingests, st.Subscriptions, ps.Published, ps.Delivered, ps.Dropped)
	}
}
