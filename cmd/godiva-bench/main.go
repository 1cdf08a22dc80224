// Command godiva-bench regenerates the paper's evaluation (§4.2) on the
// simulated Engle and Turing platforms: Figure 3(a), Figure 3(b), the
// I/O-volume reductions, and the parallel Voyager experiment. Results are
// printed as tables with means and 95% confidence intervals, next to the
// paper's numbers.
//
// Usage:
//
//	godiva-bench [-fig 3a|3b|par|ablate|workers|remote|lock|zerocopy|push|all] [-reps 5] [-snapshots 32]
//	             [-data DIR] [-timescale 0.05] [-quick] [-json BENCH_remote.json]
//	             [-lockjson BENCH_lock.json] [-zerojson BENCH_zerocopy.json]
//	             [-pushjson BENCH_push.json]
//	             [-mutexprofile mutex.pprof] [-blockprofile block.pprof]
//
// -quick shrinks the run (1 rep, 6 snapshots, faster clock) for a smoke
// pass; the defaults reproduce the full experiment in a few minutes.
// -mutexprofile and -blockprofile enable Go's contention profilers for the
// whole run and write pprof files on successful exit, for inspecting where
// the database lock is held and where goroutines block.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"godiva/internal/experiments"
	"godiva/internal/genx"
	"godiva/internal/rocketeer"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "experiment: 3a, 3b, par, ablate, workers, remote, lock, zerocopy, push or all")
		reps      = flag.Int("reps", 0, "repetitions per configuration (0 = default)")
		snapshots = flag.Int("snapshots", 0, "snapshots per run (0 = all 32)")
		data      = flag.String("data", "godiva-bench-data", "dataset directory (generated on demand)")
		timescale = flag.Float64("timescale", 0, "wall seconds per virtual second (0 = default)")
		quick     = flag.Bool("quick", false, "fast smoke configuration")
		procs     = flag.Int("procs", 4, "process count for the parallel experiment")
		jsonOut   = flag.String("json", "BENCH_remote.json", "remote-sweep JSON artifact path (empty = no file)")
		lockOut   = flag.String("lockjson", "BENCH_lock.json", "lock-sweep JSON artifact path (empty = no file)")
		zeroOut   = flag.String("zerojson", "BENCH_zerocopy.json", "zero-copy-sweep JSON artifact path (empty = no file)")
		pushOut   = flag.String("pushjson", "BENCH_push.json", "push-sweep JSON artifact path (empty = no file)")
		mutexProf = flag.String("mutexprofile", "", "write a mutex contention profile to this file")
		blockProf = flag.String("blockprofile", "", "write a blocking profile to this file")
	)
	flag.Parse()

	if *mutexProf != "" {
		runtime.SetMutexProfileFraction(5)
		defer writeProfile("mutex", *mutexProf)
	}
	if *blockProf != "" {
		runtime.SetBlockProfileRate(10_000) // sample blocking events >= 10µs
		defer writeProfile("block", *blockProf)
	}

	s := experiments.DefaultSetup(*data)
	if *quick {
		s = experiments.QuickSetup(*data)
	}
	if *reps > 0 {
		s.Reps = *reps
	}
	if *snapshots > 0 {
		s.Snapshots = *snapshots
	}
	if *timescale > 0 {
		s.Scale = *timescale
	}
	s.Log = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }

	run3a := *fig == "3a" || *fig == "all"
	run3b := *fig == "3b" || *fig == "all"
	runPar := *fig == "par" || *fig == "all"
	runAbl := *fig == "ablate" || *fig == "all"
	runWrk := *fig == "workers" || *fig == "all"
	runRem := *fig == "remote" || *fig == "all"
	runLck := *fig == "lock" || *fig == "all"
	runZC := *fig == "zerocopy" || *fig == "all"
	runPsh := *fig == "push" || *fig == "all"
	if !run3a && !run3b && !runPar && !runAbl && !runWrk && !runRem && !runLck && !runZC && !runPsh {
		fmt.Fprintf(os.Stderr, "godiva-bench: unknown -fig %q (want 3a, 3b, par, ablate, workers, remote, lock, zerocopy, push or all)\n", *fig)
		os.Exit(2)
	}

	if run3a {
		fmt.Println("== Figure 3(a): Voyager running time on the Engle workstation ==")
		ms, err := experiments.Figure3a(s)
		if err != nil {
			fail(err)
		}
		experiments.PrintMeasurements(os.Stdout, "\nFigure 3(a) — Engle (1 CPU)", ms)
		experiments.PrintSummary(os.Stdout, ms)
		fmt.Println()
	}
	if run3b {
		fmt.Println("== Figure 3(b): Voyager running time on a Turing cluster node ==")
		ms, err := experiments.Figure3b(s)
		if err != nil {
			fail(err)
		}
		experiments.PrintMeasurements(os.Stdout, "\nFigure 3(b) — Turing (2 CPUs)", ms)
		experiments.PrintSummary(os.Stdout, ms)
		fmt.Println()
	}
	if runPar {
		fmt.Printf("== Parallel Voyager: %d processes on Turing nodes ==\n", *procs)
		for _, vt := range rocketeer.Tests() {
			res, err := experiments.RunParallel(s, vt, *procs)
			if err != nil {
				fail(err)
			}
			fmt.Printf("%-8s O %8.1fs  TG %8.1fs  total-time reduction %.1f%% (paper: similar to sequential mode)\n",
				res.Test, res.TotalO.Seconds(), res.TotalTG.Seconds(), 100*res.Reduction)
		}
		fmt.Println()
	}
	if runAbl {
		fmt.Println("== Ablations: unit granularity and database memory cap ==")
		test, _ := rocketeer.TestByName("medium")
		gr, err := experiments.RunGranularity(s, test)
		if err != nil {
			fail(err)
		}
		experiments.PrintGranularity(os.Stdout, gr)
		mem, err := experiments.RunMemorySweep(s, test, experiments.DefaultMemoryMultiples())
		if err != nil {
			fail(err)
		}
		experiments.PrintMemorySweep(os.Stdout, mem)
		formats, err := experiments.RunFormatComparison(s)
		if err != nil {
			fail(err)
		}
		experiments.PrintFormatComparison(os.Stdout, formats)
		fmt.Println()
	}
	if runWrk {
		fmt.Println("== Worker-pool sweep: background I/O scaling beyond the paper's single thread ==")
		cells, err := experiments.RunWorkerSweep(experiments.WorkerSweepConfig{})
		if err != nil {
			fail(err)
		}
		experiments.PrintWorkerSweep(os.Stdout, cells)
		fmt.Println()
	}
	if runRem {
		fmt.Println("== Remote unit service: local vs remote read functions (godivad on loopback) ==")
		rcfg := experiments.RemoteSweepConfig{Dir: *data + "-remote", Log: s.Log}
		if *quick {
			rcfg.Spec = genx.Scaled(32)
			rcfg.Workers = []int{1, 4}
		}
		cells, err := experiments.RunRemoteSweep(rcfg)
		if err != nil {
			fail(err)
		}
		experiments.PrintRemoteSweep(os.Stdout, cells)
		if *jsonOut != "" {
			if err := experiments.WriteRemoteJSON(*jsonOut, cells); err != nil {
				fail(err)
			}
			fmt.Printf("\nwrote %s\n", *jsonOut)
		}
		fmt.Println()
	}
	if runLck {
		fmt.Println("== Lock sweep: query throughput under unit churn (decomposed DB lock) ==")
		// The full sweep runs every cell at GOMAXPROCS 1, 2, 4 and 8 so the
		// committed BENCH_lock.json shows how the decomposed lock behaves
		// with real (or oversubscribed — see EXPERIMENTS.md) parallelism,
		// not just the serialized procs=1 schedule.
		lcfg := experiments.LockSweepConfig{
			Dir:    *data + "-remote",
			Remote: true,
			Procs:  []int{1, 2, 4, 8},
			Log:    s.Log,
		}
		if *quick {
			lcfg.Spec = genx.Scaled(8)
			lcfg.Readers = []int{1, 4}
			lcfg.Workers = []int{1}
			lcfg.Procs = []int{1, 2}
			lcfg.Duration = 100 * time.Millisecond
		}
		cells, err := experiments.RunLockSweep(lcfg)
		if err != nil {
			fail(err)
		}
		experiments.PrintLockSweep(os.Stdout, cells)
		if *lockOut != "" {
			if err := experiments.WriteLockJSON(*lockOut, cells); err != nil {
				fail(err)
			}
			fmt.Printf("\nwrote %s\n", *lockOut)
		}
		fmt.Println()
	}
	if runZC {
		fmt.Println("== Zero-copy sweep: bytes copied per unit by read path (copy vs mmap vs remote) ==")
		zcfg := experiments.ZeroCopySweepConfig{Dir: *data + "-zerocopy", Log: s.Log}
		if *quick {
			zcfg.Spec = genx.Scaled(32)
			zcfg.Workers = []int{1}
			zcfg.Duration = 100 * time.Millisecond
		}
		cells, err := experiments.RunZeroCopySweep(zcfg)
		if err != nil {
			fail(err)
		}
		experiments.PrintZeroCopySweep(os.Stdout, cells)
		if *zeroOut != "" {
			if err := experiments.WriteZeroCopyJSON(*zeroOut, cells); err != nil {
				fail(err)
			}
			fmt.Printf("\nwrote %s\n", *zeroOut)
		}
		fmt.Println()
	}
	if runPsh {
		fmt.Println("== Push sweep: live ingest fan-out under a stalled subscriber ==")
		pcfg := experiments.PushSweepConfig{Log: s.Log}
		if *quick {
			pcfg.Spec = genx.Scaled(32)
			pcfg.Spec.Snapshots = 6
			pcfg.Spec.FilesPerSnapshot = 2
			pcfg.Producers = []int{1}
			pcfg.Subscribers = []int{2}
		}
		cells, err := experiments.RunPushSweep(pcfg)
		if err != nil {
			fail(err)
		}
		experiments.PrintPushSweep(os.Stdout, cells)
		if *pushOut != "" {
			if err := experiments.WritePushJSON(*pushOut, cells); err != nil {
				fail(err)
			}
			fmt.Printf("\nwrote %s\n", *pushOut)
		}
		fmt.Println()
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "godiva-bench:", err)
	os.Exit(1)
}

// writeProfile dumps a named runtime profile ("mutex", "block") collected
// over the whole run to path.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "godiva-bench:", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "godiva-bench:", err)
		return
	}
	fmt.Printf("wrote %s profile to %s\n", name, path)
}
