// Command godiva-bench regenerates the paper's evaluation (§4.2) on the
// simulated Engle and Turing platforms: Figure 3(a), Figure 3(b), the
// I/O-volume reductions, and the parallel Voyager experiment. Results are
// printed to stdout as tables of virtual time, next to the paper's numbers;
// progress goes to stderr. The platforms are discrete-event simulations, so
// the tables are the same on every run and every host.
//
// Usage:
//
//	godiva-bench [-fig 3a|3b|par|ablate|all] [-snapshots 32] [-data DIR]
//	             [-quick] [-procs 4]
//
// -quick runs 6 snapshots per configuration for a smoke pass; the defaults
// run all 32. Native-speed measurements live in bench/ (see BENCHMARK.json),
// not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"godiva/internal/experiments"
	"godiva/internal/rocketeer"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "experiment: 3a, 3b, par, ablate or all")
		snapshots = flag.Int("snapshots", 0, "snapshots per run (0 = all 32)")
		data      = flag.String("data", "godiva-bench-data", "dataset directory (generated on demand)")
		quick     = flag.Bool("quick", false, "fast smoke configuration")
		procs     = flag.Int("procs", 4, "process count for the parallel experiment")
	)
	flag.Parse()

	s := experiments.DefaultSetup(*data)
	if *quick {
		s = experiments.QuickSetup(*data)
	}
	if *snapshots > 0 {
		s.Snapshots = *snapshots
	}
	s.Log = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

	run3a := *fig == "3a" || *fig == "all"
	run3b := *fig == "3b" || *fig == "all"
	runPar := *fig == "par" || *fig == "all"
	runAbl := *fig == "ablate" || *fig == "all"
	if !run3a && !run3b && !runPar && !runAbl {
		fmt.Fprintf(os.Stderr, "godiva-bench: unknown -fig %q (want 3a, 3b, par, ablate or all)\n", *fig)
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
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "godiva-bench:", err)
	os.Exit(1)
}
