package experiments

import (
	"fmt"
	"io"
	"time"

	"godiva/internal/platform"
	"godiva/internal/rocketeer"
)

// Ablations probe the design choices the paper discusses but does not
// quantify: the prefetch granularity developers pick when defining units
// (§3.2: a whole snapshot, a single file, …) and the database memory cap
// that bounds how far ahead the I/O thread may run (§3.2's "at least enough
// idle space to hold one more processing unit").

// GranularityRow compares unit granularities for one test on Engle.
type GranularityRow struct {
	Test      string
	Unit      string // "snapshot" or "file"
	Total     time.Duration
	VisibleIO time.Duration
	UnitsRead int64
}

// RunGranularity runs the TG build with snapshot-sized and file-sized units.
func RunGranularity(s Setup, test rocketeer.VisTest) ([]*GranularityRow, error) {
	if err := EnsureDataset(&s); err != nil {
		return nil, err
	}
	var out []*GranularityRow
	for _, perFile := range []bool{false, true} {
		name := "snapshot"
		if perFile {
			name = "file"
		}
		res, err := rocketeer.Run(rocketeer.VersionTG, rocketeer.Config{
			Test:        test,
			Spec:        s.Spec,
			Dir:         s.Dir,
			Machine:     platform.New(platform.Engle),
			VolumeScale: s.VolumeScale,
			Snapshots:   s.Snapshots,
			UnitPerFile: perFile,
		})
		if err != nil {
			return nil, fmt.Errorf("granularity %s: %w", name, err)
		}
		s.logf("  granularity %-8s total %7.1fs  visible I/O %6.1fs  (%d units)",
			name, res.Total.Seconds(), res.VisibleIO.Seconds(), res.DB.UnitsRead)
		out = append(out, &GranularityRow{
			Test: test.Name, Unit: name,
			Total: res.Total, VisibleIO: res.VisibleIO, UnitsRead: res.DB.UnitsRead,
		})
	}
	return out, nil
}

// MemoryRow reports one point of the memory-cap sweep.
type MemoryRow struct {
	Test      string
	UnitsHeld float64 // memory cap in units of one snapshot's footprint
	Total     time.Duration
	VisibleIO time.Duration
	Evicted   int64
	Deadlocks int64
}

// RunMemorySweep runs the TG build under a range of memory caps, expressed
// as multiples of one snapshot unit's in-database footprint. Caps below 2
// approach the paper's double-buffering minimum.
func RunMemorySweep(s Setup, test rocketeer.VisTest, multiples []float64) ([]*MemoryRow, error) {
	if err := EnsureDataset(&s); err != nil {
		return nil, err
	}
	unit, err := unitFootprint(s, test)
	if err != nil {
		return nil, err
	}
	var out []*MemoryRow
	for _, m := range multiples {
		res, err := rocketeer.Run(rocketeer.VersionTG, rocketeer.Config{
			Test:        test,
			Spec:        s.Spec,
			Dir:         s.Dir,
			Machine:     platform.New(platform.Engle),
			VolumeScale: s.VolumeScale,
			Snapshots:   s.Snapshots,
			MemoryLimit: int64(m * float64(unit)),
		})
		if err != nil {
			return nil, fmt.Errorf("memory %.1fx: %w", m, err)
		}
		s.logf("  memory %4.1fx total %7.1fs  visible I/O %6.1fs",
			m, res.Total.Seconds(), res.VisibleIO.Seconds())
		out = append(out, &MemoryRow{
			Test: test.Name, UnitsHeld: m,
			Total: res.Total, VisibleIO: res.VisibleIO,
			Evicted: res.DB.UnitsEvicted, Deadlocks: res.DB.Deadlocks,
		})
	}
	return out, nil
}

// unitFootprint measures one snapshot's in-database bytes by running a
// single-snapshot G pass at native speed.
func unitFootprint(s Setup, test rocketeer.VisTest) (int64, error) {
	res, err := rocketeer.Run(rocketeer.VersionG, rocketeer.Config{
		Test:      test,
		Spec:      s.Spec,
		Dir:       s.Dir,
		Snapshots: 1,
	})
	if err != nil {
		return 0, err
	}
	if res.DB.PeakBytes == 0 {
		return 0, fmt.Errorf("experiments: empty unit footprint")
	}
	return res.DB.PeakBytes, nil
}

// PrintGranularity writes the granularity ablation table.
func PrintGranularity(w io.Writer, rows []*GranularityRow) {
	fmt.Fprintf(w, "\nUnit granularity ablation (TG on Engle):\n")
	fmt.Fprintf(w, "%-8s %-9s %7s %10s %16s\n", "test", "unit", "units", "total (s)", "visible I/O (s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-9s %7d %10.1f %16.1f\n",
			r.Test, r.Unit, r.UnitsRead, r.Total.Seconds(), r.VisibleIO.Seconds())
	}
}

// PrintMemorySweep writes the memory-cap sweep table.
func PrintMemorySweep(w io.Writer, rows []*MemoryRow) {
	fmt.Fprintf(w, "\nDatabase memory-cap sweep (TG on Engle; cap in snapshot units):\n")
	fmt.Fprintf(w, "%-8s %6s %10s %16s %9s %10s\n", "test", "cap", "total (s)", "visible I/O (s)", "evicted", "deadlocks")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %5.1fx %10.1f %16.1f %9d %10d\n",
			r.Test, r.UnitsHeld, r.Total.Seconds(), r.VisibleIO.Seconds(), r.Evicted, r.Deadlocks)
	}
}

// DefaultMemoryMultiples is the standard sweep: from just above the
// double-buffering minimum to effectively unbounded.
func DefaultMemoryMultiples() []float64 {
	return []float64{1.6, 2.5, 4, 8, 16}
}
