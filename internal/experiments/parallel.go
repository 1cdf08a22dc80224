package experiments

import (
	"fmt"
	"time"

	"godiva/internal/platform"
	"godiva/internal/rocketeer"
)

// ParallelResult reports one parallel Voyager experiment (§4.2): P
// processes, each on its own simulated Turing node, splitting the snapshot
// series; the run time is the slowest process's. The paper expects the
// speedup GODIVA brings in parallel mode to match the sequential one, since
// processes don't communicate after startup.
type ParallelResult struct {
	Test      string
	Procs     int
	TotalO    time.Duration
	TotalTG   time.Duration
	Reduction float64 // (TotalO - TotalTG) / TotalO
}

// RunParallel runs the parallel experiment for one test with the given
// process count on Turing nodes.
func RunParallel(s Setup, test rocketeer.VisTest, procs int) (*ParallelResult, error) {
	if procs < 1 {
		return nil, fmt.Errorf("experiments: need at least one process")
	}
	if err := EnsureDataset(&s); err != nil {
		return nil, err
	}
	nsnap := s.Spec.Snapshots
	if s.Snapshots > 0 && s.Snapshots < nsnap {
		nsnap = s.Snapshots
	}
	// The nodes share nothing, so they run one after another, each on its
	// own machine and clock.
	run := func(v rocketeer.Version) (time.Duration, error) {
		var worst time.Duration
		for p := 0; p < procs; p++ {
			lo := nsnap * p / procs
			hi := nsnap * (p + 1) / procs
			if hi == lo {
				continue
			}
			res, err := rocketeer.Run(v, rocketeer.Config{
				Test:          test,
				Spec:          s.Spec,
				Dir:           s.Dir,
				Machine:       platform.New(platform.Turing),
				VolumeScale:   s.VolumeScale,
				FirstSnapshot: lo,
				Snapshots:     hi - lo,
			})
			if err != nil {
				return 0, err
			}
			worst = max(worst, res.Total)
		}
		return worst, nil
	}
	totalO, err := run(rocketeer.VersionO)
	if err != nil {
		return nil, err
	}
	s.logf("  parallel %-7s O : %7.1fs across %d procs", test.Name, totalO.Seconds(), procs)
	totalTG, err := run(rocketeer.VersionTG)
	if err != nil {
		return nil, err
	}
	s.logf("  parallel %-7s TG: %7.1fs across %d procs", test.Name, totalTG.Seconds(), procs)
	r := &ParallelResult{Test: test.Name, Procs: procs, TotalO: totalO, TotalTG: totalTG}
	if totalO > 0 {
		r.Reduction = float64(totalO-totalTG) / float64(totalO)
	}
	return r, nil
}
