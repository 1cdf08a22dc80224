// Package experiments regenerates the paper's evaluation (§4.2): Figure
// 3(a) on the Engle workstation model, Figure 3(b) on the Turing cluster
// node model, the I/O-volume reductions, and the parallel Voyager runs.
// Experiments run the real Voyager builds over a geometrically reduced GENx
// dataset with the paper's full block/file structure, charging full-scale
// I/O and compute costs to the simulated platforms. The platforms are
// deterministic, so each cell is one run: a repetition would read the same
// virtual times to the nanosecond.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"godiva/internal/genx"
	"godiva/internal/mesh"
	"godiva/internal/platform"
	"godiva/internal/rocketeer"
)

// Setup configures a batch of experiment runs.
type Setup struct {
	// Spec is the (reduced) dataset; Dir holds its files.
	Spec genx.Spec
	Dir  string
	// VolumeScale converts reduced volumes/counts to the paper's full
	// scale.
	VolumeScale float64
	// Snapshots caps the snapshots processed per run (0 = all 32).
	Snapshots int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

func (s *Setup) logf(format string, args ...any) {
	if s.Log != nil {
		s.Log(format, args...)
	}
}

// fullScaleCells is the element count of the full-scale GENx grain mesh the
// paper's dataset sizes correspond to.
func fullScaleCells() int {
	m := genx.Default().Mesh
	return 6 * m.NR * m.NTheta * m.NZ
}

// DefaultSetup builds the standard experiment configuration: a 1/20-scale
// grain mesh (chosen to preserve the full mesh's node-to-cell composition,
// which the I/O-volume reductions depend on) with the full 120-block,
// 8-file, 32-snapshot structure.
func DefaultSetup(dir string) Setup {
	spec := genx.Default()
	spec.Mesh = mesh.AnnulusSpec{
		NR: 2, NTheta: 12, NZ: 160,
		RInner: 0.6, ROuter: 1.55, Length: 24,
	}
	actual := 6 * spec.Mesh.NR * spec.Mesh.NTheta * spec.Mesh.NZ
	return Setup{
		Spec:        spec,
		Dir:         dir,
		VolumeScale: float64(fullScaleCells()) / float64(actual),
	}
}

// QuickSetup is DefaultSetup shrunk for benches and smoke tests: 6
// snapshots per run.
func QuickSetup(dir string) Setup {
	s := DefaultSetup(dir)
	s.Snapshots = 6
	return s
}

// EnsureDataset writes the Setup's dataset to Dir unless a complete one is
// already there (detected via a marker recording the spec).
func EnsureDataset(s *Setup) error {
	marker := filepath.Join(s.Dir, "dataset.ok")
	want := fmt.Sprintf("%+v\n", s.Spec)
	if data, err := os.ReadFile(marker); err == nil && string(data) == want {
		return nil
	}
	s.logf("generating dataset in %s (%d snapshots x %d files)…",
		s.Dir, s.Spec.Snapshots, s.Spec.FilesPerSnapshot)
	if _, err := genx.WriteDataset(s.Spec, s.Dir); err != nil {
		return err
	}
	return os.WriteFile(marker, []byte(want), 0o644)
}

// Measurement is one (test, version) cell of a figure, in virtual time.
type Measurement struct {
	Platform  string
	Test      string
	Version   string // O, G, TG, TG1, TG2
	Total     time.Duration
	Visible   time.Duration
	Compute   time.Duration
	DiskBytes int64
	DiskSeeks int64
}

// runCell runs one configuration on a fresh machine.
func (s *Setup) runCell(spec platform.Spec, test rocketeer.VisTest, v rocketeer.Version, load bool) (*Measurement, error) {
	label := string(v)
	if v == rocketeer.VersionTG && spec.NumCPU > 1 {
		if load {
			label = "TG1"
		} else {
			label = "TG2"
		}
	}
	res, err := rocketeer.Run(v, rocketeer.Config{
		Test:          test,
		Spec:          s.Spec,
		Dir:           s.Dir,
		Machine:       platform.New(spec),
		VolumeScale:   s.VolumeScale,
		Snapshots:     s.Snapshots,
		CompetingLoad: load,
	})
	if err != nil {
		return nil, fmt.Errorf("%s/%s/%s: %w", spec.Name, test.Name, label, err)
	}
	s.logf("  %-7s %-7s %-4s total %7.1fs  visible I/O %6.1fs  compute %7.1fs",
		spec.Name, test.Name, label,
		res.Total.Seconds(), res.VisibleIO.Seconds(), res.Compute.Seconds())
	return &Measurement{
		Platform: spec.Name, Test: test.Name, Version: label,
		Total: res.Total, Visible: res.VisibleIO, Compute: res.Compute,
		DiskBytes: res.Disk.Bytes, DiskSeeks: res.Disk.Seeks,
	}, nil
}

// Figure3a runs the Engle experiment: {simple, medium, complex} x {O, G, TG}.
func Figure3a(s Setup) ([]*Measurement, error) {
	if err := EnsureDataset(&s); err != nil {
		return nil, err
	}
	var out []*Measurement
	for _, test := range rocketeer.Tests() {
		for _, v := range []rocketeer.Version{rocketeer.VersionO, rocketeer.VersionG, rocketeer.VersionTG} {
			m, err := s.runCell(platform.Engle, test, v, false)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
	}
	return out, nil
}

// Figure3b runs the Turing experiment: {simple, medium, complex} x
// {O, G, TG1, TG2}. TG1 runs a competing compute-intensive process on the
// node's second processor.
func Figure3b(s Setup) ([]*Measurement, error) {
	if err := EnsureDataset(&s); err != nil {
		return nil, err
	}
	var out []*Measurement
	for _, test := range rocketeer.Tests() {
		type cell struct {
			v    rocketeer.Version
			load bool
		}
		for _, c := range []cell{
			{rocketeer.VersionO, false},
			{rocketeer.VersionG, false},
			{rocketeer.VersionTG, true},  // TG1
			{rocketeer.VersionTG, false}, // TG2
		} {
			m, err := s.runCell(platform.Turing, test, c.v, c.load)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
	}
	return out, nil
}
