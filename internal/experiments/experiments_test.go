package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"godiva/internal/platform"
	"godiva/internal/rocketeer"
)

// testSetup is a minimal, fast experiment configuration sharing one dataset
// across tests.
var (
	setupOnce sync.Once
	setupDir  string
	setupErr  error
)

func testSetup(t *testing.T) Setup {
	t.Helper()
	setupOnce.Do(func() {
		setupDir, setupErr = os.MkdirTemp("", "experiments-test-")
		if setupErr != nil {
			return
		}
		s := quick(setupDir)
		setupErr = EnsureDataset(&s)
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	return quick(setupDir)
}

// quick builds the shared fast setup: a tiny mesh and 4 snapshots.
func quick(dir string) Setup {
	s := DefaultSetup(dir)
	s.Spec.Mesh.NZ = 16 // 1/10 of the default experiment mesh
	s.Spec.Snapshots = 4
	actual := 6 * s.Spec.Mesh.NR * s.Spec.Mesh.NTheta * s.Spec.Mesh.NZ
	s.VolumeScale = float64(fullScaleCells()) / float64(actual)
	return s
}

func TestMain(m *testing.M) {
	code := m.Run()
	if setupDir != "" {
		os.RemoveAll(setupDir)
	}
	os.Exit(code)
}

func TestEnsureDatasetIdempotent(t *testing.T) {
	dir := t.TempDir()
	s := quick(dir)
	if err := EnsureDataset(&s); err != nil {
		t.Fatal(err)
	}
	marker := filepath.Join(dir, "dataset.ok")
	before, err := os.Stat(marker)
	if err != nil {
		t.Fatal(err)
	}
	first, err := os.Stat(filepath.Join(dir, "genx_t0000_0.shdf"))
	if err != nil {
		t.Fatal(err)
	}
	if err := EnsureDataset(&s); err != nil {
		t.Fatal(err)
	}
	again, _ := os.Stat(filepath.Join(dir, "genx_t0000_0.shdf"))
	if !again.ModTime().Equal(first.ModTime()) {
		t.Fatal("EnsureDataset regenerated an up-to-date dataset")
	}
	after, err := os.Stat(marker)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Fatal("EnsureDataset rewrote the marker of an up-to-date dataset")
	}
	// A changed spec regenerates.
	s2 := s
	s2.Spec.Snapshots = 3
	if err := EnsureDataset(&s2); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(marker)
	if !strings.Contains(string(data), "Snapshots:3") {
		t.Fatalf("marker not updated: %s", data)
	}
}

// TestFigure3aShape runs a scaled-down Figure 3(a) and asserts the paper's
// qualitative results hold: G reads less than O, TG's visible I/O is the
// smallest, and the derived metrics are in sane bands.
func TestFigure3aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	s := testSetup(t)
	ms, err := Figure3a(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 9 {
		t.Fatalf("got %d measurements, want 9", len(ms))
	}
	byKey := map[string]*Measurement{}
	for _, m := range ms {
		byKey[m.Test+"/"+m.Version] = m
	}
	for _, test := range []string{"simple", "medium", "complex"} {
		o, g, tg := byKey[test+"/O"], byKey[test+"/G"], byKey[test+"/TG"]
		if o == nil || g == nil || tg == nil {
			t.Fatalf("missing cells for %s", test)
		}
		if g.DiskBytes >= o.DiskBytes {
			t.Errorf("%s: G bytes %d >= O bytes %d", test, g.DiskBytes, o.DiskBytes)
		}
		if g.Visible >= o.Visible {
			t.Errorf("%s: G visible I/O %v >= O %v", test, g.Visible, o.Visible)
		}
		if tg.Visible >= g.Visible {
			t.Errorf("%s: TG visible I/O %v >= G %v", test, tg.Visible, g.Visible)
		}
		if tg.Total >= o.Total {
			t.Errorf("%s: TG total %v >= O total %v", test, tg.Total, o.Total)
		}
		// The paper's Engle effect: prefetching slows computation down.
		if tg.Compute <= g.Compute {
			t.Errorf("%s: TG compute %v <= G compute %v; no contention effect",
				test, tg.Compute, g.Compute)
		}
	}
	sums := Summarize(ms)
	if len(sums) != 3 {
		t.Fatalf("got %d summaries", len(sums))
	}
	for _, sum := range sums {
		if sum.VolumeReduction < 0.05 || sum.VolumeReduction > 0.5 {
			t.Errorf("%s: volume reduction %.2f outside the plausible band", sum.Test, sum.VolumeReduction)
		}
		// On one CPU only a minority of I/O cost can hide; the band only
		// excludes clearly broken values.
		if h := sum.Hidden["TG"]; h < -0.2 || h > 0.85 {
			t.Errorf("%s: hidden fraction %.2f outside the plausible band", sum.Test, h)
		}
	}
	// The medium test reads the most data and shows the largest volume cut.
	vol := map[string]float64{}
	for _, sum := range sums {
		vol[sum.Test] = sum.VolumeReduction
	}
	if vol["medium"] <= vol["simple"] || vol["medium"] <= vol["complex"] {
		t.Errorf("medium volume cut %.2f not the largest (simple %.2f, complex %.2f)",
			vol["medium"], vol["simple"], vol["complex"])
	}
	var buf bytes.Buffer
	PrintMeasurements(&buf, "fig3a", ms)
	PrintSummary(&buf, ms)
	out := buf.String()
	for _, want := range []string{"Engle", "simple", "medium", "complex", "TG", "paper"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed tables missing %q", want)
		}
	}
}

// TestFigure3bShape checks the dual-processor claims: both TG1 and TG2 hide
// far more I/O than on one CPU, and the competing load slows the run.
func TestFigure3bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	s := testSetup(t)
	ms, err := Figure3b(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 12 {
		t.Fatalf("got %d measurements, want 12", len(ms))
	}
	byKey := map[string]*Measurement{}
	for _, m := range ms {
		if m.Platform != "Turing" {
			t.Fatalf("measurement on %s", m.Platform)
		}
		byKey[m.Test+"/"+m.Version] = m
	}
	for _, test := range []string{"simple", "medium", "complex"} {
		g := byKey[test+"/G"]
		tg1, tg2 := byKey[test+"/TG1"], byKey[test+"/TG2"]
		if g == nil || tg1 == nil || tg2 == nil {
			t.Fatalf("missing cells for %s", test)
		}
		// With a free second processor nearly all waiting disappears but the
		// first unit's read: TG2/G is 0.25 on four snapshots for medium and
		// complex, whose compute outlasts a read, and 0.46 for simple, whose
		// reads outlast its compute.
		if tg2.Visible > g.Visible/2 {
			t.Errorf("%s: TG2 visible %v vs G %v; second CPU hid too little",
				test, tg2.Visible, g.Visible)
		}
		// The competing load slows TG1's computation relative to TG2
		// (visibly in the paper's Figure 3(b)).
		if tg1.Total < tg2.Total*101/100 {
			t.Errorf("%s: TG1 total %v not above TG2 %v; competing load had no cost",
				test, tg1.Total, tg2.Total)
		}
	}
}

// The second processor must hide a larger share of I/O than the first
// platform manages — the paper's central cross-platform contrast.
func TestTuringHidesMoreThanEngle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	s := testSetup(t)
	test, _ := rocketeer.TestByName("medium")
	hidden := func(spec platform.Spec) (float64, error) {
		tg, err := s.runCell(spec, test, rocketeer.VersionTG, false)
		if err != nil {
			return 0, err
		}
		g, err := s.runCell(spec, test, rocketeer.VersionG, false)
		if err != nil {
			return 0, err
		}
		return float64(g.Total-tg.Total) / float64(g.Visible), nil
	}
	he, err := hidden(platform.Engle)
	if err != nil {
		t.Fatal(err)
	}
	ht, err := hidden(platform.Turing)
	if err != nil {
		t.Fatal(err)
	}
	if ht <= he {
		t.Fatalf("Turing hid %.2f, Engle hid %.2f; dual-processor advantage missing", ht, he)
	}
}

// The simulated figures are a function of the cost model alone: the same
// tables at GOMAXPROCS 1 and 2, with a goroutine spinning beside the runs.
func TestFiguresDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	s := testSetup(t)
	tables := func() string {
		var buf bytes.Buffer
		for _, fig := range []func(Setup) ([]*Measurement, error){Figure3a, Figure3b} {
			ms, err := fig(s)
			if err != nil {
				t.Fatal(err)
			}
			PrintMeasurements(&buf, "", ms)
			PrintSummary(&buf, ms)
		}
		return buf.String()
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := tables()
	runtime.GOMAXPROCS(2)
	if two := tables(); two != one {
		t.Fatalf("tables differ between GOMAXPROCS 1 and 2:\n%s\n%s", one, two)
	}
}

func TestRunParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	s := testSetup(t)
	test, _ := rocketeer.TestByName("simple")
	res, err := RunParallel(s, test, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalO <= 0 || res.TotalTG <= 0 {
		t.Fatalf("parallel totals: %+v", res)
	}
	if res.TotalTG >= res.TotalO {
		t.Fatalf("parallel TG %v >= O %v", res.TotalTG, res.TotalO)
	}
	if _, err := RunParallel(s, test, 0); err == nil {
		t.Fatal("RunParallel(0 procs) accepted")
	}
}

func TestSummarizeHandlesMissingCells(t *testing.T) {
	ms := []*Measurement{
		{Platform: "Engle", Test: "simple", Version: "O",
			Total: 100 * time.Second, Visible: 50 * time.Second, DiskBytes: 1000},
	}
	if got := Summarize(ms); len(got) != 0 {
		t.Fatalf("summary from O-only data: %+v", got)
	}
	ms = append(ms, &Measurement{Platform: "Engle", Test: "simple", Version: "G",
		Total: 90 * time.Second, Visible: 40 * time.Second, DiskBytes: 800})
	got := Summarize(ms)
	if len(got) != 1 {
		t.Fatalf("got %d summaries", len(got))
	}
	if diff := got[0].VolumeReduction - 0.2; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("volume reduction = %v", got[0].VolumeReduction)
	}
	if diff := got[0].IOTimeReduction - 0.2; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("I/O time reduction = %v", got[0].IOTimeReduction)
	}
	if len(got[0].Hidden) != 0 {
		t.Fatalf("hidden map without TG runs: %v", got[0].Hidden)
	}
}
