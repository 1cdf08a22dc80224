package rocketeer

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"godiva/internal/genx"
	"godiva/internal/mesh"
	"godiva/internal/platform"
	"godiva/internal/remote"
)

// The test dataset is written once and shared (read-only) by all tests.
var (
	dataOnce sync.Once
	dataDir  string
	dataSpec genx.Spec
	dataErr  error
)

func testDataset(t *testing.T) (genx.Spec, string) {
	t.Helper()
	dataOnce.Do(func() {
		dataSpec = genx.Spec{
			Mesh: mesh.AnnulusSpec{
				NR: 2, NTheta: 10, NZ: 6,
				RInner: 0.6, ROuter: 1.55, Length: 6,
			},
			Blocks:           4,
			Snapshots:        3,
			FilesPerSnapshot: 2,
			DT:               2.5e-5,
		}
		dataDir, dataErr = os.MkdirTemp("", "rocketeer-test-")
		if dataErr != nil {
			return
		}
		_, dataErr = genx.WriteDataset(dataSpec, dataDir)
	})
	if dataErr != nil {
		t.Fatal(dataErr)
	}
	return dataSpec, dataDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if dataDir != "" {
		os.RemoveAll(dataDir)
	}
	os.Exit(code)
}

// testMachine is Engle's cost structure on ncpu CPUs.
func testMachine(ncpu int) *platform.Machine {
	spec := platform.Engle
	spec.NumCPU = ncpu
	return platform.New(spec)
}

func pngsIn(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// All four builds — O, G, and TG over local files and over a godivad
// server — run the same pipeline on the same data: their images must be
// byte-identical. This is the core end-to-end correctness check — GODIVA
// changes how data is read, never what is computed.
func TestVersionsProduceIdenticalImages(t *testing.T) {
	spec, dir := testDataset(t)
	srv, err := remote.Serve(remote.ServerOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer cli.Close()

	test, _ := TestByName("simple")
	builds := []struct {
		name    string
		version Version
		remote  *remote.Client
	}{
		{"O", VersionO, nil},
		{"G", VersionG, nil},
		{"TG", VersionTG, nil},
		{"TG-remote", VersionTG, cli},
	}
	var reference map[string][]byte
	for _, b := range builds {
		imgDir := t.TempDir()
		res, err := Run(b.version, Config{
			Test: test, Spec: spec, Dir: dir, Remote: b.remote,
			Snapshots: 2, ImageDir: imgDir, Width: 96, Height: 72,
		})
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if res.Images != 2*len(test.Ops) {
			t.Fatalf("%s produced %d images, want %d", b.name, res.Images, 2*len(test.Ops))
		}
		images := pngsIn(t, imgDir)
		if reference == nil {
			reference = images
			if len(reference) == 0 {
				t.Fatal("no images written")
			}
			continue
		}
		for n, want := range reference {
			got, ok := images[n]
			if !ok {
				t.Fatalf("%s missing image %s", b.name, n)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("image %s differs between O and %s", n, b.name)
			}
		}
	}
}

// Every test must run end to end in every version, including the complex
// test's isosurfaces, slices and cutting planes.
func TestAllTestsAllVersions(t *testing.T) {
	spec, dir := testDataset(t)
	for _, vt := range Tests() {
		for _, v := range []Version{VersionO, VersionG, VersionTG} {
			res, err := Run(v, Config{
				Test: vt, Spec: spec, Dir: dir, Snapshots: 1, Width: 64, Height: 48,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", vt.Name, v, err)
			}
			if res.Images != len(vt.Ops) {
				t.Fatalf("%s/%s: %d images, want %d", vt.Name, v, res.Images, len(vt.Ops))
			}
		}
	}
}

// GODIVA's buffer reuse must eliminate the original build's redundant
// coordinate reads: fewer bytes and far fewer seeks on the simulated disk.
func TestGodivaReducesIOVolumeAndSeeks(t *testing.T) {
	spec, dir := testDataset(t)
	test, _ := TestByName("medium") // most passes, most redundancy
	run := func(v Version) *Result {
		res, err := Run(v, Config{
			Test: test, Spec: spec, Dir: dir,
			Machine: testMachine(2), VolumeScale: 20, Snapshots: 2,
			Width: 64, Height: 48,
		})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		return res
	}
	o := run(VersionO)
	g := run(VersionG)
	if g.Disk.Bytes >= o.Disk.Bytes {
		t.Fatalf("G read %d bytes, O read %d; GODIVA did not reduce I/O volume", g.Disk.Bytes, o.Disk.Bytes)
	}
	if g.Disk.Seeks >= o.Disk.Seeks {
		t.Fatalf("G made %d seeks, O made %d; GODIVA did not reduce seeks", g.Disk.Seeks, o.Disk.Seeks)
	}
	reduction := 1 - float64(g.Disk.Bytes)/float64(o.Disk.Bytes)
	if reduction < 0.05 || reduction > 0.6 {
		t.Fatalf("I/O volume reduction %.1f%% outside the plausible band", 100*reduction)
	}
}

// The multi-thread build must hide I/O behind computation: on a two-CPU
// machine its visible I/O collapses relative to the single-thread build.
func TestBackgroundIOHidesVisibleTime(t *testing.T) {
	spec, dir := testDataset(t)
	test, _ := TestByName("simple")
	run := func(v Version, m *platform.Machine) *Result {
		res, err := Run(v, Config{
			Test: test, Spec: spec, Dir: dir,
			Machine: m, VolumeScale: 40, Snapshots: 3,
			Width: 64, Height: 48,
		})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		return res
	}
	g := run(VersionG, testMachine(2))
	tg := run(VersionTG, testMachine(2))
	if tg.DB.UnitsPrefetched == 0 {
		t.Fatal("TG prefetched no units")
	}
	if tg.VisibleIO >= g.VisibleIO {
		t.Fatalf("TG visible I/O %v >= G %v; prefetching hid nothing", tg.VisibleIO, g.VisibleIO)
	}
	// With only 3 snapshots the first unit's wait is fully visible (a third
	// of all I/O), so require hiding a substantial share rather than the
	// steady-state 80%+.
	if tg.VisibleIO > g.VisibleIO*7/10 {
		t.Fatalf("TG hid less than 30%% of the visible I/O on 2 CPUs: %v vs %v", tg.VisibleIO, g.VisibleIO)
	}
}

// Per-file units must produce the same images as snapshot units: only the
// prefetch granularity changes, never the computation.
func TestUnitPerFileEquivalent(t *testing.T) {
	spec, dir := testDataset(t)
	test, _ := TestByName("simple")
	run := func(perFile bool) (map[string][]byte, *Result) {
		imgDir := t.TempDir()
		res, err := Run(VersionTG, Config{
			Test: test, Spec: spec, Dir: dir,
			Snapshots: 2, UnitPerFile: perFile,
			ImageDir: imgDir, Width: 64, Height: 48,
		})
		if err != nil {
			t.Fatalf("perFile=%v: %v", perFile, err)
		}
		return pngsIn(t, imgDir), res
	}
	coarse, resCoarse := run(false)
	fine, resFine := run(true)
	if resFine.DB.UnitsRead != resCoarse.DB.UnitsRead*int64(spec.FilesPerSnapshot) {
		t.Fatalf("unit counts: fine %d, coarse %d", resFine.DB.UnitsRead, resCoarse.DB.UnitsRead)
	}
	for name, data := range coarse {
		if !bytes.Equal(fine[name], data) {
			t.Fatalf("image %s differs between granularities", name)
		}
	}
}

func TestRunValidation(t *testing.T) {
	spec, dir := testDataset(t)
	test, _ := TestByName("simple")
	if _, err := Run("X", Config{Test: test, Spec: spec, Dir: dir}); err == nil {
		t.Fatal("unknown version accepted")
	}
	if _, err := Run(VersionTG, Config{Test: test, Spec: spec, Dir: dir, CompetingLoad: true}); err == nil {
		t.Fatal("CompetingLoad without a machine accepted")
	}
	if _, err := Run(VersionO, Config{Test: test, Spec: spec, Dir: "/no/such/dir"}); err == nil {
		t.Fatal("missing dataset directory accepted")
	}
}

func TestResultAccounting(t *testing.T) {
	spec, dir := testDataset(t)
	test, _ := TestByName("simple")
	res, err := Run(VersionG, Config{
		Test: test, Spec: spec, Dir: dir,
		Machine: testMachine(1), VolumeScale: 20, Snapshots: 2,
		Width: 64, Height: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 || res.VisibleIO <= 0 {
		t.Fatalf("times: total %v visible %v", res.Total, res.VisibleIO)
	}
	if res.Compute != res.Total-res.VisibleIO {
		t.Fatalf("compute %v != total-visible %v", res.Compute, res.Total-res.VisibleIO)
	}
	if res.VisibleIO > res.Total {
		t.Fatalf("visible I/O %v exceeds total %v", res.VisibleIO, res.Total)
	}
	if res.DB.UnitsRead != 2 || res.DB.UnitsDeleted != 2 {
		t.Fatalf("db stats: %+v", res.DB)
	}
	if res.Disk.Bytes == 0 || res.Disk.Opens == 0 {
		t.Fatalf("disk stats empty: %+v", res.Disk)
	}
}

func TestTestCatalog(t *testing.T) {
	tests := Tests()
	if len(tests) != 3 {
		t.Fatalf("got %d tests", len(tests))
	}
	if _, ok := TestByName("simple"); !ok {
		t.Fatal("simple test missing")
	}
	if _, ok := TestByName("nope"); ok {
		t.Fatal("TestByName invented a test")
	}
	// medium reads the most variables; complex has the most passes per
	// variable — the structure the paper's ratios rest on.
	simple, _ := TestByName("simple")
	medium, _ := TestByName("medium")
	complexT, _ := TestByName("complex")
	if len(medium.Vars) <= len(simple.Vars) || len(medium.Vars) <= len(complexT.Vars) {
		t.Fatal("medium does not read the most variables")
	}
	if len(complexT.Ops) <= len(simple.Ops) {
		t.Fatal("complex does not have more passes than simple")
	}
}
