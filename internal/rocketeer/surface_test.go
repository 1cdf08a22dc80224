package rocketeer

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"runtime"
	"sort"
	"testing"

	"godiva/internal/core"
	"godiva/internal/genx"
)

// pinnedImageDigest is imageDigest as the commit before the map-free vis
// kernels computed it (GOARCH=amd64). The version-equivalence tests only
// compare builds with each other, and every build shares vis and render: a
// kernel change that moved all images alike would pass them. This constant
// does not move with the code.
const pinnedImageDigest = "3beb84ecbd0202f13903c43fe4a7f8bff5682c607b3a90d9d406934ccafb40e0"

// imageDigest renders every test over the test dataset with the O and TG
// builds and hashes the PNGs in name order.
func imageDigest(t *testing.T) string {
	t.Helper()
	spec, dir := testDataset(t)
	images := map[string][]byte{}
	for _, vt := range Tests() {
		for _, v := range []Version{VersionO, VersionTG} {
			imgDir := t.TempDir()
			if _, err := Run(v, Config{
				Test: vt, Spec: spec, Dir: dir,
				ImageDir: imgDir, Width: 96, Height: 72,
			}); err != nil {
				t.Fatalf("%s/%s: %v", vt.Name, v, err)
			}
			for name, data := range pngsIn(t, imgDir) {
				images[string(v)+"/"+name] = data
			}
		}
	}
	names := make([]string, 0, len(images))
	for n := range images {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write(images[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestImagesMatchPinnedDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest pinned on amd64; %s may fuse multiply-adds (the vis and mesh oracle tests carry the property there)", runtime.GOARCH)
	}
	if got := imageDigest(t); got != pinnedImageDigest {
		t.Fatalf("image digest %s, want %s: some rendered image changed", got, pinnedImageDigest)
	}
}

// A batch run whose test has a surface pass gets each block's topology from
// its read function, as a field of the unit: resident once the unit is
// ready, the size of the block's boundary, and released with the unit.
func TestReadFunctionStoresSurfaceInUnit(t *testing.T) {
	spec, dir := testDataset(t)
	test, _ := TestByName("simple")
	db := core.Open(core.Options{MemoryLimit: 64 << 20, BackgroundIO: true})
	defer db.Close()
	if err := defineSchema(db); err != nil {
		t.Fatal(err)
	}
	readFn := makeReadFunc(Config{Test: test, Spec: spec, Dir: dir}, &genx.Reader{})
	before := db.MemUsed()
	unit := unitName(1)
	if err := db.AddUnit(unit, readFn); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitUnit(unit); err != nil {
		t.Fatal(err)
	}
	src := &gSource{db: db, stepID: spec.StepID(1)}
	for b := 0; b < spec.Blocks; b++ {
		name := genx.BlockID(b)
		buf, err := db.GetFieldBuffer(recBlock, fieldSurface, name, src.stepID)
		if err != nil {
			t.Fatalf("block %s: derived field not resident: %v", name, err)
		}
		stored, err := buf.Int32s()
		if err != nil {
			t.Fatal(err)
		}
		m, err := src.Mesh(name)
		if err != nil {
			t.Fatal(err)
		}
		faces := m.BoundaryFaces()
		if len(faces) == 0 || len(stored) != 3*len(faces) {
			t.Fatalf("block %s: field holds %d indices, want 3 x %d boundary triangles", name, len(stored), len(faces))
		}
		for i, f := range faces {
			if [3]int32(stored[3*i:3*i+3]) != f {
				t.Fatalf("block %s: stored triangle %d = %v, want %v", name, i, stored[3*i:3*i+3], f)
			}
		}
	}
	if db.MemUsed() <= before {
		t.Fatalf("resident unit charges %d bytes, no more than the %d before it", db.MemUsed(), before)
	}
	if err := db.DeleteUnit(unit); err != nil {
		t.Fatal(err)
	}
	if got := db.MemUsed(); got != before {
		t.Fatalf("MemUsed after DeleteUnit = %d, want the pre-unit %d", got, before)
	}
	if _, err := db.GetFieldBuffer(recBlock, fieldSurface, genx.BlockID(0), src.stepID); err == nil {
		t.Fatal("derived field outlived its unit")
	}
}

// A test without a surface pass stores no topology.
func TestReadFunctionSkipsSurfaceWhenNoPassNeedsIt(t *testing.T) {
	spec, dir := testDataset(t)
	test := VisTest{Name: "slices", Vars: []string{"stress_avg"},
		Ops: []Op{{Kind: OpSlice, Var: "stress_avg", PlaneFrac: 0.5}, {Kind: OpCut, Var: "stress_avg", PlaneFrac: 0.5}}}
	db := core.Open(core.Options{MemoryLimit: 64 << 20})
	defer db.Close()
	if err := defineSchema(db); err != nil {
		t.Fatal(err)
	}
	if err := db.ReadUnit(unitName(0), makeReadFunc(Config{Test: test, Spec: spec, Dir: dir}, &genx.Reader{})); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetFieldBuffer(recBlock, fieldSurface, genx.BlockID(0), spec.StepID(0)); !errors.Is(err, core.ErrNoBuffer) {
		t.Fatalf("derived field after a slice-only read: %v, want ErrNoBuffer", err)
	}
}

// A session's read function cannot know which views will come, so a miss
// stores no topology and pays nothing for it; a surface view builds it on
// demand and renders exactly what the batch build renders.
func TestSessionBuildsSurfaceOnDemand(t *testing.T) {
	spec, dir := testDataset(t)
	imgDir := t.TempDir()
	s := newTestSession(t, imgDir)
	v, err := s.View(1, "surface", "velocity", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.CacheHit {
		t.Fatal("first view reported a cache hit")
	}
	for b := 0; b < spec.Blocks; b++ {
		_, err := s.db.GetFieldBuffer(recBlock, fieldSurface, genx.BlockID(b), spec.StepID(1))
		if !errors.Is(err, core.ErrNoBuffer) {
			t.Fatalf("block %d: derived field after a session miss: %v, want ErrNoBuffer", b, err)
		}
	}
	got, err := os.ReadFile(v.Image)
	if err != nil {
		t.Fatal(err)
	}
	batchDir := t.TempDir()
	test := VisTest{Name: "batch", Vars: []string{"velocity"}, Ops: []Op{{Kind: OpSurface, Var: "velocity"}}}
	if _, err := Run(VersionTG, Config{
		Test: test, Spec: spec, Dir: dir, FirstSnapshot: 1, Snapshots: 1,
		ImageDir: batchDir, Width: 64, Height: 48,
	}); err != nil {
		t.Fatal(err)
	}
	want := pngsIn(t, batchDir)["batch_t0001_00_surface_velocity.png"]
	if len(want) == 0 {
		t.Fatal("batch run wrote no surface image")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("session surface view differs from the batch build's image of the same pass")
	}
}
