package rocketeer

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"godiva/internal/core"
	"godiva/internal/genx"
)

// brokenImageDir returns an ImageDir the pipeline cannot create: a path
// under a regular file, so os.MkdirAll fails mid-render and p.run returns
// an error after the unit pins are already held.
func brokenImageDir(t *testing.T) string {
	t.Helper()
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(blocker, "images")
}

// TestSessionFailedViewReleasesPin is the regression test for the View
// error path: a render failure after ReadUnit must not leave the snapshot
// pinned, or the unit can never be evicted or deleted.
func TestSessionFailedViewReleasesPin(t *testing.T) {
	spec, dir := testDataset(t)
	s, err := NewSession(SessionConfig{
		Spec: spec, Dir: dir,
		ImageDir: brokenImageDir(t), Width: 64, Height: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.View(0, "surface", "velocity", 0); err == nil {
		t.Fatal("View with an uncreatable ImageDir succeeded")
	}
	for _, u := range s.db.Units() {
		if u.Refs != 0 {
			t.Errorf("unit %s still holds %d refs after the failed view", u.Name, u.Refs)
		}
	}
	// The unit must still be deletable — a leaked pin would wedge it.
	if err := s.Drop(0); err != nil {
		t.Fatalf("Drop after failed view: %v", err)
	}
}

// followTestDB opens a database primed with one step's file units reading
// from the shared on-disk dataset, as Follow would after its events landed.
func followTestDB(t *testing.T, spec genx.Spec, dir string, readFn core.ReadFunc) *core.DB {
	t.Helper()
	db := core.Open(core.Options{BackgroundIO: true})
	t.Cleanup(func() {
		if err := db.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	if err := defineSchema(db); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < spec.FilesPerSnapshot; f++ {
		if err := db.AddUnit(fileUnitName(0, f), readFn); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestFollowFailedRenderDropsUnits is the regression test for the
// renderFollowStep render-failure path: after p.run fails, every file unit
// of the abandoned step must be deleted, pins and all.
func TestFollowFailedRenderDropsUnits(t *testing.T) {
	spec, dir := testDataset(t)
	vt, _ := TestByName("simple")
	readFn := makeReadFunc(Config{Test: vt, Spec: spec, Dir: dir}, &genx.Reader{})
	db := followTestDB(t, spec, dir, readFn)

	st := &followStep{stepID: spec.StepID(0), files: map[int]bool{}}
	for f := 0; f < spec.FilesPerSnapshot; f++ {
		st.files[f] = true
	}
	maxBlocks := 0
	p := (&Config{Test: vt, ImageDir: brokenImageDir(t), Width: 64, Height: 48}).newPipeline()
	if _, err := renderFollowStep(db, p, 0, st, &maxBlocks); err == nil {
		t.Fatal("renderFollowStep with an uncreatable ImageDir succeeded")
	}
	for _, u := range db.Units() {
		if strings.HasPrefix(u.Name, "snap_0000_f") {
			t.Errorf("unit %s survived the abandoned step (refs=%d)", u.Name, u.Refs)
		}
	}
}

// TestFollowFailedWaitDropsAcquired is the regression test for the
// renderFollowStep wait-failure path: when one unit's read fails, the
// units already waited on must be released, not left pinned.
func TestFollowFailedWaitDropsAcquired(t *testing.T) {
	spec, dir := testDataset(t)
	vt, _ := TestByName("simple")
	goodRead := makeReadFunc(Config{Test: vt, Spec: spec, Dir: dir}, &genx.Reader{})
	bad := fileUnitName(0, spec.FilesPerSnapshot-1)
	readFn := func(u *core.Unit) error {
		if u.Name() == bad {
			return errors.New("injected read failure")
		}
		return goodRead(u)
	}
	db := followTestDB(t, spec, dir, readFn)

	st := &followStep{stepID: spec.StepID(0), files: map[int]bool{}}
	for f := 0; f < spec.FilesPerSnapshot; f++ {
		st.files[f] = true
	}
	maxBlocks := 0
	p := (&Config{Test: vt}).newPipeline()
	if _, err := renderFollowStep(db, p, 0, st, &maxBlocks); err == nil {
		t.Fatal("renderFollowStep with a failing unit read succeeded")
	}
	for _, u := range db.Units() {
		if u.Refs != 0 {
			t.Errorf("unit %s still holds %d refs after the failed wait", u.Name, u.Refs)
		}
	}
}
