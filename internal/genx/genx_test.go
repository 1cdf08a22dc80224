package genx

import (
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"godiva/internal/mesh"
	"godiva/internal/platform"
)

// tinySpec is a fast dataset for tests: 2 snapshots, 4 blocks, 2 files.
func tinySpec() Spec {
	return Spec{
		Mesh: mesh.AnnulusSpec{
			NR: 2, NTheta: 8, NZ: 4,
			RInner: 0.6, ROuter: 1.55, Length: 4,
		},
		Blocks:           4,
		Snapshots:        2,
		FilesPerSnapshot: 2,
		DT:               2.5e-5,
	}
}

func writeTiny(t *testing.T) (Spec, string, []*mesh.TetMesh) {
	t.Helper()
	spec := tinySpec()
	dir := t.TempDir()
	blocks, err := WriteDataset(spec, dir)
	if err != nil {
		t.Fatal(err)
	}
	return spec, dir, blocks
}

func TestWriteDatasetCreatesAllFiles(t *testing.T) {
	spec, dir, blocks := writeTiny(t)
	if len(blocks) != spec.Blocks {
		t.Fatalf("got %d blocks, want %d", len(blocks), spec.Blocks)
	}
	for step := 0; step < spec.Snapshots; step++ {
		for _, path := range spec.SnapshotFiles(dir, step) {
			st, err := os.Stat(path)
			if err != nil {
				t.Fatalf("missing snapshot file: %v", err)
			}
			if st.Size() == 0 {
				t.Fatalf("empty snapshot file %s", path)
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	spec, dir, blocks := writeTiny(t)
	r := &Reader{}
	h, err := r.Open(SnapshotFile(dir, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	if h.Time != spec.DT {
		t.Fatalf("time attr = %v, want %v", h.Time, spec.DT)
	}
	if h.StepID != "0.000025" {
		t.Fatalf("step_id = %q, want 0.000025 (the paper's first step)", h.StepID)
	}
	entries := h.Blocks()
	// Blocks are dealt round-robin: file 0 of 2 holds blocks 0 and 2.
	if len(entries) != 2 || entries[0].ID != 0 || entries[1].ID != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	bd, err := h.ReadBlock(entries[0], []string{"velocity", "stress_avg"})
	if err != nil {
		t.Fatal(err)
	}
	want := blocks[0]
	if bd.Mesh.NumNodes() != want.NumNodes() || bd.Mesh.NumCells() != want.NumCells() {
		t.Fatalf("mesh %d/%d, want %d/%d",
			bd.Mesh.NumNodes(), bd.Mesh.NumCells(), want.NumNodes(), want.NumCells())
	}
	if err := bd.Mesh.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range want.Coords {
		if bd.Mesh.Coords[i] != want.Coords[i] {
			t.Fatalf("coords[%d] = %v, want %v", i, bd.Mesh.Coords[i], want.Coords[i])
		}
	}
	if len(bd.Node["velocity"]) != 3*want.NumNodes() {
		t.Fatalf("velocity has %d values", len(bd.Node["velocity"]))
	}
	if len(bd.Elem["stress_avg"]) != want.NumCells() {
		t.Fatalf("stress_avg has %d values", len(bd.Elem["stress_avg"]))
	}
	// Values must match the analytic fields.
	v := bd.Node["velocity"]
	x, y, z := NodeVector("velocity", want.Node(0), spec.DT)
	if v[0] != x || v[1] != y || v[2] != z {
		t.Fatalf("velocity[0] = (%v,%v,%v), want (%v,%v,%v)", v[0], v[1], v[2], x, y, z)
	}
	s := bd.Elem["stress_avg"]
	if got, want := s[0], ElemScalar("stress_avg", want.CellCentroid(0), spec.DT); got != want {
		t.Fatalf("stress_avg[0] = %v, want %v", got, want)
	}
}

func TestReadFieldErrors(t *testing.T) {
	_, dir, _ := writeTiny(t)
	r := &Reader{}
	h, err := r.Open(SnapshotFile(dir, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	e := h.Blocks()[0]
	if _, err := h.ReadField(e, "no_such_field"); err == nil {
		t.Fatal("ReadField of unknown field succeeded")
	}
	if _, err := h.ReadBlock(e, []string{"conn"}); err == nil {
		t.Fatal("ReadBlock with a non-variable field succeeded")
	}
}

func TestSnapshotsEvolveInTime(t *testing.T) {
	spec, dir, _ := writeTiny(t)
	r := &Reader{}
	read := func(step int) []float64 {
		h, err := r.Open(SnapshotFile(dir, step, 0))
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		s, err := h.ReadField(h.Blocks()[0], "stress_avg")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if spec.Snapshots < 2 {
		t.Fatalf("writeTiny produced %d snapshots; need at least 2", spec.Snapshots)
	}
	s0 := read(0)
	s1 := read(1)
	diff := 0.0
	for i := range s0 {
		diff += math.Abs(s1[i] - s0[i])
	}
	if diff == 0 {
		t.Fatal("stress field identical across snapshots; time evolution missing")
	}
}

func TestReaderChargesPlatform(t *testing.T) {
	_, dir, _ := writeTiny(t)
	m := platform.New(platform.Spec{
		Name: "fast", NumCPU: 2, CPUSpeed: 1, RenderSpeed: 1,
		DiskBandwidth: 1e12, DiskSeek: 0, DiskOpen: 0,
		DecodeRate: 1e12, Quantum: time.Millisecond,
	})
	r := &Reader{M: m}
	var err error
	m.Run(func() {
		var h *FileHandle
		if h, err = r.Open(SnapshotFile(dir, 0, 0)); err != nil {
			return
		}
		defer h.Close()
		_, err = h.ReadBlock(h.Blocks()[0], []string{"velocity"})
	})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Disk()
	if d.Opens != 1 {
		t.Fatalf("Opens = %d, want 1", d.Opens)
	}
	if d.Bytes == 0 {
		t.Fatal("no bytes charged to the platform disk")
	}
	if m.CPUBusy() == 0 {
		t.Fatal("no decode CPU charged")
	}
}

// Sequential reads of a block's fields in file order must not charge seeks
// beyond the initial positioning; re-reading an earlier field must.
func TestSeekCharging(t *testing.T) {
	_, dir, _ := writeTiny(t)
	m := platform.New(platform.Spec{
		Name: "fast", NumCPU: 1, CPUSpeed: 1, RenderSpeed: 1,
		DiskBandwidth: 1e12, DiskSeek: 0, DiskOpen: 0,
		DecodeRate: 1e12, Quantum: time.Millisecond,
	})
	r := &Reader{M: m}
	m.Run(func() {
		h, err := r.Open(SnapshotFile(dir, 0, 0))
		if err != nil {
			t.Error(err)
			return
		}
		defer h.Close()
		e := h.Blocks()[0]
		if _, err := h.ReadMesh(e); err != nil {
			t.Error(err)
			return
		}
		seq := m.Disk().Seeks
		// coords..gids are contiguous: at most the initial seek.
		if seq > 2 {
			t.Errorf("sequential mesh read charged %d seeks", seq)
		}
		// Going back to coords is a seek, and the following conn read, now
		// sequential again, is not.
		if _, err := h.ReadField(e, "coords"); err != nil {
			t.Error(err)
			return
		}
		if got := m.Disk().Seeks; got != seq+1 {
			t.Errorf("re-read charged %d seeks, want %d", got-seq, 1)
		}
	})
}

func TestScaledSpecShrinks(t *testing.T) {
	full := Default()
	small := Scaled(8)
	if small.Blocks >= full.Blocks || small.Snapshots >= full.Snapshots {
		t.Fatalf("Scaled(8) did not shrink: %+v", small)
	}
	if small.Blocks < 2 || small.Snapshots < 2 || small.FilesPerSnapshot < 1 {
		t.Fatalf("Scaled(8) went below minimums: %+v", small)
	}
	if s := Scaled(0); s.Blocks != full.Blocks {
		t.Fatalf("Scaled(0) should clamp to full scale")
	}
}

func TestFieldCatalogs(t *testing.T) {
	if !IsNodeField("velocity") || IsNodeField("stress_avg") {
		t.Fatal("IsNodeField wrong")
	}
	if !IsElemField("s12") || IsElemField("coords") {
		t.Fatal("IsElemField wrong")
	}
	if got := BlockID(0); got != "block_0001" {
		t.Fatalf("BlockID(0) = %q", got)
	}
	spec := Default()
	if got := spec.StepID(0); got != "0.000025" {
		t.Fatalf("StepID(0) = %q, want the paper's 0.000025", got)
	}
	if got := spec.StepID(2); got != "0.000075" {
		t.Fatalf("StepID(2) = %q, want the paper's 0.000075", got)
	}
}

// A block's dataset names are "b%04d:field" of its number, as fmt writes
// them, and blockNumber reads a block group's name as fmt.Sscanf's
// "block_%d" does: BlockID's names, and odd ones a writer may give its
// blocks.
func TestBlockNames(t *testing.T) {
	names := []string{"block_0001_of_many", "block_1_2", "block_ 12", "block_\t3", "block_ +7", "block_+ 7", "block_-5",
		"block_12x", "block_0x1f", "block_", "block_x", "block_\n5", "block_99999999999999999999", "block_-0", "block_+", "block_--1"}
	for _, id := range []int{0, 8, 9, 98, 99, 998, 999, 9998, 9999, 123456, -1, -2, -6, -100, -999, -1000, -12345, math.MaxInt - 1, math.MaxInt, math.MinInt} {
		want := fmt.Sprintf("b%04d:%s", id+1, "velocity")
		if got := string(appendSDSName([]byte("x"), id, "velocity")); got != "x"+want {
			t.Errorf("appendSDSName(%d) = %q, want %q", id, got, "x"+want)
		}
		names = append(names, BlockID(id))
	}
	for _, name := range names {
		var want int
		n, err := fmt.Sscanf(name, "block_%d", &want)
		ok := n == 1 && err == nil
		if got, err := blockNumber(name); (err == nil) != ok || got != want {
			t.Errorf("blockNumber(%q) = %d, %v; fmt.Sscanf reads %d, ok %v", name, got, err, want, ok)
		}
	}
}

// ElemScalar fields must stay in physically plausible, bounded ranges over
// the whole dataset lifetime (color maps depend on this).
func TestFieldRanges(t *testing.T) {
	spec := tinySpec()
	grain := mesh.GenerateAnnulus(spec.Mesh)
	for step := 0; step < 4; step++ {
		tm := float64(step+1) * spec.DT
		for e := 0; e < grain.NumCells(); e++ {
			c := grain.CellCentroid(e)
			temp := ElemScalar("temperature", c, tm)
			if temp < 250 || temp > 3200 {
				t.Fatalf("temperature %v out of range at %v", temp, c)
			}
			s := ElemScalar("stress_avg", c, tm)
			if s < 0 || s > 4e6 {
				t.Fatalf("stress_avg %v out of range", s)
			}
		}
	}
}
