package genx

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"godiva/internal/mesh"
	"godiva/internal/zerocopy"
)

func TestPlainRoundTripMatchesSHDF(t *testing.T) {
	spec := tinySpec()
	dir := t.TempDir()
	if _, err := WriteDataset(spec, dir); err != nil {
		t.Fatal(err)
	}
	plainDir := t.TempDir()
	blocks, err := WritePlainDataset(spec, plainDir)
	if err != nil {
		t.Fatal(err)
	}
	checkPlainMatchesSHDF(t, dir, plainDir, blocks)
}

// With the little-endian fast path forced off, as on a big-endian host,
// both formats' writers encode element-wise and must still produce the
// native files byte for byte, and both readers decode those files
// element-wise to the generator's arrays. It flips a package-level switch,
// so it must not run in parallel.
func TestPlainRoundTripMatchesSHDFForcedOff(t *testing.T) {
	spec := tinySpec()
	dir, plainDir := t.TempDir(), t.TempDir()
	if _, err := WriteDataset(spec, dir); err != nil {
		t.Fatal(err)
	}
	blocks, err := WritePlainDataset(spec, plainDir)
	if err != nil {
		t.Fatal(err)
	}
	defer func(le bool) { zerocopy.LittleEndian = le }(zerocopy.LittleEndian)
	zerocopy.LittleEndian = false
	offDir, offPlainDir := t.TempDir(), t.TempDir()
	if _, err := WriteDataset(spec, offDir); err != nil {
		t.Fatal(err)
	}
	if _, err := WritePlainDataset(spec, offPlainDir); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < spec.Snapshots; step++ {
		for i := 0; i < spec.FilesPerSnapshot; i++ {
			sameBytes(t, SnapshotFile(dir, step, i), SnapshotFile(offDir, step, i))
			sameBytes(t, PlainSnapshotFile(plainDir, step, i), PlainSnapshotFile(offPlainDir, step, i))
		}
	}
	checkPlainMatchesSHDF(t, dir, plainDir, blocks)
}

func sameBytes(t *testing.T, a, b string) {
	t.Helper()
	x, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	y, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x, y) {
		t.Fatalf("%s and %s differ", a, b)
	}
}

// checkPlainMatchesSHDF reads the first snapshot file of both formats and
// compares them element by element, and the plain mesh arrays with the
// generator's blocks.
func checkPlainMatchesSHDF(t *testing.T, dir, plainDir string, blocks []*mesh.TetMesh) {
	t.Helper()
	r := &Reader{}
	sh, err := r.Open(SnapshotFile(dir, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	pl, err := r.OpenPlain(PlainSnapshotFile(plainDir, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Blocks()) != len(sh.Blocks()) {
		t.Fatalf("plain file has %d blocks, SHDF %d", len(pl.Blocks()), len(sh.Blocks()))
	}
	for i, e := range sh.Blocks() {
		b := pl.Blocks()[i]
		if b != e.ID {
			t.Fatalf("block order differs: %d vs %d", b, e.ID)
		}
		wantMesh, err := sh.ReadMesh(e)
		if err != nil {
			t.Fatal(err)
		}
		gotMesh, err := pl.ReadMesh(b)
		if err != nil {
			t.Fatal(err)
		}
		if gotMesh.NumNodes() != wantMesh.NumNodes() || gotMesh.NumCells() != wantMesh.NumCells() {
			t.Fatalf("block %d: mesh %d/%d vs %d/%d", b,
				gotMesh.NumNodes(), gotMesh.NumCells(), wantMesh.NumNodes(), wantMesh.NumCells())
		}
		for j := range wantMesh.Coords {
			if gotMesh.Coords[j] != wantMesh.Coords[j] {
				t.Fatalf("block %d coords[%d] differ", b, j)
			}
		}
		for j := range wantMesh.Tets {
			if gotMesh.Tets[j] != wantMesh.Tets[j] {
				t.Fatalf("block %d conn[%d] differ", b, j)
			}
		}
		src := blocks[b]
		if !slices.Equal(gotMesh.Coords, src.Coords) || !slices.Equal(gotMesh.Tets, src.Tets) ||
			!slices.Equal(gotMesh.GlobalNode, src.GlobalNode) {
			t.Fatalf("block %d: plain mesh arrays differ from the generator's", b)
		}
		for _, field := range []string{"velocity", "stress_avg", "temperature"} {
			want, err := sh.ReadField(e, field)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pl.ReadField(b, field)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("block %d %s: %d vs %d values", b, field, len(got), len(want))
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("block %d %s[%d]: %v vs %v", b, field, j, got[j], want[j])
				}
			}
		}
	}
}

func TestPlainErrors(t *testing.T) {
	spec := tinySpec()
	plainDir := t.TempDir()
	if _, err := WritePlainDataset(spec, plainDir); err != nil {
		t.Fatal(err)
	}
	r := &Reader{}
	h, err := r.OpenPlain(PlainSnapshotFile(plainDir, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadField(0, "no_such"); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := h.ReadMesh(999); err == nil {
		t.Fatal("unknown block accepted")
	}
	if _, err := r.OpenPlain(PlainSnapshotFile(plainDir, 99, 0)); err == nil {
		t.Fatal("missing file accepted")
	}

	// Hostile tables of contents: each must come back as an error, never a
	// panic or an out-of-range read.
	header := func(n uint32) []byte {
		b := append([]byte(plainMagic), 0, 0, 0, 0, 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(b[4:8], plainVersion)
		binary.LittleEndian.PutUint32(b[8:12], n)
		return b
	}
	entry := func(b []byte, code uint16, count uint64) []byte {
		e := make([]byte, 16)
		binary.LittleEndian.PutUint16(e[4:6], code)
		binary.LittleEndian.PutUint64(e[8:16], count)
		return append(b, e...)
	}
	valid, err := os.ReadFile(PlainSnapshotFile(plainDir, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"truncated data":    valid[:len(valid)-1],
		"truncated table":   header(1000),
		"field code":        entry(header(1), uint16(len(plainFieldNames())), 0),
		"negative count":    entry(header(1), 0, 1<<63),
		"overflowing count": entry(header(1), 0, 1<<61),
	} {
		path := filepath.Join(t.TempDir(), "hostile.gxp")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := r.OpenPlain(path); err == nil {
			t.Errorf("%s: OpenPlain accepted a hostile table", name)
		}
	}
}
