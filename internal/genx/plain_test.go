package genx

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestPlainRoundTripMatchesSHDF(t *testing.T) {
	spec := tinySpec()
	dir := t.TempDir()
	if _, err := WriteDataset(spec, dir); err != nil {
		t.Fatal(err)
	}
	plainDir := t.TempDir()
	if _, err := WritePlainDataset(spec, plainDir); err != nil {
		t.Fatal(err)
	}
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
