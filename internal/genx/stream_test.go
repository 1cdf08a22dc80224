package genx

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestParseSnapshotFile(t *testing.T) {
	cases := []struct {
		name       string
		step, file int
		ok         bool
	}{
		{"genx_t0000_0.shdf", 0, 0, true},
		{"genx_t0003_1.shdf", 3, 1, true},
		{"genx_t0123_7.shdf", 123, 7, true},
		{"/some/dir/genx_t0042_2.shdf", 42, 2, true},
		{"genx_t12345_0.shdf", 12345, 0, true}, // wider than the pad: still canonical
		{"genx_t003_1.shdf", 0, 0, false},      // wrong padding
		{"genx_t0003_1.shdf.tmp", 0, 0, false},
		{"genx_t0003.shdf", 0, 0, false},
		{"other_t0003_1.shdf", 0, 0, false},
		{"genx_t-003_1.shdf", 0, 0, false},
		{"", 0, 0, false},
	}
	for _, c := range cases {
		step, file, ok := ParseSnapshotFile(c.name)
		if ok != c.ok || step != c.step || file != c.file {
			t.Errorf("ParseSnapshotFile(%q) = (%d, %d, %v), want (%d, %d, %v)",
				c.name, step, file, ok, c.step, c.file, c.ok)
		}
	}
}

// TestStreamRoundTrip streams a tiny dataset through WriteBlockDataFile and
// checks the files read back with the same shape and values the in-memory
// payloads carried — the property the ingest path depends on — and that each
// is byte for byte the file WriteDataset generates for the same step, so an
// ingested dataset reads like a generated one.
func TestStreamRoundTrip(t *testing.T) {
	spec := Scaled(32)
	spec.Snapshots = 2
	dir := t.TempDir()

	made := map[string][]*BlockData{}
	err := StreamDataset(spec, func(step, file int, blocks []*BlockData) error {
		path := SnapshotFile(dir, step, file)
		made[path] = blocks
		bd := blocks[0]
		return WriteBlockDataFile(path, bd.Time, step, bd.StepID, blocks)
	})
	if err != nil {
		t.Fatalf("StreamDataset: %v", err)
	}

	genDir := t.TempDir()
	if _, err := WriteDataset(spec, genDir); err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
	for path := range made {
		streamed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		generated, err := os.ReadFile(filepath.Join(genDir, filepath.Base(path)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed, generated) {
			t.Errorf("%s: streamed file (%d bytes) differs from WriteDataset's (%d bytes)",
				filepath.Base(path), len(streamed), len(generated))
		}
	}

	got, err := Discover(dir)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if got.Snapshots != spec.Snapshots || got.FilesPerSnapshot != spec.FilesPerSnapshot ||
		got.Blocks != spec.Blocks {
		t.Fatalf("Discover = %+v, want counts from %+v", got, spec)
	}

	r := &Reader{}
	for path, blocks := range made {
		h, err := r.Open(path)
		if err != nil {
			t.Fatalf("Open(%s): %v", path, err)
		}
		if len(h.Blocks()) != len(blocks) {
			t.Fatalf("%s: %d blocks on disk, streamed %d", filepath.Base(path), len(h.Blocks()), len(blocks))
		}
		for _, e := range h.Blocks() {
			var want *BlockData
			for _, bd := range blocks {
				if bd.ID == e.ID {
					want = bd
				}
			}
			if want == nil {
				t.Fatalf("%s: unexpected block %d on disk", filepath.Base(path), e.ID)
			}
			bd, err := h.ReadBlock(e, []string{"velocity", "stress_avg"})
			if err != nil {
				t.Fatalf("ReadBlock(%d): %v", e.ID, err)
			}
			if bd.StepID != want.StepID || bd.Time != want.Time {
				t.Errorf("block %d: step (%q, %g), want (%q, %g)",
					e.ID, bd.StepID, bd.Time, want.StepID, want.Time)
			}
			checkSame(t, "coords", bd.Mesh.Coords, want.Mesh.Coords)
			checkSame(t, "velocity", bd.Node["velocity"], want.Node["velocity"])
			checkSame(t, "stress_avg", bd.Elem["stress_avg"], want.Elem["stress_avg"])
		}
		h.Close()
	}
}

// A block's variable fields go to its file in catalog order, node vectors
// before element scalars, and then any other field in sorted name order.
func TestBlockFieldOrder(t *testing.T) {
	bd := &BlockData{
		Node: map[string][]float64{"velocity": nil, "zeta": nil, "displacement": nil},
		Elem: map[string][]float64{"s11": nil, "beta": nil, "stress_avg": nil},
	}
	want := []string{"displacement", "velocity", "stress_avg", "s11", "beta", "zeta"}
	if got := blockFieldOrder(bd); !slices.Equal(got, want) {
		t.Fatalf("blockFieldOrder = %v, want %v", got, want)
	}
}

func checkSame(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 0 {
			t.Fatalf("%s[%d] = %g, want %g", name, i, got[i], want[i])
		}
	}
}
