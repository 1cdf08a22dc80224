// AllocsPerRun gates for this package's //godiva:noalloc functions (see
// internal/noalloctest). Excluded under -race, whose instrumented runtime
// makes allocation counts meaningless.

//go:build !race

package remote

import (
	"errors"
	"runtime"
	"testing"

	"godiva/internal/genx"
	"godiva/internal/mesh"
	"godiva/internal/noalloctest"
)

func TestNoAllocGates(t *testing.T) {
	// Stats never touches the wire, so the unreachable address is fine:
	// connections are dialed lazily.
	c := NewClient(ClientOptions{Addr: "127.0.0.1:1"})
	defer c.Close()
	var s RemoteStats
	d := &dec{b: make([]byte, 64), off: 3}
	noalloctest.Check(t, ".", map[string]func(){
		"Client.Stats": func() {
			s = c.Stats()
		},
		"dec.align": func() {
			d.off = 8 // on a boundary: no pad
			d.align(8)
			d.off = 3 // mid-field: align must skip a real pad each run
			d.align(8)
		},
	})
	if s.RPCs != 0 {
		t.Errorf("idle client reported %d RPCs, want 0", s.RPCs)
	}
	if d.off != 8 || d.err != nil {
		t.Errorf("align gate left off=%d err=%v, want 8, nil", d.off, d.err)
	}
}

// d1hFile is one snapshot file of the repository benchmark's follow-live
// dataset (D1h: 120 blocks over 8 files on a 2×12×160 annulus) as a
// producer ingests it.
func d1hFile(t *testing.T) *FilePayload {
	t.Helper()
	spec := genx.Default()
	spec.Mesh = mesh.AnnulusSpec{NR: 2, NTheta: 12, NZ: 160, RInner: 0.6, ROuter: 1.55, Length: 24}
	spec.Snapshots = 1
	var fp *FilePayload
	errFirst := errors.New("first file")
	err := genx.StreamDataset(spec, func(step, file int, blocks []*genx.BlockData) error {
		fp = &FilePayload{Time: blocks[0].Time, StepID: blocks[0].StepID, Blocks: blocks}
		return errFirst
	})
	if err != errFirst {
		t.Fatal(err)
	}
	return fp
}

// payloadBytes is the total size of a payload's arrays.
func payloadBytes(fp *FilePayload) int {
	n := 0
	for _, bd := range fp.Blocks {
		m := bd.Mesh
		n += 8*len(m.Coords) + 4*len(m.Tets) + 4*len(m.GlobalNode)
		for _, v := range bd.Node {
			n += 8 * len(v)
		}
		for _, v := range bd.Elem {
			n += 8 * len(v)
		}
	}
	return n
}

// An ingest's arrays go from the request frame, read into the connection's
// reused buffer, straight to the snapshot file: client and server together
// allocate less than the payload per ingest, where a fresh request frame
// plus a re-encoded copy of every array cost 5.4 times it.
func TestIngestAllocBound(t *testing.T) {
	srv, err := Serve(ServerOptions{Dir: t.TempDir(), Ingest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(ClientOptions{Addr: srv.Addr(), PoolSize: 1})
	defer c.Close()
	fp := d1hFile(t)
	size := payloadBytes(fp)
	path := genx.SnapshotFile("", 0, 0)
	if err := c.Ingest(path, fp); err != nil { // connection, buffers and file table warm
		t.Fatal(err)
	}
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := c.Ingest(path, fp); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := int(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%d-byte payload: %d bytes allocated per ingest (%.2f×)", size, per, float64(per)/float64(size))
	if per >= size {
		t.Fatalf("an ingest of a %d-byte payload allocates %d bytes, want less than the payload", size, per)
	}
}
