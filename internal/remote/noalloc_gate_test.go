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

// d1hSpec is one snapshot of the repository benchmark's follow-live dataset
// (D1h: 120 blocks over 8 files on a 2×12×160 annulus).
func d1hSpec() genx.Spec {
	spec := genx.Default()
	spec.Mesh = mesh.AnnulusSpec{NR: 2, NTheta: 12, NZ: 160, RInner: 0.6, ROuter: 1.55, Length: 24}
	spec.Snapshots = 1
	return spec
}

// d1hFile is one snapshot file of the repository benchmark's follow-live
// dataset (D1h: 120 blocks over 8 files on a 2×12×160 annulus) as a
// producer ingests it.
func d1hFile(t *testing.T) *FilePayload {
	t.Helper()
	var fp *FilePayload
	errFirst := errors.New("first file")
	err := genx.StreamDataset(d1hSpec(), func(step, file int, blocks []*genx.BlockData) error {
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
		n += 8*len(m.Coords) + 4*len(m.Tets) + 8*len(m.GlobalNode)
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
// reused buffer, straight to the snapshot file: the client encodes the
// request in its connection's encoder, and the server decodes it into its
// connection's blocks and writes the file through its connection's SHDF
// writer. Once both connections are warm, client and server together
// allocate less than 1/20 of the payload per ingest of one D1h file
// (390,720 bytes): about 1,120 bytes on amd64, the file's os.File, path
// strings and block names. A fresh encoder per call, fresh decode maps and
// a fresh SHDF writer per file (its 64 KiB buffer, directory and names)
// allocated 217,700 bytes here, measured the same way.
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
	t.Logf("%d-byte payload: %d bytes allocated per ingest (1/%.0f)", size, per, float64(size)/float64(per))
	if per*20 >= size {
		t.Fatalf("an ingest of a %d-byte payload allocates %d bytes, want less than 1/20 of it", size, per)
	}
}

// A fetch answer is encoded straight from the mapped snapshot file into the
// connection's reused frame encoder, and decoded in place into a pooled
// frame and the blocks decoded from it last time: once the connection, the
// frame pool and the file table are warm, client and server together
// allocate less than 1/200 of the payload per fetch of one D1h snapshot (8
// files, every var, 3,125,760 bytes) — 9,160 bytes on amd64. Two garbage
// collections run before each fetch, as they do between the fetches of a
// long-running client, so a frame pool that drops idle frames at a
// collection fails here on every run. Each reuse mechanism of the path,
// reverted alone, fails this bound (EXPERIMENTS.md "Allocation ledger"): a
// sync.Pool for frames, 3,336,331 bytes; a fresh block stock per decode,
// 173,639; field names allocated per decode instead of the catalog's,
// 21,506.
func TestFetchAllocBound(t *testing.T) {
	spec := d1hSpec()
	dir := t.TempDir()
	if _, err := genx.WriteDataset(spec, dir); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ServerOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(ClientOptions{Addr: srv.Addr(), PoolSize: 1})
	defer c.Close()
	paths := spec.SnapshotFiles("", 0)
	vars := append(append([]string{}, genx.NodeVectorFields...), genx.ElemScalarFields...)
	fetch := func() int64 {
		fps, err := c.FetchFiles(paths, vars)
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, fp := range fps {
			n += fp.Bytes()
			fp.Recycle()
		}
		return n
	}
	size := fetch() // connection, encoder, frame pool and file table warm
	const n = 20
	var total uint64
	var before, after runtime.MemStats
	for i := 0; i < n; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		fetch()
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	per := int64(total) / n
	t.Logf("%d-byte payload: %d bytes allocated per fetch (1/%.0f)", size, per, float64(size)/float64(per))
	if per*200 >= size {
		t.Fatalf("a fetch of a %d-byte payload allocates %d bytes, want less than 1/200 of it", size, per)
	}
}
