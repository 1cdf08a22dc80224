package remote_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"godiva/internal/core"
	"godiva/internal/genx"
	"godiva/internal/remote"
	"godiva/internal/zerocopy"
)

// allPaths lists every snapshot file of spec, in dataset order.
func allPaths(spec genx.Spec) []string {
	var paths []string
	for s := 0; s < spec.Snapshots; s++ {
		paths = append(paths, spec.SnapshotFiles("", s)...)
	}
	return paths
}

// sameBlocks fails the test unless two payloads carry identical block data.
func sameBlocks(t *testing.T, got, want *remote.FilePayload) {
	t.Helper()
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("block count %d != %d", len(got.Blocks), len(want.Blocks))
	}
	for i, g := range got.Blocks {
		w := want.Blocks[i]
		if g.Name != w.Name || g.StepID != w.StepID {
			t.Fatalf("block %d is %s/%s, want %s/%s", i, g.Name, g.StepID, w.Name, w.StepID)
		}
		if len(g.Mesh.Coords) != len(w.Mesh.Coords) {
			t.Fatalf("block %s coords %d != %d", g.Name, len(g.Mesh.Coords), len(w.Mesh.Coords))
		}
		for j, v := range g.Mesh.Coords {
			if v != w.Mesh.Coords[j] {
				t.Fatalf("block %s coord %d: %v != %v", g.Name, j, v, w.Mesh.Coords[j])
			}
		}
		if !slices.Equal(g.Mesh.Tets, w.Mesh.Tets) || !slices.Equal(g.Mesh.GlobalNode, w.Mesh.GlobalNode) {
			t.Fatalf("block %s connectivity or global node IDs differ", g.Name)
		}
		if len(g.Node) != len(w.Node) || len(g.Elem) != len(w.Elem) {
			t.Fatalf("block %s carries %d node and %d elem fields, want %d and %d",
				g.Name, len(g.Node), len(g.Elem), len(w.Node), len(w.Elem))
		}
		for _, fields := range [][2]map[string][]float64{{g.Node, w.Node}, {g.Elem, w.Elem}} {
			for name, gv := range fields[0] {
				wv := fields[1][name]
				if len(gv) != len(wv) {
					t.Fatalf("block %s field %s: %d != %d values", g.Name, name, len(gv), len(wv))
				}
				for j, v := range gv {
					if v != wv[j] {
						t.Fatalf("block %s field %s[%d]: %v != %v", g.Name, name, j, v, wv[j])
					}
				}
			}
		}
	}
}

// An 8-file unit costs one RPC, where fetching file by file costs eight, and
// the payloads are identical either way.
func TestFetchFilesBatchedE2E(t *testing.T) {
	spec := testSpec()
	dir := writeDataset(t, spec)
	srv := startServer(t, dir)
	paths := allPaths(spec) // 4 snapshots x 2 files = 8
	if len(paths) != 8 {
		t.Fatalf("want an 8-file set, got %d", len(paths))
	}

	// Reference payloads fetched one file at a time, on a separate client.
	ref := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer ref.Close()
	want := make([]*remote.FilePayload, len(paths))
	for i, p := range paths {
		fp, err := ref.FetchFile(p, testVars)
		if err != nil {
			t.Fatal(err)
		}
		defer fp.Recycle()
		want[i] = fp
	}
	refRPCs := ref.Stats().RPCs
	if refRPCs != int64(len(paths)) {
		t.Fatalf("file-by-file fetches used %d RPCs, want %d", refRPCs, len(paths))
	}

	c := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer c.Close()
	fps, err := c.FetchFiles(paths, testVars)
	if err != nil {
		t.Fatal(err)
	}
	for i, fp := range fps {
		if fp.Path != paths[i] {
			t.Fatalf("payload %d is %q, want %q", i, fp.Path, paths[i])
		}
		sameBlocks(t, fp, want[i])
		fp.Recycle()
	}
	rs := c.Stats()
	if rs.RPCs != 1 {
		t.Fatalf("8-file fetch used %d RPCs, want 1", rs.RPCs)
	}
	if rs.Fetches != int64(len(paths)) {
		t.Fatalf("Fetches = %d, want %d", rs.Fetches, len(paths))
	}

	// A second variable set over the same files: each is encoded from the
	// mapping the first set's fetch left in the server's table, and matches
	// a local read of the dataset.
	otherVars := []string{"displacement", "s11"}
	if fps, err = c.FetchFiles(paths, otherVars); err != nil {
		t.Fatal(err)
	}
	for i, fp := range fps {
		sameBlocks(t, fp, remote.LocalPayload(t, dir, paths[i], otherVars))
		fp.Recycle()
	}
	// Three passes over the files: the first maps each, the other two hit.
	if ss := srv.Stats(); ss.ReaderOpens != int64(len(paths)) || ss.ReaderHits != 2*int64(len(paths)) {
		t.Fatalf("three passes over %d files mapped %d files with %d reader hits, want %d and %d",
			len(paths), ss.ReaderOpens, ss.ReaderHits, len(paths), 2*len(paths))
	}
}

// More paths than fit one RPC: payloads still come back in paths order, in
// ⌈n/8⌉ round trips, and a failure in a later chunk fails the whole call.
func TestFetchFilesAcrossChunks(t *testing.T) {
	spec := testSpec()
	spec.Snapshots = 10 // x 2 files = 20 paths: chunks of 8, 8 and 4
	srv := startServer(t, writeDataset(t, spec))
	c := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer c.Close()

	paths := allPaths(spec)
	fps, err := c.FetchFiles(paths, testVars)
	if err != nil {
		t.Fatal(err)
	}
	for i, fp := range fps {
		want := spec.StepID(i / 2)
		if fp.Path != paths[i] || fp.StepID != want {
			t.Fatalf("payload %d is %q step %s, want %q step %s", i, fp.Path, fp.StepID, paths[i], want)
		}
		fp.Recycle()
	}
	if rs := c.Stats(); rs.RPCs != 3 {
		t.Fatalf("%d paths used %d RPCs, want 3", len(paths), rs.RPCs)
	}

	// A file missing from the third chunk fails the whole call (what happens
	// to the chunks already fetched: TestChunkFailureRecyclesEarlierChunks).
	bad := append(append([]string(nil), paths[:16]...), "missing_9999.shdf")
	if fps, err := c.FetchFiles(bad, testVars); err == nil || fps != nil {
		t.Fatalf("FetchFiles with a missing file in its last chunk = %v, %v", fps, err)
	}
}

// A fetch whose items partly fail answers file by file: good files arrive,
// bad files carry their own error.
func TestFetchFilesPartialFailure(t *testing.T) {
	spec := testSpec()
	srv := startServer(t, writeDataset(t, spec))
	c := remote.NewClient(remote.ClientOptions{Addr: srv.Addr(), MaxRetries: 1})
	defer c.Close()

	good := genx.SnapshotFile("", 0, 0)
	if _, err := c.FetchFiles([]string{good, "missing_9999.shdf"}, testVars); err == nil {
		t.Fatal("a fetch with a missing file must fail")
	}
	// The good file is still servable afterwards (its payload was recycled
	// by the failing FetchFiles call, not leaked).
	fp, err := c.FetchFile(good, testVars)
	if err != nil {
		t.Fatal(err)
	}
	fp.Recycle()
}

// Eight clients hammering a 4-file hot set are served from the server's
// table of mapped files: every fetch after the cold pass is a reader hit,
// no payload bytes are copied, and the bytes match a cold fetch.
func TestPayloadCacheHotSetE2E(t *testing.T) {
	spec := testSpec()
	srv := startServer(t, writeDataset(t, spec))
	hot := spec.SnapshotFiles("", 0)
	hot = append(hot, spec.SnapshotFiles("", 1)...) // 4 files
	if len(hot) != 4 {
		t.Fatalf("want a 4-file hot set, got %d", len(hot))
	}

	cold := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer cold.Close()
	want := make(map[string]*remote.FilePayload)
	for _, p := range hot {
		fp, err := cold.FetchFile(p, testVars)
		if err != nil {
			t.Fatal(err)
		}
		defer fp.Recycle()
		want[p] = fp
	}

	const workers, rounds = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		c := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
		defer c.Close()
		wg.Add(1)
		go func(c *remote.Client, w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				p := hot[(w+round)%len(hot)]
				fp, err := c.FetchFile(p, testVars)
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				fp.Recycle()
			}
		}(c, w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ss := srv.Stats()
	if ss.ReaderOpens != int64(len(hot)) || ss.ReaderHits != workers*rounds {
		t.Fatalf("%d hot fetches mapped %d files with %d reader hits, want %d and %d",
			workers*rounds, ss.ReaderOpens, ss.ReaderHits, len(hot), workers*rounds)
	}
	if zerocopy.LittleEndian && ss.BytesCopied != 0 {
		t.Fatalf("server copied %d payload bytes, want 0", ss.BytesCopied)
	}

	// Hot fetches decode to the same payload a cold fetch produced.
	check := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer check.Close()
	for _, p := range hot {
		fp, err := check.FetchFile(p, testVars)
		if err != nil {
			t.Fatal(err)
		}
		sameBlocks(t, fp, want[p])
		fp.Recycle()
	}
}

// Ingesting a replacement file is seen by the next fetch through any
// spelling of its path: the server's table is keyed by the resolved file
// and checks its identity on every open, so no alias keeps the old bytes.
func TestPayloadCacheInvalidatedByIngest(t *testing.T) {
	srv := startIngestServer(t)
	c := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer c.Close()

	spec := genx.Scaled(32)
	spec.Snapshots = 1
	var path string
	var origBlocks []*genx.BlockData
	err := genx.StreamDataset(spec, func(step, file int, blocks []*genx.BlockData) error {
		if file != 0 || step != 0 {
			return nil
		}
		path = genx.SnapshotFile("", step, file)
		origBlocks = blocks
		return c.Ingest(path, filePayload(blocks))
	})
	if err != nil {
		t.Fatal(err)
	}
	aliases := []string{path, "x/../" + path}
	firstCoords := func(when string) []float64 {
		t.Helper()
		var got []float64
		for _, p := range aliases {
			fp, err := c.FetchFile(p, []string{"velocity"})
			if err != nil {
				t.Fatalf("%s: fetch %s: %v", when, p, err)
			}
			got = append(got, fp.Blocks[0].Mesh.Coords[0])
			fp.Recycle()
		}
		return got
	}

	before := firstCoords("before the overwrite")
	if before[0] != before[1] {
		t.Fatalf("%v and %v disagree before the overwrite: %v", aliases[0], aliases[1], before)
	}

	// Replace the file with shifted geometry and refetch through both paths.
	for _, bd := range origBlocks {
		for i := range bd.Mesh.Coords {
			bd.Mesh.Coords[i] += 1000
		}
	}
	if err := c.Ingest(path, filePayload(origBlocks)); err != nil {
		t.Fatal(err)
	}
	for i, got := range firstCoords("after the overwrite") {
		if want := before[0] + 1000; got != want {
			t.Fatalf("fetch of %s after ingest returned coord %v, want %v (stale bytes)", aliases[i], got, want)
		}
	}
}

// A transport error empties the idle pool, so a client that outlives a
// server restart redials instead of spending its retries on the dead
// connections it pooled before — here more of them than it has attempts.
func TestConnPoolRecyclesAcrossRestart(t *testing.T) {
	spec := testSpec()
	dir := writeDataset(t, spec)
	// A relay in front of the first server delays every response, so
	// concurrent fetches each hold a conn of their own and the pool fills.
	srv1, err := remote.Serve(remote.ServerOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	relay := remote.StartRelay(t, srv1, nil, remote.OnFetch(remote.DelayBy(100*time.Millisecond)))
	addr := relay.Addr()

	const pool = 8
	paths := allPaths(spec)[:pool]
	c := remote.NewClient(remote.ClientOptions{Addr: addr, PoolSize: pool, MaxRetries: 1})
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, pool)
	for _, path := range paths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fp, err := c.FetchFile(path, testVars)
			if err == nil {
				fp.Recycle()
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if conns := srv1.Stats().Conns; conns != pool {
		t.Fatalf("filling the pool dialed %d conns, want %d", conns, pool)
	}

	// The restart: the first server and its relay go, and the second
	// server takes over the address the client dials.
	relay.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	var srv2 *remote.Server
	for i := 0; ; i++ {
		srv2, err = remote.Serve(remote.ServerOptions{Addr: addr, Dir: dir})
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv2.Close()

	fp, err := c.FetchFile(genx.SnapshotFile("", 1, 0), testVars)
	if err != nil {
		t.Fatalf("fetch after restart: %v", err)
	}
	fp.Recycle()
}

// The read function must commit files strictly in resolver order, whether
// the unit fits one round trip or spans several.
func TestReadFuncCommitOrder(t *testing.T) {
	spec := testSpec()
	spec.Snapshots = 5 // x 2 files: "all" below is a 10-file unit, two chunks
	srv := startServer(t, writeDataset(t, spec))

	run := func(t *testing.T, resolve remote.Resolver, unit string) {
		paths, err := resolve(unit)
		if err != nil {
			t.Fatal(err)
		}
		ref := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
		defer ref.Close()
		var want []string
		for _, p := range paths {
			fp, err := ref.FetchFile(p, testVars)
			if err != nil {
				t.Fatal(err)
			}
			for _, bd := range fp.Blocks {
				want = append(want, bd.StepID+"/"+bd.Name)
			}
			fp.Recycle()
		}

		c := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
		defer c.Close()
		var mu sync.Mutex
		var got []string
		record := func(u *core.Unit, bd *genx.BlockData) error {
			mu.Lock()
			got = append(got, bd.StepID+"/"+bd.Name)
			mu.Unlock()
			return commitTestBlock(u, bd)
		}
		db := core.Open(core.Options{MemoryLimit: 256 << 20, BackgroundIO: true, IOWorkers: 2})
		defer db.Close()
		defineTestSchema(t, db)
		if err := db.AddUnit(unit, remote.NewReadFunc(c, resolve, testVars, record)); err != nil {
			t.Fatal(err)
		}
		if err := db.WaitUnit(unit); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(got) != len(want) {
			t.Fatalf("committed %d blocks, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("commit %d = %s, want %s (order broken)\n got: %v\nwant: %v",
					i, got[i], want[i], got, want)
			}
		}
		if rpcs, chunks := c.Stats().RPCs, int64((len(paths)+7)/8); rpcs != chunks {
			t.Fatalf("%d-file unit used %d RPCs, want %d", len(paths), rpcs, chunks)
		}
	}

	t.Run("batched", func(t *testing.T) {
		run(t, snapResolver(spec), "snap_0000")
	})
	t.Run("chunked", func(t *testing.T) {
		run(t, func(string) ([]string, error) { return allPaths(spec), nil }, "all")
	})
}

// FetchFiles on a closed client and with zero paths behaves.
func TestFetchFilesEdgeCases(t *testing.T) {
	spec := testSpec()
	srv := startServer(t, writeDataset(t, spec))
	c := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	if fps, err := c.FetchFiles(nil, testVars); err != nil || fps != nil {
		t.Fatalf("FetchFiles(nil) = %v, %v", fps, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchFiles(allPaths(spec), testVars); err != remote.ErrClientClosed {
		t.Fatalf("FetchFiles on closed client = %v, want ErrClientClosed", err)
	}
}
