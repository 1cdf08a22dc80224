package remote

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"godiva/internal/genx"
)

// The server's one cache is its reader's table of mapped snapshot files
// (genx.Reader, Mapped). These tests drive the table through serveFile, the
// path every fetched file takes. The TestPayloadCache* names date from the
// payload cache the server once kept on top of the table.

// ledgerVars is the variable set the reader-ledger tests fetch.
var ledgerVars = []string{"velocity"}

// ledgerDataset writes a small dataset of snapshots x 2 files and returns
// its directory and its request paths.
func ledgerDataset(t *testing.T, snapshots int) (dir string, paths []string) {
	t.Helper()
	spec := genx.Scaled(32)
	spec.Snapshots = snapshots
	dir = t.TempDir()
	if _, err := genx.WriteDataset(spec, dir); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < spec.Snapshots; s++ {
		paths = append(paths, spec.SnapshotFiles("", s)...)
	}
	return dir, paths
}

// fileBytes sums the sizes of paths in dir: what the table's idle bound
// counts them as.
func fileBytes(t *testing.T, dir string, paths ...string) int64 {
	t.Helper()
	var n int64
	for _, p := range paths {
		st, err := os.Stat(filepath.Join(dir, p))
		if err != nil {
			t.Fatal(err)
		}
		n += st.Size()
	}
	return n
}

// shrinkIdleBudget lowers the idle bound of srv's table to n bytes, so a few
// small files overflow it. The bound is a genx constant; the table's
// unexported override, which genx's own tests set directly, is reached here
// by reflection. Call it before the server's first fetch.
func shrinkIdleBudget(t *testing.T, srv *Server, n int64) {
	t.Helper()
	f := reflect.ValueOf(&srv.reader).Elem().FieldByName("files").FieldByName("budget")
	if !f.IsValid() || f.Kind() != reflect.Int64 {
		t.Fatal("genx.Reader has no files.budget to shrink")
	}
	reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().SetInt(n)
	publish(srv)
}

// publish orders the test's writes to srv's unguarded settings before every
// request srv handles afterwards: each request takes srv.mu to count
// itself, after this Lock-Unlock pair. The race detector sees no order
// through the socket alone.
func publish(srv *Server) {
	srv.mu.Lock()
	srv.mu.Unlock()
}

// openReaders returns how many snapshot files srv holds mapped by its
// counters, and how many files its reader's table holds.
func openReaders(srv *Server) (open int64, entries int) {
	st := srv.Stats()
	return st.ReaderOpens - st.ReaderCloses, srv.reader.Stats().Entries
}

// wantTable fails the test unless srv's table has mapped opens files,
// unmapped closes and served hits fetches from a mapping it already held.
func wantTable(t *testing.T, srv *Server, when string, opens, closes, hits int64) {
	t.Helper()
	if st := srv.Stats(); st.ReaderOpens != opens || st.ReaderCloses != closes || st.ReaderHits != hits {
		t.Fatalf("%s: %d mapped, %d unmapped, %d hits; want %d, %d, %d",
			when, st.ReaderOpens, st.ReaderCloses, st.ReaderHits, opens, closes, hits)
	}
}

// touch reads the first and last byte of every segment: segments borrowed
// from a mapping that was closed too early fault here.
func touch(segs [][]byte) (n int, sum byte) {
	for _, seg := range segs {
		n += len(seg)
		if len(seg) > 0 {
			sum += seg[0] + seg[len(seg)-1]
		}
	}
	return n, sum
}

// serveSegs encodes path's body through serveFile into a fresh encoder and
// returns its segments and size, with the done that closes the handle they
// borrow from.
func serveSegs(srv *Server, path string, vars []string) (segs [][]byte, size int, done func(), err error) {
	var out frameEnc
	out.reset()
	var fv fetchVars
	h, err := srv.serveFile(&out, path, vars, &fv)
	if err != nil {
		return nil, 0, nil, err
	}
	return out.payload(), out.base, func() { _ = h.Close() }, nil
}

// serve fetches path through serveFile, checks the segments hold the
// promised bytes, and returns them with the done that releases them.
func serve(t *testing.T, srv *Server, path string) ([][]byte, func()) {
	t.Helper()
	segs, size, done, err := serveSegs(srv, path, ledgerVars)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := touch(segs); n != size {
		t.Fatalf("%s: segments hold %d bytes, want %d", path, n, size)
	}
	return segs, done
}

// A mapping a response still borrows is never evicted, idle files leave the
// table least recently used first, and Close unmaps the rest.
func TestPayloadCacheHitPinEvict(t *testing.T) {
	dir, paths := ledgerDataset(t, 2) // 4 files
	held, a, b, c := paths[0], paths[1], paths[2], paths[3]
	srv, err := Serve(ServerOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	shrinkIdleBudget(t, srv, fileBytes(t, dir, a, b, c)-1) // any two of a, b and c
	cycle := func(p string) {
		t.Helper()
		_, done := serve(t, srv, p)
		done()
	}

	borrowed, release := serve(t, srv, held)
	_, sum := touch(borrowed)
	cycle(a)
	cycle(b)
	cycle(a) // a hit: a is now the most recent, b the least
	wantTable(t, srv, "a, b, a", 3, 0, 1)
	cycle(c) // over the bound: unmaps b
	wantTable(t, srv, "then c", 4, 1, 1)
	cycle(a)
	cycle(c)
	wantTable(t, srv, "a and c again", 4, 1, 3)
	cycle(b) // a miss, which unmaps a, now the least recent
	wantTable(t, srv, "b again", 5, 2, 3)

	// The held file was referenced throughout, so no eviction touched it.
	if _, again := touch(borrowed); again != sum {
		t.Fatal("borrowed segments changed while their file was referenced")
	}
	release()
	cycle(held)
	if st := srv.Stats(); st.ReaderOpens != 5 || st.ReaderHits != 4 {
		t.Fatalf("the held file was not kept mapped past its response: %+v", st)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if open, entries := openReaders(srv); open != 0 || entries != 0 {
		t.Fatalf("after Close: %d files mapped, %d table entries", open, entries)
	}
}

// Racing fetchers of one file end with one mapping, which every response
// borrows.
func TestPayloadCacheInsertDeclines(t *testing.T) {
	dir, paths := ledgerDataset(t, 1)
	srv, err := Serve(ServerOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n = 8
	dones := make([]func(), n)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range dones {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			segs, size, done, err := serveSegs(srv, paths[0], ledgerVars)
			if err != nil {
				t.Error(err)
				return
			}
			if got, _ := touch(segs); got != size {
				t.Errorf("segments hold %d bytes, want %d", got, size)
			}
			dones[i] = done
		}(i)
	}
	start.Done()
	wg.Wait()
	if open, entries := openReaders(srv); open != 1 || entries != 1 {
		t.Fatalf("%d racing fetches: %d files mapped, %d table entries, want 1 and 1", n, open, entries)
	}
	for _, done := range dones {
		if done != nil {
			done()
		}
	}
	wantTable(t, srv, "racing fetches", 1, 0, n-1)
}

// An ingest that overwrites a file while a response borrows its mapping
// leaves the borrowed bytes whole until the response's done runs. The next
// fetch maps the new file, and that done then unmaps the old one.
func TestPayloadCacheInvalidatePinned(t *testing.T) {
	dir, paths := ledgerDataset(t, 1)
	srv, err := Serve(ServerOptions{Dir: dir, Ingest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := paths[0]
	old, release := serve(t, srv, p)
	want := flattenSegments(old)

	fp := LocalPayload(t, dir, p, ledgerVars)
	for _, bd := range fp.Blocks {
		for i := range bd.Mesh.Coords {
			bd.Mesh.Coords[i] += 1000
		}
	}
	if err := srv.ingest(new(genx.FileWriter), p, fp); err != nil {
		t.Fatal(err)
	}
	fresh, done := serve(t, srv, p)
	defer done()
	wantTable(t, srv, "the fetch after the overwrite", 2, 0, 0)
	if !bytes.Equal(flattenSegments(old), want) {
		t.Fatal("the overwrite changed bytes a response still borrowed")
	}
	if bytes.Equal(flattenSegments(fresh), want) {
		t.Fatal("the fetch after the overwrite served the old bytes")
	}
	release()
	wantTable(t, srv, "the old response's done", 2, 1, 0)
	if open, entries := openReaders(srv); open != 1 || entries != 1 {
		t.Fatalf("%d files mapped, %d table entries, want 1 and 1", open, entries)
	}
}

// The server maps each snapshot file once while its reader's table holds
// it: opens − closes always equals the table's entries, a fetch of a file
// already mapped is a reader hit rather than a second mapping, a file
// overwritten by ingest while a response borrows it keeps its old mapping
// until that response is released and the path is opened again, and Close
// unmaps the rest.
func TestReaderLedger(t *testing.T) {
	dir, paths := ledgerDataset(t, 6) // 12 files
	srv, err := Serve(ServerOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	balanced := func(when string) {
		t.Helper()
		if open, entries := openReaders(srv); open != int64(entries) {
			t.Fatalf("%s: %d files mapped for %d table entries", when, open, entries)
		}
	}

	for pass := 0; pass < 2; pass++ {
		for _, p := range paths {
			_, done := serve(t, srv, p)
			done()
			balanced("after fetching " + p)
		}
	}
	n := int64(len(paths))
	wantTable(t, srv, "two passes", n, 0, n)

	// Overwrite a file while a response still borrows it: the old mapping
	// must outlive the ingest and the response, and is replaced by the next
	// open of the path.
	p := paths[0]
	segs, done := serve(t, srv, p)
	before := srv.Stats()
	if err := srv.ingest(new(genx.FileWriter), p, LocalPayload(t, dir, p, ledgerVars)); err != nil {
		t.Fatal(err)
	}
	touch(segs)
	done()
	if got := srv.Stats().ReaderCloses; got != before.ReaderCloses {
		t.Fatalf("ingest and the borrowing response's release unmapped %d files", got-before.ReaderCloses)
	}
	_, done = serve(t, srv, p)
	done()
	if st := srv.Stats(); st.ReaderOpens != before.ReaderOpens+1 || st.ReaderCloses != before.ReaderCloses+1 {
		t.Fatalf("the fetch after the overwrite mapped %d and unmapped %d files, want 1 and 1",
			st.ReaderOpens-before.ReaderOpens, st.ReaderCloses-before.ReaderCloses)
	}
	balanced("after the overwritten file's replacement")

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.ReaderOpens != st.ReaderCloses {
		t.Fatalf("after Close: %d files mapped, %d unmapped", st.ReaderOpens, st.ReaderCloses)
	}
}

// A fetch references its file's mapping only while its frame is being
// written: the table serves every later fetch of the file, and Close, which
// unmaps at once only the files no response references, leaves nothing
// mapped.
func TestPayloadCacheDisabled(t *testing.T) {
	dir, paths := ledgerDataset(t, 1)
	srv, err := Serve(ServerOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 3; i++ {
		_, done := serve(t, srv, paths[0])
		if open, entries := openReaders(srv); open != 1 || entries != 1 {
			t.Fatalf("mid-fetch: %d files mapped, %d table entries, want 1 and 1", open, entries)
		}
		done()
	}
	wantTable(t, srv, "three fetches of one file", 1, 0, 2)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if open, _ := openReaders(srv); open != 0 {
		t.Fatalf("after Close: %d files still mapped", open)
	}
}

// TestPayloadCacheChurn runs eight fetchers and an ingest overwriter against
// one server whose table keeps about two files idle (verify.sh's race-remote
// stage runs it under the race detector). Every response's borrowed bytes
// are read before its done runs. Afterwards every mapped file is a table
// entry, and after Close every file the server mapped has been unmapped.
func TestPayloadCacheChurn(t *testing.T) {
	dir, paths := ledgerDataset(t, 2) // 4 files
	srv, err := Serve(ServerOptions{Dir: dir, Ingest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	shrinkIdleBudget(t, srv, fileBytes(t, dir, paths[0], paths[1]))
	// Heap copies of every file, for the overwriter to land over its path.
	replacements := make([]*FilePayload, len(paths))
	for i, p := range paths {
		replacements[i] = LocalPayload(t, dir, p, ledgerVars)
	}
	varSets := [][]string{ledgerVars, nil}

	var fetchers sync.WaitGroup
	var fetches atomic.Int64
	for w := 0; w < 8; w++ {
		fetchers.Add(1)
		go func(seed int64) {
			defer fetchers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				path := paths[rng.Intn(len(paths))]
				segs, size, done, err := serveSegs(srv, path, varSets[rng.Intn(len(varSets))])
				if err != nil {
					t.Error(err)
					return
				}
				if n, _ := touch(segs); n != size {
					t.Errorf("%s: segments hold %d bytes, want %d", path, n, size)
				}
				done()
				fetches.Add(1)
			}
		}(int64(w))
	}
	stop, overwritten := make(chan struct{}), make(chan int)
	go func() {
		rng := rand.New(rand.NewSource(99))
		var fw genx.FileWriter
		n := 0
		for {
			select {
			case <-stop:
				overwritten <- n
				return
			default:
			}
			k := rng.Intn(len(paths))
			if err := srv.ingest(&fw, paths[k], replacements[k]); err != nil {
				t.Error(err)
			}
			n++
			time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
		}
	}()
	fetchers.Wait()
	close(stop)
	ingests := <-overwritten

	if open, entries := openReaders(srv); open != int64(entries) {
		t.Fatalf("%d files mapped for %d table entries", open, entries)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.ReaderOpens != st.ReaderCloses {
		t.Fatalf("mapping ledger unbalanced: %d mapped, %d unmapped", st.ReaderOpens, st.ReaderCloses)
	}
	t.Logf("churn: %d fetches, %d ingests, %d mappings, %d reader hits",
		fetches.Load(), ingests, st.ReaderOpens, st.ReaderHits)
}

// A file whose read fails part-way — a var that names no field of its
// blocks — is answered as an error item of its own, rolled back out of the
// frame, and its handle is closed: the connection stays in service and
// nothing stays mapped.
func TestFetchReadErrorIsAnItem(t *testing.T) {
	dir, paths := ledgerDataset(t, 1)
	srv, err := Serve(ServerOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	shrinkIdleBudget(t, srv, 1) // a file nothing references is unmapped at once
	c := NewClient(ClientOptions{Addr: srv.Addr(), PoolSize: 1})
	defer c.Close()

	_, err = c.FetchFiles(paths, []string{"velocity", "pressure"})
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeInternal || !strings.Contains(se.Msg, `no field "pressure"`) {
		t.Fatalf("fetch of a var no block holds = %v, want its read error as a CodeInternal item", err)
	}
	if st := srv.Stats(); st.Errors != int64(len(paths)) || st.ReaderOpens != st.ReaderCloses {
		t.Fatalf("server stats = %+v, want %d errors and every mapping closed", st, len(paths))
	}
	fps, err := c.FetchFiles(paths, ledgerVars)
	if err != nil {
		t.Fatal(err)
	}
	for i, fp := range fps {
		samePayload(t, fp, LocalPayload(t, dir, paths[i], ledgerVars))
		fp.Recycle()
	}
	if rs := c.Stats(); rs.RPCs != 2 {
		t.Fatalf("client made %d RPCs, want 2 on one connection", rs.RPCs)
	}
}
