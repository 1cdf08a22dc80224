package remote

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godiva/internal/genx"
)

// cacheSegs builds a fake cached response of n bytes.
func cacheSegs(n int) [][]byte {
	return [][]byte{make([]byte, n)}
}

func TestPayloadCacheHitPinEvict(t *testing.T) {
	pc := newPayloadCache(1000)
	var closed [3]bool
	ins := func(i int, size int) *payloadEntry {
		key := fmt.Sprintf("k%d", i)
		e := pc.insert(key, "p", pc.gen("p"), cacheSegs(size), int64(size), func() { closed[i] = true })
		if e == nil {
			t.Fatalf("insert %s declined", key)
		}
		return e
	}

	e0 := ins(0, 400)
	pc.release(e0)
	if got := pc.acquire("k0"); got != e0 {
		t.Fatalf("acquire(k0) = %p, want %p", got, e0)
	}
	pc.release(e0)
	if got := pc.acquire("nope"); got != nil {
		t.Fatalf("acquire(miss) = %p, want nil", got)
	}
	hits, misses, evicts, served := pc.counters()
	if hits != 1 || misses != 1 || evicts != 0 || served != 400 {
		t.Fatalf("counters = %d/%d/%d/%d, want 1/1/0/400", hits, misses, evicts, served)
	}

	// Over budget with k0 unpinned and cold (its used bit cleared by one
	// CLOCK pass): inserting two more 400s evicts it.
	e1 := ins(1, 400)
	pc.release(e1)
	e2 := ins(2, 400)
	pc.release(e2)
	if !closed[0] {
		t.Fatal("eviction did not run the victim's reader release")
	}
	if pc.acquire("k0") != nil {
		t.Fatal("evicted entry still acquirable")
	}
	if closed[1] || closed[2] {
		t.Fatal("eviction closed a surviving entry")
	}

	// A pinned entry is never evicted: pin k1, then force pressure.
	if pc.acquire("k1") != e1 {
		t.Fatal("k1 gone")
	}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("fill%d", i)
		if e := pc.insert(key, "p", pc.gen("p"), cacheSegs(300), 300, func() {}); e != nil {
			pc.release(e)
		}
	}
	if closed[1] {
		t.Fatal("pinned entry was evicted")
	}
	pc.release(e1)
	pc.closeAll()
	if !closed[1] || !closed[2] {
		t.Fatal("closeAll left reader releases unrun")
	}
}

func TestPayloadCacheInsertDeclines(t *testing.T) {
	pc := newPayloadCache(100)
	if e := pc.insert("big", "p", 0, cacheSegs(101), 101, nil); e != nil {
		t.Fatal("insert over the whole budget should decline")
	}
	gen := pc.gen("p")
	pc.invalidate("p") // generation moves while the builder was reading
	if e := pc.insert("k", "p", gen, cacheSegs(10), 10, nil); e != nil {
		t.Fatal("insert with a stale generation should decline")
	}
	e := pc.insert("k", "p", pc.gen("p"), cacheSegs(10), 10, func() {})
	if e == nil {
		t.Fatal("fresh insert declined")
	}
	if dup := pc.insert("k", "p", pc.gen("p"), cacheSegs(10), 10, nil); dup != nil {
		t.Fatal("duplicate-key insert should decline (racing builder lost)")
	}
	pc.release(e)
	pc.closeAll()
}

func TestPayloadCacheInvalidatePinned(t *testing.T) {
	pc := newPayloadCache(1000)
	var closed atomic.Int32
	e := pc.insert("k", "p", pc.gen("p"), cacheSegs(10), 10, func() { closed.Add(1) })
	if e == nil {
		t.Fatal("insert declined")
	}
	pc.invalidate("p") // entry is pinned by the in-flight response write
	if closed.Load() != 0 {
		t.Fatal("invalidate closed an entry still being sent")
	}
	if pc.acquire("k") != nil {
		t.Fatal("doomed entry still acquirable")
	}
	pc.release(e)
	if closed.Load() != 1 {
		t.Fatal("last release of a doomed entry must run the reader release")
	}
	pc.closeAll()
	if closed.Load() != 1 {
		t.Fatal("closeAll re-ran a spent reader release")
	}
}

// ledgerVars is the variable set the reader-ledger tests fetch.
var ledgerVars = []string{"velocity"}

// ledgerDataset writes a small dataset of snapshots x 2 files and returns
// its directory, its request paths and the largest encoded response among
// them (the unit the tests size payload budgets in).
func ledgerDataset(t *testing.T, snapshots int) (dir string, paths []string, maxSize int64) {
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
	for _, p := range paths {
		segs, _, err := encodeFilePayloadSegments(LocalPayload(t, dir, p, ledgerVars), maxFrame-2)
		if err != nil {
			t.Fatal(err)
		}
		var size int64
		for _, seg := range segs {
			size += int64(len(seg))
		}
		if size > maxSize {
			maxSize = size
		}
	}
	return dir, paths, maxSize
}

// openReaders returns how many snapshot files srv holds mapped by its
// counters, and how many files its reader's table holds.
func openReaders(srv *Server) (open int64, entries int) {
	st := srv.Stats()
	return st.ReaderOpens - st.ReaderCloses, srv.reader.Stats().Entries
}

// residentPayloads returns how many payload-cache entries srv holds.
func residentPayloads(srv *Server) int {
	srv.payloads.mu.Lock()
	defer srv.payloads.mu.Unlock()
	return len(srv.payloads.ents)
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

// The server maps each snapshot file once while its reader's table holds
// it: opens − closes always equals the table's entries, a payload-cache miss
// on a file already mapped is a reader hit rather than a second mapping, a
// file overwritten by ingest while a response pins it keeps its old mapping
// until that response is released and the path is opened again, and Close
// unmaps the rest.
func TestReaderLedger(t *testing.T) {
	dir, paths, maxSize := ledgerDataset(t, 6) // 12 files
	srv, err := Serve(ServerOptions{Dir: dir, PayloadCache: 3 * maxSize})
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
			segs, size, _, done, err := srv.serveFile(p, ledgerVars)
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := touch(segs); n != size {
				t.Fatalf("%s: segments hold %d bytes, want %d", p, n, size)
			}
			done()
			balanced("after fetching " + p)
		}
	}
	if resident := residentPayloads(srv); resident == 0 || resident >= len(paths) {
		t.Fatalf("%d of %d payloads resident under a 3-payload budget", resident, len(paths))
	}
	// The second pass missed the payload cache on most files, and every one
	// of those misses found its file still mapped.
	st := srv.Stats()
	if st.PayloadCacheEvictions == 0 || st.ReaderOpens != int64(len(paths)) ||
		st.ReaderHits != st.PayloadCacheMisses-int64(len(paths)) {
		t.Fatalf("want evictions, %d mappings and a reader hit per later miss: %+v", len(paths), st)
	}

	// Overwrite a file while a response still borrows its cached entry: the
	// old mapping must outlive the ingest and the response, and is replaced
	// by the next open of the path.
	p := paths[0]
	segs, _, _, done, err := srv.serveFile(p, ledgerVars)
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Stats()
	if err := srv.ingest(p, LocalPayload(t, dir, p, ledgerVars)); err != nil {
		t.Fatal(err)
	}
	touch(segs)
	done()
	if got := srv.Stats().ReaderCloses; got != before.ReaderCloses {
		t.Fatalf("ingest and the pinned response's release unmapped %d files", got-before.ReaderCloses)
	}
	segs, _, _, done, err = srv.serveFile(p, ledgerVars)
	if err != nil {
		t.Fatal(err)
	}
	touch(segs)
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

// A server with no payload budget caches nothing through the same code
// path: every fetch references the file's mapping only until its frame has
// been written, and the reader's table serves every later fetch of it.
func TestPayloadCacheDisabled(t *testing.T) {
	dir, paths, _ := ledgerDataset(t, 1)
	srv, err := Serve(ServerOptions{Dir: dir, PayloadCache: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 3; i++ {
		segs, size, _, done, err := srv.serveFile(paths[0], ledgerVars)
		if err != nil {
			t.Fatal(err)
		}
		if open, entries := openReaders(srv); open != 1 || entries != 1 {
			t.Fatalf("mid-fetch: %d files mapped, %d table entries, want 1 and 1", open, entries)
		}
		if n, _ := touch(segs); n != size {
			t.Fatalf("segments hold %d bytes, want %d", n, size)
		}
		done()
		if resident := residentPayloads(srv); resident != 0 {
			t.Fatalf("after the frame: %d payloads resident", resident)
		}
	}
	if st := srv.Stats(); st.PayloadCacheHits != 0 || st.ReaderOpens != 1 || st.ReaderHits != 2 {
		t.Fatalf("want 0 payload hits, 1 mapping and 2 reader hits: %+v", st)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if open, _ := openReaders(srv); open != 0 {
		t.Fatalf("after Close: %d files still mapped", open)
	}
}

// TestPayloadCacheChurn hammers one server with a small payload budget from
// concurrent fetchers and invalidators (the OpIngest rename path) under the
// race detector, reading every response's borrowed bytes before releasing
// it, and then checks the ledgers: no entry is left pinned, every mapped
// file is a table entry, and after Close every file the server ever mapped
// has been unmapped. BATCH_CHURN_TIME
// stretches the run (verify.sh's batch stage uses 10s); the default keeps
// plain `go test` fast.
func TestPayloadCacheChurn(t *testing.T) {
	d := time.Second
	if s := os.Getenv("BATCH_CHURN_TIME"); s != "" {
		v, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("bad BATCH_CHURN_TIME %q: %v", s, err)
		}
		d = v
	}
	dir, paths, maxSize := ledgerDataset(t, 2) // 4 files
	// Room for two of the eight (path, vars) keys: constant eviction.
	srv, err := Serve(ServerOptions{Dir: dir, PayloadCache: 2 * maxSize})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	varSets := [][]string{ledgerVars, nil}

	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	var fetches atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				path := paths[rng.Intn(len(paths))]
				segs, size, _, done, err := srv.serveFile(path, varSets[rng.Intn(len(varSets))])
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
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for time.Now().Before(deadline) {
			srv.payloads.invalidate(paths[rng.Intn(len(paths))])
			time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
		}
	}()
	wg.Wait()

	srv.payloads.mu.Lock()
	for key, e := range srv.payloads.ents {
		if e.pins != 0 {
			t.Errorf("entry %q left with %d pins (leaked pin)", key, e.pins)
		}
	}
	srv.payloads.mu.Unlock()
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
	t.Logf("churn: %d fetches, %d hits, %d misses, %d evictions, %d mappings, %d reader hits",
		fetches.Load(), st.PayloadCacheHits, st.PayloadCacheMisses, st.PayloadCacheEvictions,
		st.ReaderOpens, st.ReaderHits)
}
