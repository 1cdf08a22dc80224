package genx

import (
	"math/rand"
	"os"
	"sync"
	"testing"
)

// tinyFiles writes the tiny dataset and returns its four file paths.
func tinyFiles(t *testing.T) (Spec, []string) {
	t.Helper()
	spec, dir, _ := writeTiny(t)
	var paths []string
	for s := 0; s < spec.Snapshots; s++ {
		paths = append(paths, spec.SnapshotFiles(dir, s)...)
	}
	return spec, paths
}

// replaceFile lands src's bytes at dst the way ingest does: a fresh file
// renamed over the path.
func replaceFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Error(err)
		return
	}
	tmp := dst + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Error(err)
		return
	}
	if err := os.Rename(tmp, dst); err != nil {
		t.Error(err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func openOK(t *testing.T, r *Reader, path string) *FileHandle {
	t.Helper()
	h, err := r.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func closeOK(t *testing.T, h *FileHandle) {
	t.Helper()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

func wantStats(t *testing.T, r *Reader, when string, want TableStats) {
	t.Helper()
	if got := r.Stats(); got != want {
		t.Fatalf("%s: table stats %+v, want %+v", when, got, want)
	}
}

// readAll reads every block of h with every variable.
func readAll(t *testing.T, h *FileHandle) {
	t.Helper()
	vars := append(append([]string{}, NodeVectorFields...), ElemScalarFields...)
	for _, e := range h.Blocks() {
		if _, err := h.ReadBlock(e, vars); err != nil {
			t.Fatal(err)
		}
	}
}

// Opens of one unchanged file share one mapping for its whole lifetime in
// the table, so each object's CRC runs once — not once per Open; a file
// mapped afresh starts over.
func TestChecksumOncePerMapping(t *testing.T) {
	_, paths := tinyFiles(t)
	r := &Reader{Mapped: true}
	defer r.Close()

	h1 := openOK(t, r, paths[0])
	readAll(t, h1)
	f := h1.sf.f
	checks := f.Checksums()
	if n := len(f.Objects()); checks == 0 || checks > n {
		t.Fatalf("one full read ran %d CRCs over %d objects", checks, n)
	}
	h2 := openOK(t, r, paths[0]) // while h1 is open
	readAll(t, h2)
	closeOK(t, h1)
	closeOK(t, h2)
	h3 := openOK(t, r, paths[0]) // from the idle list
	readAll(t, h3)
	if h2.sf != nil || h3.sf.f != f {
		t.Fatal("a reopen of an unchanged file did not share its mapping")
	}
	if got := f.Checksums(); got != checks {
		t.Fatalf("three full reads over one mapping ran %d CRCs, want %d", got, checks)
	}
	closeOK(t, h3)
	wantStats(t, r, "three opens of one file", TableStats{Opens: 1, Hits: 2, Entries: 1})

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	h4 := openOK(t, r, paths[0])
	readAll(t, h4)
	if h4.sf.f == f || h4.sf.f.Checksums() != checks {
		t.Fatalf("after Reader.Close: same mapping %v, %d CRCs; want a new mapping checking %d",
			h4.sf.f == f, h4.sf.f.Checksums(), checks)
	}
	closeOK(t, h4)
}

// A file renamed over the path is a new mapping; the old one keeps serving
// its open handle and is unmapped when that handle closes.
func TestTableRenameGivesNewMapping(t *testing.T) {
	spec, paths := tinyFiles(t)
	r := &Reader{Mapped: true}
	defer r.Close()
	p, other := paths[0], paths[spec.FilesPerSnapshot] // step 0 and step 1, file 0

	old := openOK(t, r, p)
	before, err := old.ReadField(old.Blocks()[0], "stress_avg")
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), before...)
	oldFile := old.sf.f

	replaceFile(t, other, p)
	fresh := openOK(t, r, p)
	if fresh.sf == old.sf || fresh.StepID != spec.StepID(1) {
		t.Fatalf("open after a rename served step %s from the old mapping %v", fresh.StepID, fresh.sf == old.sf)
	}
	wantStats(t, r, "after the rename", TableStats{Opens: 2, Entries: 1})

	// The old mapping is still whole: the same bytes, at the same place.
	again, err := old.ReadField(old.Blocks()[0], "stress_avg")
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &before[0] || again[0] != want[0] || again[len(want)-1] != want[len(want)-1] {
		t.Fatal("the old handle's view moved or changed after the rename")
	}
	closeOK(t, old)
	if oldFile.Mapped() {
		t.Fatal("the replaced mapping outlived its last reference")
	}
	wantStats(t, r, "after the old handle's close", TableStats{Opens: 2, Closes: 1, Entries: 1})
	closeOK(t, fresh)
	wantStats(t, r, "after the new handle's close", TableStats{Opens: 2, Closes: 1, Entries: 1})
}

// A file truncated in place — the same inode, now shorter — is never served
// from its stale mapping, whether that mapping is idle or still referenced.
func TestTableTruncatedFileNotServed(t *testing.T) {
	_, paths := tinyFiles(t)
	r := &Reader{Mapped: true}
	defer r.Close()
	for i, live := range []bool{false, true} {
		p := paths[i]
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		h := openOK(t, r, p)
		stale := h.sf.f
		if !live {
			closeOK(t, h)
		}
		if err := os.Truncate(p, int64(len(data)/2)); err != nil {
			t.Fatal(err)
		}
		if h2, err := r.Open(p); err == nil {
			t.Fatalf("live=%v: open of a truncated file succeeded (from the old mapping: %v)", live, h2.sf.f == stale)
		}
		if live {
			// The handle's mapping is out of the table but still its own.
			if !stale.Mapped() {
				t.Fatal("a referenced mapping was unmapped under its handle")
			}
			closeOK(t, h)
		}
		if stale.Mapped() {
			t.Fatalf("live=%v: the stale mapping is still mapped", live)
		}
		// Rewritten in place, the same inode is mapped afresh.
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		h = openOK(t, r, p)
		readAll(t, h)
		closeOK(t, h)
	}
	wantStats(t, r, "after two truncations", TableStats{Opens: 4, Closes: 2, Entries: 2})
}

// Idle files past the budget are unmapped least recently released first;
// opening an idle file refreshes it.
func TestTableIdleLRU(t *testing.T) {
	_, paths := tinyFiles(t)
	a, b, c := paths[0], paths[1], paths[2]
	r := &Reader{Mapped: true}
	defer r.Close()
	r.files.budget = fileSize(t, a) + fileSize(t, b) + fileSize(t, c) - 1 // two of the three

	cycle := func(p string) { closeOK(t, openOK(t, r, p)) }
	cycle(a)
	cycle(b)
	cycle(a) // a hit: a is now the most recent, b the least
	wantStats(t, r, "a, b, a", TableStats{Opens: 2, Hits: 1, Entries: 2})
	cycle(c) // over budget: evicts b
	wantStats(t, r, "then c", TableStats{Opens: 3, Closes: 1, Hits: 1, Entries: 2})
	cycle(a)
	cycle(c)
	wantStats(t, r, "a and c again", TableStats{Opens: 3, Closes: 1, Hits: 3, Entries: 2})
	cycle(b) // a miss, which evicts a, now the least recent
	wantStats(t, r, "b again", TableStats{Opens: 4, Closes: 2, Hits: 3, Entries: 2})
	cycle(c)
	wantStats(t, r, "c again", TableStats{Opens: 4, Closes: 2, Hits: 4, Entries: 2})
}

// Reader.Close unmaps idle files at once and referenced ones at their last
// release; a closed Reader still opens files but keeps none idle.
func TestReaderClose(t *testing.T) {
	_, paths := tinyFiles(t)
	r := &Reader{Mapped: true}
	live := openOK(t, r, paths[0])
	idle := openOK(t, r, paths[1])
	idleFile := idle.sf.f
	closeOK(t, idle)

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if idleFile.Mapped() {
		t.Fatal("Reader.Close left an idle file mapped")
	}
	wantStats(t, r, "Close with one live handle", TableStats{Opens: 2, Closes: 1, Entries: 1})
	readAll(t, live) // the live handle's mapping is untouched
	liveFile := live.sf.f
	closeOK(t, live)
	if liveFile.Mapped() {
		t.Fatal("the last release after Reader.Close left its file mapped")
	}
	wantStats(t, r, "the live handle's close", TableStats{Opens: 2, Closes: 2})

	h := openOK(t, r, paths[0])
	readAll(t, h)
	closeOK(t, h)
	wantStats(t, r, "an open after Close", TableStats{Opens: 3, Closes: 3})
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("second handle Close: %v", err)
	}
	if _, err := h.ReadField(h.Blocks()[0], "stress_avg"); err == nil {
		t.Fatal("read through a closed handle succeeded")
	}
}

// Racing first opens of one file end with one table entry that every
// handle shares.
func TestTableRacingOpeners(t *testing.T) {
	_, paths := tinyFiles(t)
	r := &Reader{Mapped: true}
	defer r.Close()
	const n = 8
	handles := make([]*FileHandle, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range handles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			h, err := r.Open(paths[0])
			if err != nil {
				t.Error(err)
				return
			}
			handles[i] = h
		}(i)
	}
	start.Done()
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, h := range handles {
		if h.sf != handles[0].sf {
			t.Fatal("racing openers hold different entries")
		}
	}
	wantStats(t, r, "racing opens", TableStats{Opens: 1, Hits: n - 1, Entries: 1})
	for _, h := range handles {
		readAll(t, h)
		closeOK(t, h)
	}
	wantStats(t, r, "after every close", TableStats{Opens: 1, Hits: n - 1, Entries: 1})
}

// Concurrent opens, reads and closes over a budget that holds two of four
// files, while files are replaced by rename, keep the table's ledger
// balanced and every read correct. Run under -race (verify.sh's race-core).
func TestTableChurn(t *testing.T) {
	spec, paths := tinyFiles(t)
	r := &Reader{Mapped: true}
	r.files.budget = 2 * fileSize(t, paths[0])
	// Keep one pristine copy per path to replace it with.
	pristine := make([]string, len(paths))
	for i, p := range paths {
		pristine[i] = p + ".orig"
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pristine[i], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				k := rng.Intn(len(paths))
				h, err := r.Open(paths[k])
				if err != nil {
					t.Error(err)
					return
				}
				if want := spec.StepID(k / spec.FilesPerSnapshot); h.StepID != want {
					t.Errorf("%s: step %s, want %s", paths[k], h.StepID, want)
				}
				if _, err := h.ReadBlock(h.Blocks()[0], []string{"velocity"}); err != nil {
					t.Error(err)
				}
				if err := h.Close(); err != nil {
					t.Error(err)
				}
			}
		}(int64(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			k := i % len(paths)
			replaceFile(t, pristine[k], paths[k])
		}
	}()
	wg.Wait()

	st := r.Stats()
	if st.Opens-st.Closes != int64(st.Entries) || st.Entries > 2 {
		t.Fatalf("idle ledger: %+v, want Opens-Closes = Entries <= 2", st)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Opens != st.Closes || st.Entries != 0 {
		t.Fatalf("after Close: %+v, want every opened file closed", st)
	}
}
