package genx

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"

	"godiva/internal/shdf"
)

// idleBudget bounds the bytes of snapshot files a Mapped Reader keeps mapped
// with no handle open on them. It is godivad's whole mapped-bytes bound, as
// nothing in the server holds a mapping past its response frame, so it is
// sized for a server's working set: at 64 MiB the benchmark's scan-remote
// workload (97 MB per cold pass) re-maps most of its files and its cold
// units take 25–30 % longer. Idle mappings are clean page cache the kernel
// may reclaim, not GODIVA buffers, so they count against no database's
// memory limit.
const idleBudget = 128 << 20

// snapshotFile is one opened snapshot file with its directory decoded. A
// Mapped Reader shares it between every handle that opens the same,
// unchanged file; other readers give each handle its own.
type snapshotFile struct {
	f      *shdf.File
	blocks []BlockEntry
	time   float64
	stepID string

	// Table bookkeeping.
	path       string
	refs       int           // open handles; guarded by mu
	tabled     bool          // the table's current entry for path; guarded by mu
	prev, next *snapshotFile // idle LRU links, set while refs == 0; guarded by mu
}

// openSnapshotFile opens path with open and decodes its block table and time
// attributes.
func openSnapshotFile(path string, open func(string) (*shdf.File, error)) (*snapshotFile, error) {
	f, err := open(path)
	if err != nil {
		return nil, err
	}
	sf := &snapshotFile{f: f, path: path}
	if err := sf.decode(); err != nil {
		f.Close()
		return nil, err
	}
	return sf, nil
}

func (sf *snapshotFile) decode() error {
	f := sf.f
	groups, err := f.VGroups()
	if err != nil {
		return err
	}
	for _, g := range groups {
		if !strings.HasPrefix(g.Name, "block_") {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(g.Name, "block_%d", &id); err != nil {
			return fmt.Errorf("genx: bad block group name %q", g.Name)
		}
		e := BlockEntry{Name: g.Name, ID: id - 1, Members: make(map[string]shdf.ObjectInfo)}
		for _, ref := range g.Members {
			info, err := f.Info(ref)
			if err != nil {
				return err
			}
			// Member SDS names look like "b0001:coords".
			if i := strings.IndexByte(info.Name, ':'); i >= 0 {
				e.Members[info.Name[i+1:]] = info
			}
		}
		sf.blocks = append(sf.blocks, e)
	}
	if a, err := findAttr(f, "time"); err == nil {
		sf.time = a.Float
	}
	if a, err := findAttr(f, "step_id"); err == nil {
		sf.stepID = a.Str
	}
	return nil
}

func findAttr(f *shdf.File, name string) (*shdf.Attr, error) {
	info, err := f.FindByName(shdf.TagAttr, name)
	if err != nil {
		return nil, err
	}
	return f.ReadAttr(info.Ref)
}

// sameFile reports whether two FileInfos name the same file with the same
// size and modification time. A table entry's mapping pins its inode, so an
// inode number cannot be reused while the entry exists: a file renamed over
// the path fails os.SameFile, and one truncated or rewritten in place fails
// on size or on modification time, to the file system's timestamp
// resolution.
func sameFile(a, b os.FileInfo) bool {
	return os.SameFile(a, b) && a.Size() == b.Size() && a.ModTime().Equal(b.ModTime())
}

// TableStats counts a Mapped Reader's table of open files.
type TableStats struct {
	Opens   int64 // files opened into the table: one per miss
	Closes  int64 // table files closed (unmapped) again
	Hits    int64 // Opens served by a file the table already held open
	Entries int   // files the table currently holds, referenced or idle
}

// fileTable is a Mapped Reader's table of open snapshot files, keyed by path
// and checked against file identity on every Open. Entries with open handles
// are referenced; the rest wait on an LRU list bounded by idleBudget bytes
// and are closed when evicted, replaced or swept by Reader.Close.
//
// fileTable.mu is a leaf in the documented lock order (DESIGN.md appendix):
// files are opened before it is taken and closed after it is released.
type fileTable struct {
	mu         sync.Mutex
	byPath     map[string]*snapshotFile // guarded by mu
	head, tail *snapshotFile            // idle LRU, head least recently used; guarded by mu
	idleBytes  int64                    // guarded by mu
	budget     int64                    // idle bound; 0 means idleBudget (tests shrink it); guarded by mu
	closed     bool                     // Reader.Close ran: keep nothing idle; guarded by mu
	stats      TableStats               // guarded by mu
}

// acquire returns a referenced table entry for path: the one the table
// holds when it is still the file at path, a fresh one otherwise. Racing
// openers of one file end with one entry — the loser closes its own file
// and references the winner's.
func (t *fileTable) acquire(path string) (*snapshotFile, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	sf, doomed := t.lookupLocked(path, st)
	t.mu.Unlock()
	// A stale file failing to close does not concern this open.
	_ = closeFiles(doomed)
	if sf != nil {
		return sf, nil
	}

	fresh, err := openSnapshotFile(path, shdf.OpenMapped)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	sf, doomed = t.lookupLocked(path, fresh.f.Stat())
	if sf == nil {
		if t.byPath == nil {
			t.byPath = make(map[string]*snapshotFile)
		}
		fresh.refs, fresh.tabled = 1, true
		t.byPath[path] = fresh
		t.stats.Opens++
	}
	t.mu.Unlock()
	_ = closeFiles(doomed)
	if sf != nil {
		_ = fresh.f.Close() // a racing opener tabled the same file first
		return sf, nil
	}
	return fresh, nil
}

// lookupLocked references and returns path's entry when it is still the
// file st describes. An entry that is not is dropped from the table and
// returned in doomed when it must be closed now.
func (t *fileTable) lookupLocked(path string, st os.FileInfo) (sf *snapshotFile, doomed []*snapshotFile) {
	sf = t.byPath[path]
	if sf == nil {
		return nil, nil
	}
	if !sameFile(sf.f.Stat(), st) {
		return nil, t.dropLocked(sf, nil)
	}
	t.refLocked(sf)
	t.stats.Hits++
	return sf, nil
}

// release drops one reference to sf. Its last release parks a current entry
// on the idle list, evicting the least recently used idle entries past the
// budget, and closes a replaced entry — or every entry once the table is
// closed.
func (t *fileTable) release(sf *snapshotFile) error {
	var doomed []*snapshotFile
	t.mu.Lock()
	sf.refs--
	if sf.refs == 0 {
		if sf.tabled && !t.closed {
			t.pushIdleLocked(sf)
			budget := t.budget
			if budget == 0 {
				budget = idleBudget
			}
			for t.idleBytes > budget {
				doomed = t.dropLocked(t.head, doomed)
			}
		} else {
			doomed = t.dropLocked(sf, doomed)
		}
	}
	t.mu.Unlock()
	return closeFiles(doomed)
}

// close closes every idle entry now and makes every last release close its
// entry from here on.
func (t *fileTable) close() error {
	var doomed []*snapshotFile
	t.mu.Lock()
	t.closed = true
	for t.head != nil {
		doomed = t.dropLocked(t.head, doomed)
	}
	t.mu.Unlock()
	return closeFiles(doomed)
}

// dropLocked takes sf out of the table — a replaced entry stays open for its
// remaining handles and is closed at its last release — and appends it to
// doomed, for closing after unlock, when no handle holds it.
func (t *fileTable) dropLocked(sf *snapshotFile, doomed []*snapshotFile) []*snapshotFile {
	if sf.tabled {
		delete(t.byPath, sf.path)
		sf.tabled = false
	}
	if sf.refs > 0 {
		return doomed
	}
	t.unlinkIdleLocked(sf)
	t.stats.Closes++
	return append(doomed, sf)
}

// refLocked adds a reference to sf, taking it off the idle list.
func (t *fileTable) refLocked(sf *snapshotFile) {
	if sf.refs == 0 {
		t.unlinkIdleLocked(sf)
	}
	sf.refs++
}

func (t *fileTable) pushIdleLocked(sf *snapshotFile) {
	sf.prev, sf.next = t.tail, nil
	if t.tail != nil {
		t.tail.next = sf
	} else {
		t.head = sf
	}
	t.tail = sf
	t.idleBytes += sf.f.Stat().Size()
}

// unlinkIdleLocked takes an unreferenced sf off the idle list.
func (t *fileTable) unlinkIdleLocked(sf *snapshotFile) {
	if sf.prev != nil {
		sf.prev.next = sf.next
	} else if t.head == sf {
		t.head = sf.next
	} else {
		return // not on the list
	}
	if sf.next != nil {
		sf.next.prev = sf.prev
	} else {
		t.tail = sf.prev
	}
	sf.prev, sf.next = nil, nil
	t.idleBytes -= sf.f.Stat().Size()
}

func closeFiles(files []*snapshotFile) error {
	var errs []error
	for _, sf := range files {
		errs = append(errs, sf.f.Close())
	}
	return errors.Join(errs...)
}

func (t *fileTable) snapshot() TableStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats
	st.Entries = len(t.byPath)
	return st
}
