// AllocsPerRun gates for this package's //godiva:noalloc functions (see
// internal/noalloctest): each gate drives every branch of its function that
// does not return an error, so a new branch there needs a call here too.
// Excluded under -race: the race runtime instruments allocation sites and
// the measurements stop meaning anything.

//go:build !race

package shdf

import (
	"bytes"
	"path/filepath"
	"testing"

	"godiva/internal/noalloctest"
	"godiva/internal/zerocopy"
)

func TestNoAllocGates(t *testing.T) {
	img, sds, attr, grp := zcSampleImage(t)
	f, err := NewFile(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gate.shdf")
	msds, _, _ := writeSample(t, path)
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Verify sds in both files; attr stays unread, so its entry is
	// unverified, and no object has ref grp+1.
	if _, err := f.ReadSDS(sds); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadSDS(msds); err != nil {
		t.Fatal(err)
	}
	unknown := grp + 1
	sdsAt, _ := f.lookup(sds)
	attrAt, _ := f.lookup(attr)
	msdsAt, _ := m.lookup(msds)
	shuffled := withRefs(t, threeSDS(t), 3, 1, 2)
	g, err := NewFile(bytes.NewReader(shuffled), int64(len(shuffled)))
	if err != nil {
		t.Fatal(err)
	}
	var p, mp []byte
	noalloctest.Check(t, ".", map[string]func(){
		"File.lookup": func() {
			if i, ok := f.lookup(sds); !ok || f.entries[i].ref != sds {
				panic("writer's ref not found")
			}
			if _, ok := f.lookup(unknown); ok {
				panic("unknown ref found")
			}
			if i, ok := g.lookup(3); !ok || i != 0 {
				panic("shuffled ref 3 not at entry 0")
			}
			if _, ok := g.lookup(4); ok {
				panic("shuffled directory has ref 4")
			}
		},
		"File.verifiedLocked": func() {
			f.mu.Lock()
			_, unread := f.verifiedLocked(attrAt)
			var ok bool
			p, ok = f.verifiedLocked(sdsAt)
			f.mu.Unlock()
			if unread || !ok {
				panic("unread attribute verified, or read payload not")
			}
			m.mu.Lock()
			mp, ok = m.verifiedLocked(msdsAt)
			m.mu.Unlock()
			if !ok {
				panic("mapped payload not verified")
			}
		},
	})
	if (len(p) == 0 || len(mp) == 0) && !t.Failed() {
		t.Errorf("verifiedLocked gate returned payloads of %d and %d bytes; want both verified", len(p), len(mp))
	}
}

// A repeat read of a mapped file's dataset through ReadSDSInto — every
// read after a dataset's first — allocates nothing: no header decode
// allocation, no Dataset, no dims, since the caller's Dataset holds them.
func TestReadSDSMemoHitNoAlloc(t *testing.T) {
	if !zerocopy.LittleEndian {
		t.Skip("a big-endian host copy-decodes every read")
	}
	path := filepath.Join(t.TempDir(), "memo.shdf")
	sds, _, _ := writeSample(t, path)
	f, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ds Dataset
	if err := f.ReadSDSInto(sds, &ds); err != nil {
		t.Fatal(err)
	}
	first := ds.Float64s
	allocs := testing.AllocsPerRun(100, func() {
		err = f.ReadSDSInto(sds, &ds)
	})
	if err != nil || !ds.Borrowed || &ds.Float64s[0] != &first[0] {
		t.Fatalf("repeat read: %v, borrowed %v; want the first read's view of the mapping", err, ds.Borrowed)
	}
	if allocs != 0 {
		t.Fatalf("repeat ReadSDSInto allocates %v times per call, want 0", allocs)
	}
}

// A 1 MiB SDS streams from the caller's array: WriteSDS allocates almost
// nothing per call, where encoding it into a fresh payload cost 5 MB.
func TestWriteSDSAllocBound(t *testing.T) {
	r := testing.Benchmark(benchWriteSDS)
	got := r.AllocedBytesPerOp()
	t.Logf("WriteSDS of 1 MiB: %d bytes allocated per call", got)
	if got >= 4<<10 {
		t.Fatalf("WriteSDS of 1 MiB allocates %d bytes per call, want < 4 KiB", got)
	}
}
