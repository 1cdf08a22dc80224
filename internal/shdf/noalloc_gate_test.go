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
	// Warm both memos of sds; attr stays unread, so its entry is
	// unverified, and no object has ref grp+1.
	if _, err := f.ReadSDS(sds); err != nil {
		t.Fatal(err)
	}
	unknown := grp + 1
	shuffled := withRefs(t, threeSDS(t), 3, 1, 2)
	g, err := NewFile(bytes.NewReader(shuffled), int64(len(shuffled)))
	if err != nil {
		t.Fatal(err)
	}
	var p []byte
	var ds *Dataset
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
		"File.cachedPayload": func() {
			if _, e, _, ok := f.cachedPayload(unknown); ok || e != nil {
				panic("unknown ref has an entry")
			}
			if _, e, _, ok := f.cachedPayload(attr); ok || e == nil {
				panic("unread attribute is not an unverified entry")
			}
			var ok bool
			p, _, ds, ok = f.cachedPayload(sds)
			if !ok {
				panic("payload not cached")
			}
		},
	})
	if (len(p) == 0 || ds == nil) && !t.Failed() {
		t.Errorf("cachedPayload gate returned payload %d bytes, view %p; want both memoized", len(p), ds)
	}
}

// A memo-hit ReadSDS of a mapped file — every read after a dataset's first
// — allocates nothing: no header decode, no Dataset, no dims.
func TestReadSDSMemoHitNoAlloc(t *testing.T) {
	if !zerocopy.LittleEndian {
		t.Skip("a big-endian host copy-decodes, which is never memoized")
	}
	path := filepath.Join(t.TempDir(), "memo.shdf")
	sds, _, _ := writeSample(t, path)
	f, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	first, err := f.ReadSDS(sds)
	if err != nil {
		t.Fatal(err)
	}
	var ds *Dataset
	allocs := testing.AllocsPerRun(100, func() {
		ds, err = f.ReadSDS(sds)
	})
	if err != nil || ds != first {
		t.Fatalf("memo hit returned %p, %v; want the first read's %p", ds, err, first)
	}
	if allocs != 0 {
		t.Fatalf("memo-hit ReadSDS allocates %v times per call, want 0", allocs)
	}
}

// A 1 MiB SDS streams from the caller's array: WriteSDS allocates almost
// nothing per call, where encoding it into a fresh payload cost 5 MB.
func TestWriteSDSAllocBound(t *testing.T) {
	r := testing.Benchmark(benchWriteSDS)
	if got := r.AllocedBytesPerOp(); got >= 4<<10 {
		t.Fatalf("WriteSDS of 1 MiB allocates %d bytes per call, want < 4 KiB", got)
	}
}
