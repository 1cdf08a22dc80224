// AllocsPerRun gates for this package's //godiva:noalloc functions — the
// runtime cross-check of the alloccheck analyzer (see internal/noalloctest).
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
	img, sds, _, _ := zcSampleImage(t)
	f, err := NewFile(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadSDS(sds); err != nil { // warm both memos
		t.Fatal(err)
	}
	var p []byte
	var ds *Dataset
	noalloctest.Check(t, ".", map[string]func(){
		"File.cachedPayload": func() {
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
