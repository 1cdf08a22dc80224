package shdf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"godiva/internal/zerocopy"
)

// countingReaderAt counts ReadAt calls and bytes, to prove memoization.
type countingReaderAt struct {
	r     io.ReaderAt
	calls int
	bytes int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.calls++
	c.bytes += int64(len(p))
	return c.r.ReadAt(p, off)
}

func zcSampleImage(t *testing.T) ([]byte, Ref, Ref, Ref) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sds, err := w.WriteSDS("pressure", []int{2, 3}, []float64{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	attr, err := w.WriteAttr("units", "pascal")
	if err != nil {
		t.Fatal(err)
	}
	grp, err := w.WriteVGroup("block_0001", []Ref{sds, attr})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sds, attr, grp
}

// Regression: payloadFor used to re-read and re-checksum the payload from
// disk on every access. Repeated reads of the same ref must cost zero
// additional I/O after the first.
func TestPayloadMemoized(t *testing.T) {
	img, sds, attr, grp := zcSampleImage(t)
	cr := &countingReaderAt{r: bytes.NewReader(img)}
	f, err := NewFile(cr, int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}

	first, err := f.ReadSDS(sds)
	if err != nil {
		t.Fatal(err)
	}
	calls, bytesRead := cr.calls, cr.bytes
	for i := 0; i < 5; i++ {
		ds, err := f.ReadSDS(sds)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Float64s[5] != first.Float64s[5] {
			t.Fatalf("repeat read %d changed data: %v", i, ds.Float64s)
		}
		if _, err := f.raw(sds); err != nil {
			t.Fatal(err)
		}
	}
	if cr.calls != calls || cr.bytes != bytesRead {
		t.Fatalf("repeated access cost I/O: calls %d -> %d, bytes %d -> %d",
			calls, cr.calls, bytesRead, cr.bytes)
	}

	// Other object kinds memoize the same way.
	if _, err := f.ReadAttr(attr); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadVGroup(grp); err != nil {
		t.Fatal(err)
	}
	calls = cr.calls
	if _, err := f.ReadAttr(attr); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadVGroup(grp); err != nil {
		t.Fatal(err)
	}
	if cr.calls != calls {
		t.Fatalf("attr/vgroup repeat access cost %d extra reads", cr.calls-calls)
	}
}

// A corrupt payload must fail on every access, not just the first: failed
// verification is never memoized.
func TestCorruptPayloadNotMemoized(t *testing.T) {
	img, sds, _, _ := zcSampleImage(t)
	img[16] ^= 0xFF
	f, err := NewFile(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := f.ReadSDS(sds); !errors.Is(err, ErrChecksum) {
			t.Fatalf("access %d: %v, want ErrChecksum", i, err)
		}
	}
}

func TestOpenMapped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.shdf")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sds, err := w.WriteSDS("coords", []int{4}, []float64{0.5, 1.5, 2.5, 3.5})
	if err != nil {
		t.Fatal(err)
	}
	i32, err := w.WriteSDS("conn", []int{3}, []int32{7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := f.ReadSDS(sds)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Float64s[0] != 0.5 || ds.Float64s[3] != 3.5 {
		t.Fatalf("mapped f64 data = %v", ds.Float64s)
	}
	di, err := f.ReadSDS(i32)
	if err != nil {
		t.Fatal(err)
	}
	if di.Int32s[0] != 7 || di.Int32s[2] != 9 {
		t.Fatalf("mapped i32 data = %v", di.Int32s)
	}
	if f.Mapped() && zerocopy.LittleEndian {
		// The writer aligns SDS data sections, so mapped reads on this host
		// must borrow, not copy.
		if !ds.Borrowed || !di.Borrowed {
			t.Fatalf("mapped datasets not borrowed: f64=%v i32=%v", ds.Borrowed, di.Borrowed)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close the mapping is gone; reads must fail cleanly, not fault.
	if _, err := f.ReadSDS(sds); err == nil {
		t.Fatal("ReadSDS succeeded after Close of mapped file")
	}
}

// A mapped File holds no file descriptor — the mapping keeps the pages — so
// a resident unit of eight mapped files costs eight mappings and no
// descriptors, and Close only unmaps.
func TestOpenMappedHoldsNoDescriptor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fd.shdf")
	sds, _, _ := writeSample(t, path)
	f, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Mapped() {
		t.Skip("mmap unavailable: the fallback reads through its descriptor")
	}
	if f.f != nil {
		t.Fatal("mapped File kept its *os.File")
	}
	if runtime.GOOS == "linux" {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		for _, fd := range fds {
			if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == path {
				t.Fatalf("descriptor %s still open on the mapped file", fd.Name())
			}
		}
	}
	ds, err := f.ReadSDS(sds)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Float64s[5] != 6 {
		t.Fatalf("mapped read after the descriptor closed = %v", ds.Float64s)
	}
}

// OpenMapped detects corruption exactly like Open: CRC is enforced (once).
func TestOpenMappedChecksum(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.shdf")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sds, err := w.WriteSDS("x", []int{2}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(magic)+4+8] ^= 0x01 // inside the SDS payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ReadSDS(sds); !errors.Is(err, ErrChecksum) {
		t.Fatalf("mapped corrupt payload: %v, want ErrChecksum", err)
	}
}

// An SDS whose data section is not 8-aligned in a mapped file is copy-decoded
// — the caller owns that copy — so every ReadSDS returns a fresh one: the
// Dataset memo is only for borrowed views.
func TestCopyDecodedDatasetNotMemoized(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Streaming the payload through begin/put/end skips WriteSDS's
	// alignment pad: this payload starts right after the 8-byte header, so
	// its data section sits at offset 20.
	p := binary.LittleEndian.AppendUint16(nil, uint16(TypeFloat64))
	p = binary.LittleEndian.AppendUint16(p, 1)
	p = binary.LittleEndian.AppendUint64(p, 3)
	for _, v := range []float64{1.5, 2.5, 3.5} {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
	}
	if err := w.begin(); err != nil {
		t.Fatal(err)
	}
	w.put(p)
	sds, err := w.end(TagSDS, "unaligned")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "unaligned.shdf")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Mapped() {
		t.Skip("mmap unavailable: the ReadAt path aligns its payload buffers")
	}
	first, err := f.ReadSDS(sds)
	if err != nil {
		t.Fatal(err)
	}
	if first.Borrowed {
		t.Fatal("an unaligned data section was borrowed")
	}
	first.Float64s[0] = -1 // the caller's own copy
	second, err := f.ReadSDS(sds)
	if err != nil {
		t.Fatal(err)
	}
	if second == first || second.Float64s[0] != 1.5 || second.Float64s[2] != 3.5 {
		t.Fatalf("second read of a copy-decoded dataset = %p %v, want a fresh [1.5 2.5 3.5]",
			second, second.Float64s)
	}
	if n := f.Checksums(); n != 1 {
		t.Fatalf("two reads of one object ran %d CRCs, want 1", n)
	}
}

// With the little-endian fast path forced off, as on a big-endian host,
// every NumType's aligned data section in a natively written file decodes
// to a fresh copy on every read of a mapped file, element for element,
// while the verified payload stays memoized. It flips a package-level
// switch, so it must not run in parallel.
func TestCopyDecodedDatasetNotMemoizedForcedOff(t *testing.T) {
	data := []any{
		[]uint8{0, 1, 0x7f, 0x80, 0xff},
		[]int32{math.MinInt32, -1, 0, 1, math.MaxInt32},
		[]int64{math.MinInt64, -1, 0, 1 << 40, math.MaxInt64},
		[]float32{float32(math.Inf(-1)), -0.5, 0, 1.5, math.MaxFloat32},
		[]float64{math.Inf(1), -0.25, math.SmallestNonzeroFloat64, 2.5, math.MaxFloat64},
	}
	path := filepath.Join(t.TempDir(), "forced-off.shdf")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]Ref, len(data))
	for i, d := range data {
		if refs[i], err = w.WriteSDS("v", []int{5}, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	defer func(le bool) { zerocopy.LittleEndian = le }(zerocopy.LittleEndian)
	zerocopy.LittleEndian = false
	f, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Mapped() {
		t.Skip("mmap unavailable")
	}
	for i, ref := range refs {
		first, err := f.ReadSDS(ref)
		if err != nil {
			t.Fatal(err)
		}
		if first.Borrowed {
			t.Fatalf("%v dataset borrowed with the fast path off", first.Type)
		}
		second, err := f.ReadSDS(ref)
		if err != nil {
			t.Fatal(err)
		}
		if second == first {
			t.Fatalf("%v dataset memoized with the fast path off", first.Type)
		}
		for _, ds := range []*Dataset{first, second} {
			if got := datasetBits(ds); !slices.Equal(got, bitsOf(data[i])) {
				t.Fatalf("%v dataset decoded to %v, want %v", ds.Type, got, bitsOf(data[i]))
			}
		}
	}
	if n := f.Checksums(); n != len(refs) {
		t.Fatalf("two reads of %d objects ran %d CRCs, want %d", len(refs), n, len(refs))
	}
}

// datasetBits returns a dataset's elements as bit patterns.
func datasetBits(ds *Dataset) []uint64 {
	switch ds.Type {
	case TypeUint8:
		return bitsOf(ds.Uint8s)
	case TypeInt32:
		return bitsOf(ds.Int32s)
	case TypeInt64:
		return bitsOf(ds.Int64s)
	case TypeFloat32:
		return bitsOf(ds.Float32s)
	case TypeFloat64:
		return bitsOf(ds.Float64s)
	}
	return nil
}

// bitsOf returns the elements of one of WriteSDS's slice types as bit
// patterns, so NaNs and signed zeros compare exactly.
func bitsOf(data any) []uint64 {
	var out []uint64
	switch v := data.(type) {
	case []uint8:
		for _, x := range v {
			out = append(out, uint64(x))
		}
	case []int32:
		for _, x := range v {
			out = append(out, uint64(uint32(x)))
		}
	case []int64:
		for _, x := range v {
			out = append(out, uint64(x))
		}
	case []float32:
		for _, x := range v {
			out = append(out, uint64(math.Float32bits(x)))
		}
	case []float64:
		for _, x := range v {
			out = append(out, math.Float64bits(x))
		}
	}
	return out
}

// The writer's alignment pad puts every SDS data section on an 8-byte file
// offset, the precondition for mapped aliasing.
func TestWriterAlignsSDSData(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Odd-sized objects in between force realignment.
	if _, err := w.WriteAttr("a", "xyz"); err != nil {
		t.Fatal(err)
	}
	var refs []Ref
	var ranks []int
	for _, elems := range []int{1, 3, 5} {
		r, err := w.WriteSDS("d", []int{elems}, make([]float64, elems))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
		ranks = append(ranks, 1)
		if _, err := w.WriteAttr("pad", "q"); err != nil { // re-misalign
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := NewFile(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range refs {
		info, err := f.Info(r)
		if err != nil {
			t.Fatal(err)
		}
		dataOff := info.Offset + 4 + 8*int64(ranks[i])
		if dataOff%8 != 0 {
			t.Fatalf("SDS %d data section at file offset %d, not 8-aligned", i, dataOff)
		}
	}
}

// The ReadAt path places payload buffers so SDS data is 8-aligned too, and
// borrowed datasets on this host alias the memo rather than copying.
func TestReadAtPathBorrows(t *testing.T) {
	if !zerocopy.LittleEndian {
		t.Skip("aliasing requires a little-endian host")
	}
	img, sds, _, _ := zcSampleImage(t)
	f, err := NewFile(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := f.ReadSDS(sds)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Borrowed {
		t.Fatal("ReadAt-path float64 dataset not borrowed")
	}
	raw, err := f.raw(sds)
	if err != nil {
		t.Fatal(err)
	}
	bs, ok := zerocopy.Bytes(ds.Float64s)
	if !ok {
		t.Fatal("Bytes failed on little-endian host")
	}
	if &bs[0] != &raw[4+8*2] {
		t.Fatal("borrowed dataset does not alias the memoized payload")
	}
	if got, want := ds.Float64s[4], math.Nextafter(5, 5); got != want {
		t.Fatalf("data[4] = %v, want %v", got, want)
	}
}

// raw returns the verified payload bytes for ref, borrowed from the File
// under the borrowing contract in the File doc comment.
func (f *File) raw(ref Ref) ([]byte, error) {
	buf, _, _, err := f.payloadFor(ref)
	return buf, err
}
