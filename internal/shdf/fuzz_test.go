package shdf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// sampleImage builds an in-memory image with one of each object kind, so
// both tests and the fuzz seed corpus can use it without a testing.T.
func sampleImage() ([]byte, error) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	sds, err := w.WriteSDS("pressure", []int{2, 3}, []float64{1, 2, 3, 4, 5, 6})
	if err != nil {
		return nil, err
	}
	attr, err := w.WriteAttr("units", "pascal")
	if err != nil {
		return nil, err
	}
	if _, err := w.WriteVGroup("block_0001", []Ref{sds, attr}); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sampleBytes(t *testing.T) []byte {
	t.Helper()
	data, err := sampleImage()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// exerciseAll opens an image and drives every read path the server uses on a
// client-supplied file; any panic fails the calling test or fuzz run.
func exerciseAll(data []byte) {
	f, err := NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return // rejected at open: the desired outcome for damaged files
	}
	for _, info := range f.Objects() {
		f.ReadSDS(info.Ref)
		f.ReadAttr(info.Ref)
		f.ReadVGroup(info.Ref)
	}
	f.Datasets()
	f.VGroups()
}

// FuzzReader feeds arbitrary images through every decode path. The corpus
// seeds a valid file plus truncations and targeted header/footer mutations;
// `go test` runs the seeds, `go test -fuzz=FuzzReader` explores further.
func FuzzReader(f *testing.F) {
	seeds, err := seedInputs()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		exerciseAll(b)
		sameThroughReadSDSInto(t, b)
	})
}

// sameThroughReadSDSInto reads every object of an image as an SDS through
// ReadSDS and through ReadSDSInto, into one Dataset reused for them all, on
// two Files: one reads each object first through ReadSDS, the other first
// through ReadSDSInto, so each form meets both a first load and a verified
// payload. The two forms must fail with the same error class, or return
// the same name, type, dims, data and borrowing.
func sameThroughReadSDSInto(t *testing.T, data []byte) {
	files := [2]*File{}
	for i := range files {
		f, err := NewFile(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		files[i] = f
	}
	var into Dataset
	for _, info := range files[0].Objects() {
		for i, f := range files {
			var ds *Dataset
			var err, intoErr error
			if i == 0 {
				ds, err = f.ReadSDS(info.Ref)
				intoErr = f.ReadSDSInto(info.Ref, &into)
			} else {
				intoErr = f.ReadSDSInto(info.Ref, &into)
				ds, err = f.ReadSDS(info.Ref)
			}
			if errClass(err) != errClass(intoErr) {
				t.Fatalf("ref %d: ReadSDS error %v, ReadSDSInto error %v", info.Ref, err, intoErr)
			}
			if err != nil {
				continue
			}
			if ds.Name != into.Name || ds.Type != into.Type || ds.Borrowed != into.Borrowed ||
				!slices.Equal(ds.Dims, into.Dims) || !sameElems(ds.Uint8s, into.Uint8s) ||
				!sameElems(ds.Int32s, into.Int32s) || !sameElems(ds.Int64s, into.Int64s) ||
				!sameElems(ds.Float32s, into.Float32s) || !sameElems(ds.Float64s, into.Float64s) {
				t.Fatalf("ref %d: ReadSDS gave %+v, ReadSDSInto %+v", info.Ref, *ds, into)
			}
		}
	}
}

// errClass names the package error err wraps: "" for nil, "other" for an
// error that wraps none.
func errClass(err error) string {
	if err == nil {
		return ""
	}
	for _, class := range []error{ErrNotSHDF, ErrCorrupt, ErrChecksum, ErrNoObject, ErrBadType} {
		if errors.Is(err, class) {
			return class.Error()
		}
	}
	return "other"
}

// sameElems reports whether a and b hold the same elements, NaN matching
// NaN, and are both nil or both not.
func sameElems[T comparable](a, b []T) bool {
	return (a == nil) == (b == nil) && slices.EqualFunc(a, b, func(x, y T) bool { return x == y || x != x && y != y })
}

// seedInputs is the checked-in seed corpus for FuzzReader: one valid image,
// its interesting truncations, and the targeted footer/directory mutations
// the regression tests above exercise. The same list feeds f.Add and the
// files under testdata/fuzz/FuzzReader (see TestWriteFuzzCorpus).
func seedInputs() ([][]byte, error) {
	data, err := sampleImage()
	if err != nil {
		return nil, err
	}
	seeds := [][]byte{data}
	for _, n := range []int{0, 4, 8, len(data) / 2, len(data) - 1} {
		if n <= len(data) {
			seeds = append(seeds, append([]byte(nil), data[:n]...))
		}
	}
	if len(data) >= 16 {
		// Footer with a wild directory offset and count.
		mut := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(mut[len(mut)-16:], ^uint64(0))
		binary.LittleEndian.PutUint32(mut[len(mut)-8:], ^uint32(0))
		seeds = append(seeds, mut)
		// First directory entry with a maximal length field.
		off := binary.LittleEndian.Uint64(data[len(data)-16:])
		if at := int(off) + 2 + 4 + 8; at+8 <= len(data) {
			mut = append([]byte(nil), data...)
			binary.LittleEndian.PutUint64(mut[at:], ^uint64(0)>>1)
			seeds = append(seeds, mut)
		}
	}
	return seeds, nil
}

// TestWriteFuzzCorpus regenerates the on-disk seed corpus. It is a no-op
// unless SHDF_WRITE_CORPUS=1, so normal test runs never touch the tree:
//
//	SHDF_WRITE_CORPUS=1 go test -run TestWriteFuzzCorpus ./internal/shdf
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("SHDF_WRITE_CORPUS") == "" {
		t.Skip("set SHDF_WRITE_CORPUS=1 to regenerate testdata/fuzz/FuzzReader")
	}
	seeds, err := seedInputs()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReader")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// dirOffsetOf parses the footer's directory offset from a valid image.
func dirOffsetOf(t *testing.T, data []byte) int {
	t.Helper()
	if len(data) < 16 {
		t.Fatal("image too short for a footer")
	}
	off := binary.LittleEndian.Uint64(data[len(data)-16:])
	if off > uint64(len(data)) {
		t.Fatalf("bad sample dir offset %d", off)
	}
	return int(off)
}

// TestDescriptorTableCorruption rewrites every byte of the descriptor table
// (directory plus footer) to adversarial values: the reader must return an
// error or a consistent file, and must never panic — the contract godivad
// relies on to turn damaged snapshots into clean protocol errors.
func TestDescriptorTableCorruption(t *testing.T) {
	data := sampleBytes(t)
	dirOff := dirOffsetOf(t, data)
	for pos := dirOff; pos < len(data); pos++ {
		for _, v := range []byte{0x00, 0x01, 0x7F, 0x80, 0xFF} {
			if data[pos] == v {
				continue
			}
			mut := append([]byte(nil), data...)
			mut[pos] = v
			exerciseAll(mut)
		}
	}
}

// TestDescriptorTableTruncation opens every prefix of a valid image: all
// truncation points, including mid-directory and mid-footer, must fail
// cleanly or decode a consistent subset.
func TestDescriptorTableTruncation(t *testing.T) {
	data := sampleBytes(t)
	for n := 0; n <= len(data); n++ {
		exerciseAll(data[:n])
	}
}

// plant rewrites, in a copy of an image, the payload of the named object
// with edit and stores the payload's new CRC in its directory entry, so a
// read gets past the checksum to the decoder under test.
func plant(t *testing.T, data []byte, name string, edit func(payload []byte)) []byte {
	t.Helper()
	mut := append([]byte(nil), data...)
	off := dirOffsetOf(t, mut)
	count := int(binary.LittleEndian.Uint32(mut[len(mut)-8:]))
	// Entry layout: tag u16 | ref u32 | offset u64 | length u64 | crc u32 |
	// name length u16 | name.
	for i := 0; i < count; i++ {
		e := mut[off:]
		nameLen := int(binary.LittleEndian.Uint16(e[26:28]))
		if string(e[28:28+nameLen]) == name {
			at := binary.LittleEndian.Uint64(e[6:14])
			payload := mut[at : at+binary.LittleEndian.Uint64(e[14:22])]
			edit(payload)
			binary.LittleEndian.PutUint32(e[22:26], crc32.ChecksumIEEE(payload))
			return mut
		}
		off += 28 + nameLen
	}
	t.Fatalf("no object %q in the image", name)
	return nil
}

// readPlanted opens a planted image and reads the named object with read,
// which must fail.
func readPlanted(t *testing.T, what string, data []byte, name string, read func(*File, Ref) error) {
	t.Helper()
	f, err := NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("%s: planted image rejected at open: %v", what, err)
	}
	for _, info := range f.Objects() {
		if info.Name == name {
			if err := read(f, info.Ref); err == nil {
				t.Errorf("%s: read succeeded", what)
			}
			return
		}
	}
	t.Fatalf("%s: no object %q", what, name)
}

// TestOversizedCounts plants maximal counts/lengths in directory entries,
// SDS headers and vgroup member lists, which previously could drive huge
// allocations or integer overflow, and asserts the reader rejects them.
func TestOversizedCounts(t *testing.T) {
	data := sampleBytes(t)
	dirOff := dirOffsetOf(t, data)
	// First directory entry layout: tag u16 | ref u32 | offset u64 |
	// length u64 | crc u32 | name. Corrupt offset and length to huge values.
	for _, field := range []struct {
		name string
		at   int
	}{
		{"entry offset", dirOff + 2 + 4},
		{"entry length", dirOff + 2 + 4 + 8},
	} {
		mut := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(mut[field.at:], ^uint64(0)>>1)
		// Both read paths: ReadAt, and a mapping that payloads slice.
		path := filepath.Join(t.TempDir(), "oversized.shdf")
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, open := range []func() (*File, error){
			func() (*File, error) { return NewFile(bytes.NewReader(mut), int64(len(mut))) },
			func() (*File, error) { return OpenMapped(path) },
		} {
			f, err := open()
			if err != nil {
				continue
			}
			for _, info := range f.Objects() {
				if _, err := f.ReadSDS(info.Ref); err == nil && info.ByteLen > int64(len(mut)) {
					t.Errorf("%s: oversized object read succeeded", field.name)
				}
			}
			f.Close()
		}
	}

	// A vgroup member count far past the payload (and past the 1<<24 cap).
	vg := plant(t, data, "block_0001", func(p []byte) {
		binary.LittleEndian.PutUint32(p, 0xFFFFFFF0)
	})
	readPlanted(t, "vgroup member count", vg, "block_0001", func(f *File, ref Ref) error {
		_, err := f.ReadVGroup(ref)
		return err
	})
	// A count at the cap but far past the short payload is rejected before
	// it sizes the member list (64 MiB of refs).
	vg = plant(t, data, "block_0001", func(p []byte) {
		binary.LittleEndian.PutUint32(p, 1<<24)
	})
	f, err := NewFile(bytes.NewReader(vg), int64(len(vg)))
	if err != nil {
		t.Fatal(err)
	}
	var ref Ref
	for _, info := range f.Objects() {
		if info.Name == "block_0001" {
			ref = info.Ref
		}
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.ReadVGroup(ref)
		}
	})
	if _, err := f.ReadVGroup(ref); err == nil {
		t.Error("vgroup claiming 1<<24 members in a short payload read")
	}
	if got := res.AllocedBytesPerOp(); got >= 1<<20 {
		t.Errorf("rejecting a 1<<24-member vgroup allocated %d bytes, want < 1 MiB", got)
	}

	// SDS dims each within the payload length whose product overflows int:
	// 64^11 = 2^66 wraps to 0 elements, which the data section would match.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteSDS("wide", []int{100}, make([]float64, 100)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	const rank = 11
	sds := plant(t, buf.Bytes(), "wide", func(p []byte) {
		binary.LittleEndian.PutUint16(p[2:], rank)
		for i := 0; i < rank; i++ {
			binary.LittleEndian.PutUint64(p[4+8*i:], 64)
		}
	})
	readPlanted(t, "SDS dims product overflow", sds, "wide", func(f *File, ref Ref) error {
		_, err := f.ReadSDS(ref)
		return err
	})

	// A rank past the format's 16 whose unit dims and one element the
	// payload would otherwise satisfy.
	const wideRank = 17
	ranked := plant(t, buf.Bytes(), "wide", func(p []byte) {
		binary.LittleEndian.PutUint16(p[2:], wideRank)
		for i := 0; i < wideRank; i++ {
			binary.LittleEndian.PutUint64(p[4+8*i:], 1)
		}
	})
	readPlanted(t, "SDS rank 17", ranked, "wide", func(f *File, ref Ref) error {
		_, err := f.ReadSDS(ref)
		return err
	})
}
