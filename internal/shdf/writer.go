package shdf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"godiva/internal/zerocopy"
)

// scratchSize is the Writer's encoding scratch: room for the largest SDS
// header (4+8·maxRank bytes) and for one chunk of elements encoded on a host
// whose memory order is not the file's.
const scratchSize = 4096

// Writer writes an SHDF file sequentially: objects first, directory and
// footer on Close.
type Writer struct {
	w       *bufio.Writer
	f       *os.File // non-nil when created by Create, closed by Close
	offset  uint64   // stream offset of the next object's first byte
	nextRef Ref
	dir     []dirEntry
	done    bool
	err     error

	// The object being written streams straight into w; crc and n
	// accumulate its CRC-32 and length as its bytes go.
	crc uint32
	n   uint64
	// scratch encodes headers and directory entries and, on big-endian
	// hosts, array elements a chunk at a time.
	scratch [scratchSize]byte
}

// Create creates or truncates the named file and returns a Writer on it.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := NewWriter(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.f = f
	return w, nil
}

// NewWriter starts an SHDF stream on w by writing the header. The caller
// owns w's lifetime; Close only flushes.
func NewWriter(w io.Writer) (*Writer, error) {
	sw := &Writer{w: bufio.NewWriterSize(w, 1<<16), nextRef: 1}
	if _, err := sw.w.WriteString(magic); err != nil {
		return nil, err
	}
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], version)
	if _, err := sw.w.Write(v[:]); err != nil {
		return nil, err
	}
	sw.offset = uint64(len(magic)) + 4
	return sw, nil
}

// zeros is the alignment pad WriteSDS writes between objects.
var zeros [8]byte

// checkName rejects object names the directory's u16 length cannot hold.
func checkName(name string) error {
	if len(name) > math.MaxUint16 {
		return fmt.Errorf("%w: object name of %d bytes, over %d", ErrBadShape, len(name), math.MaxUint16)
	}
	return nil
}

// begin starts an object at the current stream offset.
func (w *Writer) begin() error {
	if w.done {
		return ErrWriterDone
	}
	if w.err != nil {
		return w.err
	}
	w.crc, w.n = 0, 0
	return nil
}

// put streams b as the object's next bytes. The first write error sticks in
// w.err; later puts do nothing and end reports it.
func (w *Writer) put(b []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.w.Write(b); err != nil {
		w.err = err
		return
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, b)
	w.n += uint64(len(b))
}

// putArray streams v's little-endian bytes: v's own memory where the host
// allows, otherwise encoded a scratch-sized chunk at a time.
func putArray[T zerocopy.Elem](w *Writer, v []T) {
	if b, ok := zerocopy.Bytes(v); ok {
		w.put(b)
		return
	}
	const per = scratchSize / 8 // elements of the widest type
	for len(v) > 0 {
		k := min(len(v), per)
		w.put(zerocopy.AppendLE(w.scratch[:0], v[:k]))
		v = v[k:]
	}
}

// end records the object written since begin in the directory.
func (w *Writer) end(tag Tag, name string) (Ref, error) {
	if w.err != nil {
		return 0, w.err
	}
	ref := w.nextRef
	w.nextRef++
	w.dir = append(w.dir, dirEntry{
		tag:    tag,
		ref:    ref,
		offset: w.offset,
		length: w.n,
		crc:    w.crc,
		name:   name,
	})
	w.offset += w.n
	return ref, nil
}

// alignForSDS pads the stream with zeros to the next offset ≡ 4 (mod 8), so
// the SDS payload written next has an 8-aligned data section. The pad sits
// between objects: it is in no object's bytes or CRC.
func (w *Writer) alignForSDS() {
	pad := (4 - w.offset%8 + 8) % 8
	if pad == 0 || w.err != nil {
		return
	}
	if _, err := w.w.Write(zeros[:pad]); err != nil {
		w.err = err
		return
	}
	w.offset += pad
}

// WriteSDS writes a scientific dataset: a named multidimensional array.
// data must be one of []uint8, []int32, []int64, []float32 or []float64 and
// its length must equal the product of dims. The array is streamed from
// data itself — on a little-endian host its memory already is the file's
// encoding — so a write costs no copy of it.
func (w *Writer) WriteSDS(name string, dims []int, data any) (Ref, error) {
	if err := checkName(name); err != nil {
		return 0, err
	}
	if len(dims) > maxRank {
		return 0, fmt.Errorf("%w: rank %d, over %d", ErrBadShape, len(dims), maxRank)
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return 0, fmt.Errorf("%w: dimension %d", ErrBadShape, d)
		}
		if n > math.MaxInt/d {
			return 0, fmt.Errorf("%w: dims %v overflow an element count", ErrBadShape, dims)
		}
		n *= d
	}
	var (
		nt    NumType
		count int
	)
	switch v := data.(type) {
	case []uint8:
		nt, count = TypeUint8, len(v)
	case []int32:
		nt, count = TypeInt32, len(v)
	case []int64:
		nt, count = TypeInt64, len(v)
	case []float32:
		nt, count = TypeFloat32, len(v)
	case []float64:
		nt, count = TypeFloat64, len(v)
	default:
		return 0, fmt.Errorf("%w: %T", ErrBadType, data)
	}
	if count != n {
		return 0, fmt.Errorf("%w: dims %v hold %d elements, data has %d", ErrBadShape, dims, n, count)
	}
	if err := w.begin(); err != nil {
		return 0, err
	}
	// Pad the stream so this payload starts at offset ≡ 4 (mod 8), which
	// puts the data section (payload offset 4+8·rank) on an 8-byte boundary.
	// Mapped readers can then alias the data in place; the pad bytes sit
	// between payloads and are invisible to the directory.
	w.alignForSDS()
	h := w.scratch[:4+8*len(dims)]
	binary.LittleEndian.PutUint16(h, uint16(nt))
	binary.LittleEndian.PutUint16(h[2:], uint16(len(dims)))
	for i, d := range dims {
		binary.LittleEndian.PutUint64(h[4+8*i:], uint64(d))
	}
	w.put(h)
	switch v := data.(type) {
	case []uint8:
		putArray(w, v)
	case []int32:
		putArray(w, v)
	case []int64:
		putArray(w, v)
	case []float32:
		putArray(w, v)
	case []float64:
		putArray(w, v)
	}
	return w.end(TagSDS, name)
}

// WriteAttr writes a named attribute. value must be a string, int64,
// float64, or one of the slice types WriteSDS accepts.
func (w *Writer) WriteAttr(name string, value any) (Ref, error) {
	if err := checkName(name); err != nil {
		return 0, err
	}
	// Header: type u16, count u64; then the value.
	h := w.scratch[:18]
	var str string
	switch v := value.(type) {
	case string:
		binary.LittleEndian.PutUint16(h, uint16(TypeUint8))
		binary.LittleEndian.PutUint64(h[2:], uint64(len(v)))
		h, str = h[:10], v
	case int64:
		binary.LittleEndian.PutUint16(h, uint16(TypeInt64))
		binary.LittleEndian.PutUint64(h[2:], 1)
		binary.LittleEndian.PutUint64(h[10:], uint64(v))
	case int:
		binary.LittleEndian.PutUint16(h, uint16(TypeInt64))
		binary.LittleEndian.PutUint64(h[2:], 1)
		binary.LittleEndian.PutUint64(h[10:], uint64(int64(v)))
	case float64:
		binary.LittleEndian.PutUint16(h, uint16(TypeFloat64))
		binary.LittleEndian.PutUint64(h[2:], 1)
		binary.LittleEndian.PutUint64(h[10:], math.Float64bits(v))
	default:
		return 0, fmt.Errorf("%w: attribute %T", ErrBadType, value)
	}
	if err := w.begin(); err != nil {
		return 0, err
	}
	w.put(h)
	w.put([]byte(str))
	return w.end(TagAttr, name)
}

// WriteVGroup writes a named group whose members are previously written
// objects, as HDF4 vgroups collect related datasets.
func (w *Writer) WriteVGroup(name string, members []Ref) (Ref, error) {
	if err := checkName(name); err != nil {
		return 0, err
	}
	if err := w.begin(); err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint32(w.scratch[:], uint32(len(members)))
	w.put(w.scratch[:4])
	putArray(w, members)
	return w.end(TagVGroup, name)
}

// Close writes the directory and footer, flushes, and closes the underlying
// file if the Writer owns it.
func (w *Writer) Close() error {
	if w.done {
		return ErrWriterDone
	}
	w.done = true
	err := w.err
	if err == nil {
		w.writeDirectory()
		err = w.w.Flush()
	}
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// writeDirectory streams the directory entries and the footer into the
// buffered stream. bufio.Writer's first error sticks, so Flush reports it.
func (w *Writer) writeDirectory() {
	dirOffset := w.offset
	b := w.scratch[:]
	for _, e := range w.dir {
		binary.LittleEndian.PutUint16(b, uint16(e.tag))
		binary.LittleEndian.PutUint32(b[2:], uint32(e.ref))
		binary.LittleEndian.PutUint64(b[6:], e.offset)
		binary.LittleEndian.PutUint64(b[14:], e.length)
		binary.LittleEndian.PutUint32(b[22:], e.crc)
		binary.LittleEndian.PutUint16(b[26:], uint16(len(e.name)))
		w.w.Write(b[:28])
		w.w.WriteString(e.name)
	}
	binary.LittleEndian.PutUint64(b, dirOffset)
	binary.LittleEndian.PutUint32(b[8:], uint32(len(w.dir)))
	copy(b[12:], footerMagic)
	w.w.Write(b[:16])
}
