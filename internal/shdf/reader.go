package shdf

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"

	"godiva/internal/zerocopy"
)

// File is an opened SHDF file: its directory is in memory, object payloads
// are read on demand and verified once.
//
// Borrowing contract: Dataset views flagged Borrowed alias memory owned by
// the File (the mmap, or a verified payload buffer). They are strictly
// read-only; writing through a borrowed view corrupts every later read of
// the same ref, and faults outright on a mapped file. Borrowed views of a
// mapped file are valid only until Close unmaps the file.
type File struct {
	r       io.ReaderAt
	f       *os.File    // non-nil when opened by path and read through ReadAt
	stat    os.FileInfo // the opened file's identity; nil for NewFile
	size    int64
	entries []dirEntry // in directory order
	names   string     // every entry's name, back to back, in directory order
	// byRef lists entry positions sorted by ref, for a directory whose refs
	// are not 1..n in order; nil for the writer's directories, whose ref r
	// is entries[r-1].
	byRef []int

	mu       sync.Mutex
	mapping  []byte   // non-nil when opened by OpenMapped and mmap succeeded; guarded by mu
	verified []uint64 // bit i: entries[i]'s payload passed its CRC; guarded by mu
	buffers  [][]byte // ReadAt path: entries[i]'s verified payload, made at the first load; guarded by mu
	checks   int      // payload CRCs computed; guarded by mu
}

// Open opens the named SHDF file.
func Open(path string) (*File, error) {
	osf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := osf.Stat()
	if err != nil {
		osf.Close()
		return nil, err
	}
	f, err := NewFile(osf, st.Size())
	if err != nil {
		osf.Close()
		return nil, err
	}
	f.f, f.stat = osf, st
	return f, nil
}

// OpenMapped opens the named SHDF file with its contents memory-mapped, so
// payload access borrows subslices of the mapping instead of allocating and
// reading. When the platform has no mmap or the map fails for any reason it
// falls back to the ReadAt path of Open — the returned File behaves
// identically either way (Mapped reports which mode was chosen). A mapped
// File holds no file descriptor: the mapping keeps the pages, so the
// descriptor is closed as soon as the map succeeds.
func OpenMapped(path string) (*File, error) {
	osf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := osf.Stat()
	if err != nil {
		osf.Close()
		return nil, err
	}
	m, err := mmapFile(osf, st.Size())
	if err != nil {
		f, err := NewFile(osf, st.Size())
		if err != nil {
			osf.Close()
			return nil, err
		}
		f.f, f.stat = osf, st
		return f, nil
	}
	if err := osf.Close(); err != nil {
		munmapFile(m)
		return nil, err
	}
	f, err := newFile(closedReaderAt{}, st.Size(), m)
	if err != nil {
		munmapFile(m)
		return nil, err
	}
	f.stat = st
	return f, nil
}

// Mapped reports whether the file's contents are memory-mapped.
func (f *File) Mapped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mapping != nil
}

// Stat returns the FileInfo of the file Open or OpenMapped opened, taken
// from its descriptor — the identity (device, inode, size, modification
// time) of the bytes this File reads, whatever its path names since. It is
// nil for a File made by NewFile.
func (f *File) Stat() os.FileInfo { return f.stat }

// Checksums returns how many payload CRCs the File has computed. An object
// is checked once per File, or once per mapping, unless its check fails.
func (f *File) Checksums() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.checks
}

// NewFile opens an SHDF image held by an io.ReaderAt of the given size.
func NewFile(r io.ReaderAt, size int64) (*File, error) {
	return newFile(r, size, nil)
}

// newFile opens an SHDF image of the given size read through r, or sliced
// straight out of mapping when that is non-nil (r is then never read).
func newFile(r io.ReaderAt, size int64, mapping []byte) (*File, error) {
	if size < 0 {
		return nil, fmt.Errorf("%w: negative size", ErrNotSHDF)
	}
	f := &File{r: r, size: size, mapping: mapping}
	if err := f.readHeader(); err != nil {
		return nil, err
	}
	if err := f.readDirectory(); err != nil {
		return nil, err
	}
	return f, nil
}

// Close unmaps the file (if mapped) or closes the underlying file (if the
// File owns one). Borrowed payloads of a mapped file are invalid afterwards;
// its payloads count as unverified again, so later reads fail cleanly
// instead of touching unmapped memory.
func (f *File) Close() error {
	var err error
	f.mu.Lock()
	if f.mapping != nil {
		clear(f.verified)
		err = munmapFile(f.mapping)
		f.mapping = nil
	}
	osf := f.f
	f.f = nil
	f.mu.Unlock()
	if osf != nil {
		if cerr := osf.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// bytesAt returns the n bytes at off: a subslice of the mapping, or read
// into a new buffer.
func (f *File) bytesAt(n int, off int64) ([]byte, error) {
	if f.mapping != nil {
		if off < 0 || int64(n) > int64(len(f.mapping))-off {
			return nil, io.ErrUnexpectedEOF
		}
		return f.mapping[off : off+int64(n)], nil
	}
	b := make([]byte, n)
	if _, err := f.r.ReadAt(b, off); err != nil {
		return nil, err
	}
	return b, nil
}

func (f *File) readHeader() error {
	hdr, err := f.bytesAt(len(magic)+4, 0)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNotSHDF, err)
	}
	if string(hdr[:len(magic)]) != magic {
		return fmt.Errorf("%w: bad magic", ErrNotSHDF)
	}
	if v := binary.LittleEndian.Uint32(hdr[len(magic):]); v != version {
		return fmt.Errorf("%w: unsupported version %d", ErrNotSHDF, v)
	}
	return nil
}

// entryMin is a directory entry's size before its name: tag, ref, offset,
// length, crc and name length.
const entryMin = 2 + 4 + 8 + 8 + 4 + 2

// readDirectory decodes the directory into entries, sized once from the
// footer's count. A count the directory's bytes cannot hold is corrupt and
// refused before anything is sized from it. Every name is copied into one
// string, names, without the entry headers, and unless the refs are the
// writer's 1..n a sorted index (byRef) stands in for a map from ref to
// entry.
func (f *File) readDirectory() error {
	const footerLen = 8 + 4 + 4
	if f.size < int64(len(magic)+4+footerLen) {
		return fmt.Errorf("%w: truncated", ErrCorrupt)
	}
	ftr, err := f.bytesAt(footerLen, f.size-footerLen)
	if err != nil {
		return fmt.Errorf("%w: footer: %v", ErrCorrupt, err)
	}
	if string(ftr[12:]) != footerMagic {
		return fmt.Errorf("%w: bad footer magic", ErrCorrupt)
	}
	dirOffset := binary.LittleEndian.Uint64(ftr[0:8])
	count := binary.LittleEndian.Uint32(ftr[8:12])
	if dirOffset > uint64(f.size-footerLen) {
		return fmt.Errorf("%w: directory offset out of range", ErrCorrupt)
	}
	dirBytes, err := f.bytesAt(int(f.size-footerLen-int64(dirOffset)), int64(dirOffset))
	if err != nil {
		return fmt.Errorf("%w: directory: %v", ErrCorrupt, err)
	}
	if uint64(count) > uint64(len(dirBytes)/entryMin) || uint64(len(dirBytes)) > math.MaxUint32 {
		return fmt.Errorf("%w: %d directory entries in %d bytes", ErrCorrupt, count, len(dirBytes))
	}
	f.entries = make([]dirEntry, count)
	inOrder, nameBytes := true, 0
	d := decoder{buf: dirBytes}
	for i := range f.entries {
		e := &f.entries[i]
		e.tag = Tag(d.u16())
		e.ref = Ref(d.u32())
		e.offset = d.u64()
		e.length = d.u64()
		e.crc = d.u32()
		e.nameLen = d.u16()
		e.nameAt = uint32(d.off) // in dirBytes until the names are copied
		if d.bytes(int(e.nameLen)); d.err != nil {
			return fmt.Errorf("%w: directory entry %d", ErrCorrupt, i)
		}
		// Bounds-check without uint64 wraparound: an entry whose offset or
		// length was corrupted to a huge value must not pass as in-range
		// (offset+length can wrap) nor reach make([]byte, length).
		if e.length > dirOffset || e.offset > dirOffset-e.length {
			return fmt.Errorf("%w: object %q extends past directory", ErrCorrupt, e.nameIn(string(dirBytes)))
		}
		inOrder = inOrder && e.ref == Ref(i+1)
		nameBytes += int(e.nameLen)
	}
	var names strings.Builder
	names.Grow(nameBytes)
	for i := range f.entries {
		e := &f.entries[i]
		at := names.Len()
		names.Write(dirBytes[e.nameAt : e.nameAt+uint32(e.nameLen)])
		e.nameAt = uint32(at)
	}
	f.names = names.String()
	f.verified = make([]uint64, (len(f.entries)+63)/64)
	if !inOrder {
		f.byRef = make([]int, len(f.entries))
		for i := range f.byRef {
			f.byRef[i] = i
		}
		// Stable: of the entries sharing a ref, the last in directory order
		// is the last in byRef, which lookup answers with.
		slices.SortStableFunc(f.byRef, func(a, b int) int {
			return cmp.Compare(f.entries[a].ref, f.entries[b].ref)
		})
	}
	return nil
}

// lookup returns the position of the last directory entry with ref.
//
//godiva:noalloc
func (f *File) lookup(ref Ref) (int, bool) {
	if f.byRef == nil {
		i := int(ref) - 1
		return i, i >= 0 && i < len(f.entries)
	}
	// The first position in byRef whose ref is past ref follows the last
	// entry with it.
	lo, hi := 0, len(f.byRef)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.entries[f.byRef[mid]].ref <= ref {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 || f.entries[f.byRef[lo-1]].ref != ref {
		return 0, false
	}
	return f.byRef[lo-1], true
}

// decoder walks a byte slice, remembering the first error.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) need(n int) []byte {
	if d.err != nil {
		return nil
	}
	// Compare against the remaining length rather than d.off+n, which can
	// overflow when a corrupt header asks for a near-MaxInt count.
	if n < 0 || n > len(d.buf)-d.off {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u16() uint16 {
	b := d.need(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.need(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.need(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) bytes(n int) []byte {
	if n < 0 {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	return d.need(n)
}

// ObjectInfo describes one object without reading its payload.
type ObjectInfo struct {
	Tag     Tag
	Ref     Ref
	Name    string
	Offset  int64 // payload position in the file
	ByteLen int64 // payload length on disk
}

func (f *File) info(e *dirEntry) ObjectInfo {
	return ObjectInfo{Tag: e.tag, Ref: e.ref, Name: e.nameIn(f.names),
		Offset: int64(e.offset), ByteLen: int64(e.length)}
}

// Objects lists every object in directory order.
func (f *File) Objects() []ObjectInfo {
	out := make([]ObjectInfo, len(f.entries))
	for i := range f.entries {
		out[i] = f.info(&f.entries[i])
	}
	return out
}

// Datasets lists the SDS objects in directory order.
func (f *File) Datasets() []ObjectInfo {
	var out []ObjectInfo
	for i := range f.entries {
		if f.entries[i].tag == TagSDS {
			out = append(out, f.info(&f.entries[i]))
		}
	}
	return out
}

// NumObjects returns how many objects the directory lists.
func (f *File) NumObjects() int { return len(f.entries) }

// Object returns the i'th object in directory order, 0 ≤ i < NumObjects.
func (f *File) Object(i int) ObjectInfo { return f.info(&f.entries[i]) }

// Info returns the directory entry for a ref.
func (f *File) Info(ref Ref) (ObjectInfo, error) {
	i, ok := f.lookup(ref)
	if !ok {
		return ObjectInfo{}, fmt.Errorf("%w: ref %d", ErrNoObject, ref)
	}
	return f.info(&f.entries[i]), nil
}

// FindByName returns the first object with the given tag and name.
func (f *File) FindByName(tag Tag, name string) (ObjectInfo, error) {
	for i := range f.entries {
		if e := &f.entries[i]; e.tag == tag && e.nameIn(f.names) == name {
			return f.info(e), nil
		}
	}
	return ObjectInfo{}, fmt.Errorf("%w: %v %q", ErrNoObject, tag, name)
}

// closedReaderAt is a mapped File's reader, read only once Close has
// unmapped the file, so late reads fail instead of touching unmapped memory.
type closedReaderAt struct{}

func (closedReaderAt) ReadAt([]byte, int64) (int, error) { return 0, os.ErrClosed }

// verifiedLocked returns entries[i]'s payload if its CRC has been checked:
// a subslice of the mapping, or its ReadAt buffer. It is the steady-state
// read path, with no I/O, no hashing and no allocation. Caller holds f.mu.
//
//godiva:noalloc
func (f *File) verifiedLocked(i int) ([]byte, bool) {
	if f.verified[i/64]&(1<<(i%64)) == 0 {
		return nil, false
	}
	if f.mapping == nil {
		return f.buffers[i], true
	}
	e := &f.entries[i]
	// readDirectory bounds-checked offset+length against the directory
	// offset, which is within the mapping.
	return f.mapping[e.offset : e.offset+e.length : e.offset+e.length], true
}

// payloadFor returns the verified payload bytes for ref, borrowed from the
// File, and its entry. The CRC is validated once per entry: the first
// access reads (or, when mapped, aliases) the bytes, checks the sum and
// sets the entry's verified bit; every later access finds the bit.
func (f *File) payloadFor(ref Ref) ([]byte, *dirEntry, error) {
	i, ok := f.lookup(ref)
	if !ok {
		return nil, nil, fmt.Errorf("%w: ref %d", ErrNoObject, ref)
	}
	e := &f.entries[i]
	f.mu.Lock()
	defer f.mu.Unlock()
	if buf, ok := f.verifiedLocked(i); ok {
		return buf, e, nil
	}
	var buf []byte
	if f.mapping != nil {
		buf = f.mapping[e.offset : e.offset+e.length : e.offset+e.length]
	} else {
		// Allocate at base ≡ 4 (mod 8) so an SDS data section — at payload
		// offset 4+8·rank ≡ 4 (mod 8) — lands 8-aligned and ReadSDS can alias
		// it instead of decode-copying.
		buf = zerocopy.MakeOffsetAligned(int(e.length), 8, 4)
		// The serialized read below holds f.mu: payload loads are
		// intentionally one-at-a-time per File, and nothing the I/O depends
		// on waits on this mutex, so no lock-order cycle is possible through
		// os.File.ReadAt.
		if _, err := f.r.ReadAt(buf, int64(e.offset)); err != nil {
			return nil, nil, fmt.Errorf("%w: object %q: %v", ErrCorrupt, e.nameIn(f.names), err)
		}
	}
	f.checks++
	if crc32.ChecksumIEEE(buf) != e.crc {
		return nil, nil, fmt.Errorf("%w: object %q", ErrChecksum, e.nameIn(f.names))
	}
	if f.mapping == nil {
		if f.buffers == nil {
			f.buffers = make([][]byte, len(f.entries))
		}
		f.buffers[i] = buf
	}
	f.verified[i/64] |= 1 << (i % 64)
	return buf, e, nil
}

// Dataset is a decoded SDS: element type, dimensions, and the data in its
// natural Go slice type.
type Dataset struct {
	Name string
	Type NumType
	Dims []int

	Uint8s   []uint8
	Int32s   []int32
	Int64s   []int64
	Float32s []float32
	Float64s []float64

	// Borrowed reports that the data slice above aliases memory owned by
	// the File (the mapping or a verified payload buffer) instead of a
	// private copy. Borrowed data is read-only, and for mapped files must
	// not be used after the File is closed. It is set whenever the payload's
	// data section is naturally aligned on a little-endian host; callers
	// needing a private mutable copy must copy explicitly. The Dataset
	// itself belongs to the caller: ReadSDS makes a fresh one per call, and
	// ReadSDSInto fills the caller's.
	Borrowed bool
}

// Len returns the number of elements.
func (ds *Dataset) Len() int {
	n := 1
	for _, d := range ds.Dims {
		n *= d
	}
	return n
}

// ReadSDS reads and decodes the scientific dataset with the given ref into
// a new Dataset.
func (f *File) ReadSDS(ref Ref) (*Dataset, error) {
	ds := new(Dataset)
	if err := f.ReadSDSInto(ref, ds); err != nil {
		return nil, err
	}
	return ds, nil
}

// ReadSDSInto is ReadSDS into the caller's ds, whose every field it
// replaces. Dims reuses the memory of ds.Dims, so a caller that reads many
// datasets through one Dataset allocates nothing for a borrowed view: a
// Dims slice taken from ds before the call is overwritten by it. On error
// ds is left in an unspecified state.
func (f *File) ReadSDSInto(ref Ref, ds *Dataset) error {
	buf, e, err := f.payloadFor(ref)
	if err != nil {
		return err
	}
	name := e.nameIn(f.names)
	if e.tag != TagSDS {
		return fmt.Errorf("%w: ref %d is a %v, not an SDS", ErrNoObject, ref, e.tag)
	}
	d := decoder{buf: buf}
	nt := NumType(d.u16())
	rank := int(d.u16())
	if rank > maxRank {
		return fmt.Errorf("%w: SDS %q rank %d", ErrCorrupt, name, rank)
	}
	dims := ds.Dims[:0]
	if cap(dims) < rank {
		dims = make([]int, 0, rank)
	}
	n := 1
	for range rank {
		v := d.u64()
		// Every dimension and the running element count are bounded by the
		// payload length: anything larger is a corrupt header, and letting it
		// through would overflow the product or feed a huge make() below.
		if v > uint64(len(buf)) || v != 0 && n > len(buf)/int(v) {
			return fmt.Errorf("%w: SDS %q dims", ErrCorrupt, name)
		}
		n *= int(v)
		dims = append(dims, int(v))
	}
	if d.err != nil {
		return fmt.Errorf("%w: SDS %q header", ErrCorrupt, name)
	}
	es := nt.Size()
	if es == 0 {
		return fmt.Errorf("%w: SDS %q type %v", ErrBadType, name, nt)
	}
	raw := d.bytes(n * es)
	if d.err != nil {
		return fmt.Errorf("%w: SDS %q data", ErrCorrupt, name)
	}
	// Field by field, not a composite literal, which is built aside and
	// copied in.
	ds.Name, ds.Type, ds.Dims = name, nt, dims
	ds.Uint8s, ds.Int32s, ds.Int64s, ds.Float32s, ds.Float64s = nil, nil, nil, nil, nil
	// The payload is verified and lives as long as the File, so the data
	// section can be aliased instead of decode-copied when its alignment
	// and the host's endianness allow; the copying decode is the fallback.
	switch nt {
	case TypeUint8:
		ds.Uint8s, ds.Borrowed = zerocopy.Decode[uint8](raw)
	case TypeInt32:
		ds.Int32s, ds.Borrowed = zerocopy.Decode[int32](raw)
	case TypeInt64:
		ds.Int64s, ds.Borrowed = zerocopy.Decode[int64](raw)
	case TypeFloat32:
		ds.Float32s, ds.Borrowed = zerocopy.Decode[float32](raw)
	case TypeFloat64:
		ds.Float64s, ds.Borrowed = zerocopy.Decode[float64](raw)
	}
	return nil
}

// Attr is a decoded attribute.
type Attr struct {
	Name  string
	Str   string
	Int   int64
	Float float64
	IsStr bool
	IsInt bool
	IsFlt bool
}

// ReadAttr reads and decodes the attribute with the given ref.
func (f *File) ReadAttr(ref Ref) (*Attr, error) {
	buf, e, err := f.payloadFor(ref)
	if err != nil {
		return nil, err
	}
	name := e.nameIn(f.names)
	if e.tag != TagAttr {
		return nil, fmt.Errorf("%w: ref %d is a %v, not an attribute", ErrNoObject, ref, e.tag)
	}
	d := decoder{buf: buf}
	nt := NumType(d.u16())
	count := int(d.u64())
	a := &Attr{Name: name}
	switch nt {
	case TypeUint8:
		a.Str = string(d.bytes(count))
		a.IsStr = true
	case TypeInt64:
		a.Int = int64(d.u64())
		a.IsInt = true
	case TypeFloat64:
		a.Float = math.Float64frombits(d.u64())
		a.IsFlt = true
	default:
		return nil, fmt.Errorf("%w: attribute %q type %v", ErrBadType, name, nt)
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: attribute %q", ErrCorrupt, name)
	}
	return a, nil
}

// VGroup is a decoded vgroup.
type VGroup struct {
	Name    string
	Members []Ref
}

// ReadVGroup reads and decodes the vgroup with the given ref.
func (f *File) ReadVGroup(ref Ref) (*VGroup, error) {
	name, members, err := f.AppendVGroup(nil, ref)
	if err != nil {
		return nil, err
	}
	return &VGroup{Name: name, Members: members}, nil
}

// AppendVGroup reads the vgroup with the given ref as ReadVGroup does,
// appending its members to dst: a caller that reads many groups into one
// list allocates none for them.
func (f *File) AppendVGroup(dst []Ref, ref Ref) (name string, members []Ref, err error) {
	buf, e, err := f.payloadFor(ref)
	if err != nil {
		return "", dst, err
	}
	name = e.nameIn(f.names)
	if e.tag != TagVGroup {
		return "", dst, fmt.Errorf("%w: ref %d is a %v, not a vgroup", ErrNoObject, ref, e.tag)
	}
	d := decoder{buf: buf}
	count := int(d.u32())
	// The member list must actually fit in the payload; checking before the
	// append keeps a corrupt count from allocating gigabytes.
	if count < 0 || count > 1<<24 || count > (len(buf)-4)/4 {
		return "", dst, fmt.Errorf("%w: vgroup %q count", ErrCorrupt, name)
	}
	raw := d.bytes(4 * count)
	if d.err != nil {
		return "", dst, fmt.Errorf("%w: vgroup %q", ErrCorrupt, name)
	}
	// The members outlive the payload, which may be a read-only mapping, so
	// a view of it is copied.
	if members, ok := zerocopy.View[Ref](raw); ok {
		return name, append(dst, members...), nil
	}
	for len(raw) > 0 {
		dst = append(dst, Ref(binary.LittleEndian.Uint32(raw)))
		raw = raw[4:]
	}
	return name, dst, nil
}

// VGroups lists all vgroups, sorted by name, with their members decoded.
func (f *File) VGroups() ([]*VGroup, error) {
	var out []*VGroup
	for _, e := range f.entries {
		if e.tag != TagVGroup {
			continue
		}
		g, err := f.ReadVGroup(e.ref)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
