package shdf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
	"sync"

	"godiva/internal/zerocopy"
)

// File is an opened SHDF file: its directory is in memory, object payloads
// are read on demand and memoized once their CRC has been verified.
//
// Borrowing contract: payload bytes returned by Raw — and Dataset views
// flagged Borrowed — alias memory owned by the File (the mmap, or the
// verified payload cache). They are strictly read-only; writing through a
// borrowed view corrupts every later read of the same ref, and faults
// outright on a mapped file. Borrowed views of a mapped file are valid only
// until Close unmaps the file.
type File struct {
	r       io.ReaderAt
	f       *os.File    // non-nil when opened by path and read through ReadAt
	stat    os.FileInfo // the opened file's identity; nil for NewFile
	size    int64
	entries []dirEntry
	byRef   map[Ref]int

	mapping []byte     // non-nil when opened by OpenMapped and mmap succeeded
	mu      sync.Mutex // guards entries' payload/verified/ds memoization
	checks  int        // payload CRCs computed; guarded by mu
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
	f, err := NewFile(bytes.NewReader(m), st.Size())
	if err != nil {
		munmapFile(m)
		return nil, err
	}
	f.mapping, f.stat = m, st
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

// Checksums returns how many payload CRCs the File has computed. A verified
// payload is memoized, so each object is checked once per File unless its
// check fails.
func (f *File) Checksums() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.checks
}

// NewFile opens an SHDF image held by an io.ReaderAt of the given size.
func NewFile(r io.ReaderAt, size int64) (*File, error) {
	if size < 0 {
		return nil, fmt.Errorf("%w: negative size", ErrNotSHDF)
	}
	f := &File{r: r, size: size, byRef: make(map[Ref]int)}
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
// the payload cache is dropped so later reads fail cleanly instead of
// touching unmapped memory.
func (f *File) Close() error {
	var err error
	f.mu.Lock()
	if f.mapping != nil {
		for i := range f.entries {
			f.entries[i].payload = nil
			f.entries[i].verified = false
			f.entries[i].ds = nil
		}
		err = munmapFile(f.mapping)
		f.mapping = nil
		// f.r aliased the mapping; it must not be read again.
		f.r = closedReaderAt{}
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

func (f *File) readHeader() error {
	hdr := make([]byte, len(magic)+4)
	if _, err := f.r.ReadAt(hdr, 0); err != nil {
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

func (f *File) readDirectory() error {
	const footerLen = 8 + 4 + 4
	if f.size < int64(len(magic)+4+footerLen) {
		return fmt.Errorf("%w: truncated", ErrCorrupt)
	}
	ftr := make([]byte, footerLen)
	if _, err := f.r.ReadAt(ftr, f.size-footerLen); err != nil {
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
	dirBytes := make([]byte, f.size-footerLen-int64(dirOffset))
	if _, err := f.r.ReadAt(dirBytes, int64(dirOffset)); err != nil {
		return fmt.Errorf("%w: directory: %v", ErrCorrupt, err)
	}
	d := decoder{buf: dirBytes}
	for i := uint32(0); i < count; i++ {
		var e dirEntry
		e.tag = Tag(d.u16())
		e.ref = Ref(d.u32())
		e.offset = d.u64()
		e.length = d.u64()
		e.crc = d.u32()
		e.name = string(d.bytes(int(d.u16())))
		if d.err != nil {
			return fmt.Errorf("%w: directory entry %d", ErrCorrupt, i)
		}
		// Bounds-check without uint64 wraparound: an entry whose offset or
		// length was corrupted to a huge value must not pass as in-range
		// (offset+length can wrap) nor reach make([]byte, length).
		if e.length > dirOffset || e.offset > dirOffset-e.length {
			return fmt.Errorf("%w: object %q extends past directory", ErrCorrupt, e.name)
		}
		f.byRef[e.ref] = len(f.entries)
		f.entries = append(f.entries, e)
	}
	return nil
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

func (e *dirEntry) info() ObjectInfo {
	return ObjectInfo{Tag: e.tag, Ref: e.ref, Name: e.name,
		Offset: int64(e.offset), ByteLen: int64(e.length)}
}

// Objects lists every object in directory order.
func (f *File) Objects() []ObjectInfo {
	out := make([]ObjectInfo, len(f.entries))
	for i := range f.entries {
		out[i] = f.entries[i].info()
	}
	return out
}

// Datasets lists the SDS objects in directory order.
func (f *File) Datasets() []ObjectInfo {
	var out []ObjectInfo
	for i := range f.entries {
		if f.entries[i].tag == TagSDS {
			out = append(out, f.entries[i].info())
		}
	}
	return out
}

// Info returns the directory entry for a ref.
func (f *File) Info(ref Ref) (ObjectInfo, error) {
	i, ok := f.byRef[ref]
	if !ok {
		return ObjectInfo{}, fmt.Errorf("%w: ref %d", ErrNoObject, ref)
	}
	return f.entries[i].info(), nil
}

// FindByName returns the first object with the given tag and name.
func (f *File) FindByName(tag Tag, name string) (ObjectInfo, error) {
	for i := range f.entries {
		if f.entries[i].tag == tag && f.entries[i].name == name {
			return f.entries[i].info(), nil
		}
	}
	return ObjectInfo{}, fmt.Errorf("%w: %v %q", ErrNoObject, tag, name)
}

// closedReaderAt replaces a mapped File's reader after Close, so late reads
// fail instead of touching unmapped memory.
type closedReaderAt struct{}

func (closedReaderAt) ReadAt([]byte, int64) (int, error) { return 0, os.ErrClosed }

// cachedPayload is the steady-state read path: a verified payload — and, for
// an SDS read before, its memoized borrowed view — comes straight from the
// memo with no I/O, no hashing, and no allocation.
//
//godiva:noalloc
func (f *File) cachedPayload(ref Ref) ([]byte, *dirEntry, *Dataset, bool) {
	f.mu.Lock()
	i, ok := f.byRef[ref]
	if !ok {
		f.mu.Unlock()
		return nil, nil, nil, false
	}
	e := &f.entries[i]
	if !e.verified {
		f.mu.Unlock()
		return nil, e, nil, false
	}
	p, ds := e.payload, e.ds
	f.mu.Unlock()
	return p, e, ds, true
}

// payloadFor returns the verified payload bytes for ref, borrowed from the
// File, and the memoized view of an SDS that has one. The CRC is validated
// exactly once per directory entry: the first access reads (or, when
// mapped, aliases) the bytes and checks the sum; every later access hits
// the memo.
func (f *File) payloadFor(ref Ref) ([]byte, *dirEntry, *Dataset, error) {
	if p, e, ds, ok := f.cachedPayload(ref); ok {
		return p, e, ds, nil
	}
	p, e, err := f.loadPayload(ref)
	return p, e, nil, err
}

func (f *File) loadPayload(ref Ref) ([]byte, *dirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i, ok := f.byRef[ref]
	if !ok {
		return nil, nil, fmt.Errorf("%w: ref %d", ErrNoObject, ref)
	}
	e := &f.entries[i]
	if e.verified { // raced with another loader
		return e.payload, e, nil
	}
	var buf []byte
	if f.mapping != nil {
		// readDirectory bounds-checked offset+length against the directory
		// offset, which is within the mapping.
		buf = f.mapping[e.offset : e.offset+e.length : e.offset+e.length]
	} else {
		// Allocate at base ≡ 4 (mod 8) so an SDS data section — at payload
		// offset 4+8·rank ≡ 4 (mod 8) — lands 8-aligned and ReadSDS can alias
		// it instead of decode-copying.
		buf = zerocopy.MakeOffsetAligned(int(e.length), 8, 4)
		// The serialized read below holds f.mu: payload loads are
		// intentionally one-at-a-time per File, and nothing the I/O depends
		// on waits on this mutex.
		//lint:ignore deadlockcheck payload reads are serialized per File by design; no lock-order cycle is possible through os.File.ReadAt
		if _, err := f.r.ReadAt(buf, int64(e.offset)); err != nil {
			return nil, nil, fmt.Errorf("%w: object %q: %v", ErrCorrupt, e.name, err)
		}
	}
	f.checks++
	if crc32.ChecksumIEEE(buf) != e.crc {
		return nil, nil, fmt.Errorf("%w: object %q", ErrChecksum, e.name)
	}
	e.payload = buf
	e.verified = true
	return buf, e, nil
}

// Raw returns the verified payload bytes for ref, borrowed from the File
// under the borrowing contract in the File doc comment: read-only, and for
// mapped files valid only until Close.
func (f *File) Raw(ref Ref) ([]byte, error) {
	buf, _, _, err := f.payloadFor(ref)
	return buf, err
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
	// the File (the mapping or the verified payload cache) instead of a
	// private copy. Borrowed data is read-only, and for mapped files must
	// not be used after the File is closed. It is set whenever the payload's
	// data section is naturally aligned on a little-endian host; callers
	// needing a private mutable copy must copy explicitly. A borrowed Dataset
	// is itself memoized and shared by every ReadSDS of its ref, so its
	// fields are read-only too.
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

// ReadSDS reads and decodes the scientific dataset with the given ref. A
// dataset whose view borrows the File's memory is decoded once and the same
// *Dataset returned from then on; a copy-decoded one (unaligned data, or a
// big-endian host) is decoded afresh for every call, since the caller owns
// that copy.
func (f *File) ReadSDS(ref Ref) (*Dataset, error) {
	buf, e, ds, err := f.payloadFor(ref)
	if err != nil {
		return nil, err
	}
	if ds != nil {
		return ds, nil
	}
	if e.tag != TagSDS {
		return nil, fmt.Errorf("%w: ref %d is a %v, not an SDS", ErrNoObject, ref, e.tag)
	}
	d := decoder{buf: buf}
	nt := NumType(d.u16())
	rank := int(d.u16())
	if rank < 0 || rank > 16 {
		return nil, fmt.Errorf("%w: SDS %q rank %d", ErrCorrupt, e.name, rank)
	}
	dims := make([]int, rank)
	n := 1
	for i := range dims {
		v := d.u64()
		// Every dimension and the running element count are bounded by the
		// payload length: anything larger is a corrupt header, and letting it
		// through would overflow the product or feed a huge make() below.
		if v > uint64(len(buf)) {
			return nil, fmt.Errorf("%w: SDS %q dims", ErrCorrupt, e.name)
		}
		dims[i] = int(v)
		if dims[i] != 0 && n > len(buf)/dims[i] {
			return nil, fmt.Errorf("%w: SDS %q dims", ErrCorrupt, e.name)
		}
		n *= dims[i]
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: SDS %q header", ErrCorrupt, e.name)
	}
	es := nt.Size()
	if es == 0 {
		return nil, fmt.Errorf("%w: SDS %q type %v", ErrBadType, e.name, nt)
	}
	raw := d.bytes(n * es)
	if d.err != nil {
		return nil, fmt.Errorf("%w: SDS %q data", ErrCorrupt, e.name)
	}
	ds = &Dataset{Name: e.name, Type: nt, Dims: dims}
	// The payload is memoized and verified, so the data section can be
	// aliased instead of decode-copied when its alignment and the host's
	// endianness allow; the copying decode below remains the fallback.
	switch nt {
	case TypeUint8:
		ds.Uint8s = raw[:len(raw):len(raw)]
		ds.Borrowed = true
	case TypeInt32:
		if v, ok := zerocopy.I32s(raw); ok {
			ds.Int32s, ds.Borrowed = v, true
			break
		}
		ds.Int32s = make([]int32, n)
		for i := range ds.Int32s {
			ds.Int32s[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
		}
	case TypeInt64:
		if v, ok := zerocopy.I64s(raw); ok {
			ds.Int64s, ds.Borrowed = v, true
			break
		}
		ds.Int64s = make([]int64, n)
		for i := range ds.Int64s {
			ds.Int64s[i] = int64(binary.LittleEndian.Uint64(raw[i*8:]))
		}
	case TypeFloat32:
		if v, ok := zerocopy.F32s(raw); ok {
			ds.Float32s, ds.Borrowed = v, true
			break
		}
		ds.Float32s = make([]float32, n)
		for i := range ds.Float32s {
			ds.Float32s[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
		}
	case TypeFloat64:
		if v, ok := zerocopy.F64s(raw); ok {
			ds.Float64s, ds.Borrowed = v, true
			break
		}
		ds.Float64s = make([]float64, n)
		for i := range ds.Float64s {
			ds.Float64s[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
	}
	if ds.Borrowed {
		f.mu.Lock()
		switch {
		case e.ds != nil: // a racing decode memoized first
			ds = e.ds
		case e.verified: // not cleared by a Close since payloadFor
			e.ds = ds
		}
		f.mu.Unlock()
	}
	return ds, nil
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
	buf, e, _, err := f.payloadFor(ref)
	if err != nil {
		return nil, err
	}
	if e.tag != TagAttr {
		return nil, fmt.Errorf("%w: ref %d is a %v, not an attribute", ErrNoObject, ref, e.tag)
	}
	d := decoder{buf: buf}
	nt := NumType(d.u16())
	count := int(d.u64())
	a := &Attr{Name: e.name}
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
		return nil, fmt.Errorf("%w: attribute %q type %v", ErrBadType, e.name, nt)
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: attribute %q", ErrCorrupt, e.name)
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
	buf, e, _, err := f.payloadFor(ref)
	if err != nil {
		return nil, err
	}
	if e.tag != TagVGroup {
		return nil, fmt.Errorf("%w: ref %d is a %v, not a vgroup", ErrNoObject, ref, e.tag)
	}
	d := decoder{buf: buf}
	count := int(d.u32())
	// The member list must actually fit in the payload; checking before the
	// make() keeps a corrupt count from allocating gigabytes.
	if count < 0 || count > 1<<24 || count > (len(buf)-4)/4 {
		return nil, fmt.Errorf("%w: vgroup %q count", ErrCorrupt, e.name)
	}
	g := &VGroup{Name: e.name, Members: make([]Ref, count)}
	for i := range g.Members {
		g.Members[i] = Ref(d.u32())
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: vgroup %q", ErrCorrupt, e.name)
	}
	return g, nil
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
