package remote

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync/atomic"

	"godiva/internal/genx"
	"godiva/internal/mesh"
	"godiva/internal/zerocopy"
)

// FilePayload is one snapshot file's unit payload: every block stored in the
// file with its mesh arrays and the requested variable fields — exactly what
// a local read function obtains from genx.FileHandle.ReadBlock, so records
// committed from it are byte-identical to local SHDF reads.
//
// Payloads returned by Client.FetchFiles must be treated as read-only;
// commit callbacks copy field data into database buffers. On little-endian
// hosts the block arrays alias the response frame's buffer: call Recycle
// when done with the payload so the buffer returns to the frame pool, and
// touch nothing decoded from the payload afterwards — a later fetch decodes
// into the same buffer and the same blocks, meshes and field maps.
type FilePayload struct {
	Path   string // request path, in the server's namespace
	Time   float64
	StepID string
	Blocks []*genx.BlockData

	// arena is the pooled response-frame buffer whose payload region the
	// block arrays alias; nil when the payload was not decoded from a
	// pooled frame. One response decodes several payloads from one frame,
	// so the arena is shared and refcounted separately; Recycle drops this
	// payload's claim on it.
	arena *frameArena
}

// frameArena is one pooled response-frame buffer shared by every
// FilePayload decoded from it. refs counts those payloads; when the last
// one is fully recycled the arena returns to the frame pool, and with it
// the blocks decoded from the buffer, which the next frame read into it
// decodes into again.
type frameArena struct {
	buf    []byte
	refs   atomic.Int32
	blocks blockStock
}

// release drops one payload's claim on the arena, pooling it when it was
// the last.
func (a *frameArena) release() {
	if a.refs.Add(-1) == 0 {
		putArena(a)
	}
}

// blockStock holds the blocks decoded from one frame: their BlockData,
// meshes and field maps outlive the payloads they were handed out in, so
// the frame's next decode fills them again instead of allocating new ones.
// Only the decoder touches it, and only while nothing decoded from the
// frame is in use. With a fresh stock per decode instead,
// TestFetchAllocBound reads 173,639 bytes per fetch, against 9,160 (bound
// 15,629).
type blockStock struct {
	blocks []*genx.BlockData
	used   int // blocks handed out by the decode under way
}

// next returns a block to decode into: the stock's next one, or a new one
// it keeps from now on.
func (s *blockStock) next() *genx.BlockData {
	if s.used == len(s.blocks) {
		s.blocks = append(s.blocks, &genx.BlockData{Mesh: &mesh.TetMesh{}})
	}
	s.used++
	return s.blocks[s.used-1]
}

// Recycle releases the payload's claim on its response frame; once every
// payload decoded from the frame is recycled, the buffer and the blocks
// decoded from it return to the frame pool for reuse. After calling Recycle
// the caller must not touch the payload, its blocks or any slice decoded
// from it — a later fetch may overwrite the memory and refill the blocks.
// A payload has one owner, who calls Recycle once; payloads without pooled
// backing, and a second Recycle, are no-ops.
func (fp *FilePayload) Recycle() {
	if fp.arena == nil {
		return
	}
	arena := fp.arena
	fp.arena = nil
	fp.Blocks = nil // fail fast on use-after-recycle
	arena.release()
}

// Bytes returns the payload's approximate data volume: the raw size of every
// mesh and field array it carries.
func (fp *FilePayload) Bytes() int64 {
	var n int64
	for _, bd := range fp.Blocks {
		if bd.Mesh != nil {
			n += int64(8*len(bd.Mesh.Coords) + 4*len(bd.Mesh.Tets) + 8*len(bd.Mesh.GlobalNode))
		}
		for _, v := range bd.Node {
			n += int64(8 * len(v))
		}
		for _, v := range bd.Elem {
			n += int64(8 * len(v))
		}
	}
	return n
}

// frameEnc builds one frame — its 6-byte header and its payload — as the
// segment list of one vectored write: meta chunks (scalars, strings,
// counts, alignment pads) interleaved with borrowed array segments that
// alias the caller's memory, so array data goes from the dataset (often an
// mmap'd SHDF payload) to the socket without an intermediate assembly copy.
//
// Every meta byte of the frame, header first, goes into one arena (the
// embedded enc). A closed meta chunk is recorded in segs as a span of the
// arena — a placeholder slice of length zero whose capacity is the chunk's
// length — and payload turns the spans into slices of the final arena after
// the last append. So growing the arena, which may move it, never leaves a
// segment pointing at stale bytes, and an item's length can be patched in
// after its body is encoded. reset keeps every backing array: an encoder
// that lives as long as its connection stops allocating once it has built
// its largest frame.
type frameEnc struct {
	enc                // the arena: frame header, then every meta chunk in payload order
	open   int         // arena offset where the open meta chunk starts
	segs   [][]byte    // header, then payload segments; meta chunks are spans until payload
	base   int         // payload bytes in closed segments
	copied int64       // array bytes encoded element-wise (no aliasing possible)
	bufs   net.Buffers // the segments handed to the vectored write
	names  []string    // scratch for a field map's sorted names
}

// frameHeader is a frame's length, version and op bytes.
const frameHeader = 6

// reset empties the encoder for a new frame, keeping its memory.
func (f *frameEnc) reset() {
	clear(f.segs)
	f.segs = append(f.segs[:0], nil) // the header, set by writeTo
	f.b = append(f.b[:0], make([]byte, frameHeader)...)
	f.open = frameHeader
	f.base, f.copied = 0, 0
}

// off returns the payload offset of the next byte appended.
func (f *frameEnc) off() int { return f.base + len(f.b) - f.open }

// flush closes the open meta chunk, recording it as a span of the arena.
func (f *frameEnc) flush() {
	if n := len(f.b) - f.open; n > 0 {
		f.segs = append(f.segs, f.b[f.open:f.open:len(f.b)])
		f.base += n
		f.open = len(f.b)
	}
}

// borrow appends seg as a payload segment, aliasing the caller's memory.
func (f *frameEnc) borrow(seg []byte) {
	f.flush()
	f.segs = append(f.segs, seg)
	f.base += len(seg)
}

// alignTo zero-pads the payload under construction to the next n-byte
// offset (n a power of two), mirroring dec.align.
func (f *frameEnc) alignTo(n int) {
	for f.off()%n != 0 {
		f.b = append(f.b, 0)
	}
}

// frameMark is an encoder position that rollback returns to.
type frameMark struct {
	arena, open, segs, base int
	copied                  int64
}

func (f *frameEnc) mark() frameMark {
	return frameMark{len(f.b), f.open, len(f.segs), f.base, f.copied}
}

// rollback drops everything appended since m was taken.
func (f *frameEnc) rollback(m frameMark) {
	clear(f.segs[m.segs:])
	f.segs = f.segs[:m.segs]
	f.b = f.b[:m.arena]
	f.open, f.base, f.copied = m.open, m.base, m.copied
}

// payload closes the frame and returns its payload segments: the spans
// become slices of the arena. Nothing may be appended afterwards.
func (f *frameEnc) payload() [][]byte {
	f.flush()
	at := frameHeader
	for i, seg := range f.segs {
		if i > 0 && len(seg) == 0 { // borrowed segments are never empty
			n := cap(seg)
			f.segs[i] = f.b[at : at+n : at+n]
			at += n
		}
	}
	return f.segs[1:]
}

// writeTo closes the frame as op and writes it, header and payload, with
// one vectored write (net.Buffers, writev on TCP). It returns the frame's
// size.
func (f *frameEnc) writeTo(w io.Writer, op byte) (int, error) {
	f.payload()
	if f.base > maxFrame-2 {
		return 0, fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, f.base)
	}
	binary.LittleEndian.PutUint32(f.b, uint32(2+f.base))
	f.b[4] = protoVersion
	f.b[5] = op
	f.segs[0] = f.b[:frameHeader:frameHeader]
	f.bufs = f.segs
	_, err := f.bufs.WriteTo(w)
	return frameHeader + f.base, err
}

// encodeArray encodes an array: u32 count, pad to 8, then the elements —
// borrowed in place on little-endian hosts, copied element-wise otherwise.
func encodeArray[T zerocopy.Elem](f *frameEnc, v []T) {
	f.u32(uint32(len(v)))
	f.alignTo(8)
	if seg, ok := zerocopy.Bytes(v); ok {
		if len(seg) > 0 {
			f.borrow(seg)
		}
		return
	}
	n := len(f.b)
	f.b = zerocopy.AppendLE(f.b, v)
	f.copied += int64(len(f.b) - n)
}

// frameFits checks a payload of size bytes against limit.
func frameFits(size, limit int) error {
	if size > limit {
		return fmt.Errorf("%w (%d bytes, limit %d)", ErrFrameTooLarge, size, limit)
	}
	return nil
}

// ingestSize returns the payload size of an OpIngest request, byte for
// byte what the encoder's str(path) and filePayload(fp) append, without
// encoding it.
func ingestSize(path string, fp *FilePayload) int {
	n := strSize(path) + 8 + strSize(fp.StepID) + 4
	for _, bd := range fp.Blocks {
		n += 4 + strSize(bd.Name)
		n = arrayEnd(n, 8, len(bd.Mesh.Coords))
		n = arrayEnd(n, 4, len(bd.Mesh.Tets))
		n = arrayEnd(n, 8, len(bd.Mesh.GlobalNode))
		n = fieldMapEnd(n, bd.Node)
		n = fieldMapEnd(n, bd.Elem)
	}
	return n
}

// strSize is the encoded size of s: u16 length, then at most MaxUint16
// bytes.
func strSize(s string) int { return 2 + min(len(s), math.MaxUint16) }

// arrayEnd returns the payload offset after an array of count elements of
// size bytes encoded at offset n: u32 count, pad to 8, elements.
func arrayEnd(n, size, count int) int {
	n += 4
	n += -n & 7
	return n + size*count
}

// fieldMapEnd returns the payload offset after m's field list encoded at
// offset n. Fields go in name order, but only the first one's pad depends
// on where it starts: every later field starts 8-aligned, after an f64
// array.
func fieldMapEnd(n int, m map[string][]float64) int {
	n += 2
	first, ok := "", false
	for name := range m {
		if !ok || name < first {
			first, ok = name, true
		}
	}
	if !ok {
		return n
	}
	n = arrayEnd(n+strSize(first), 8, len(m[first]))
	for name, v := range m {
		if name != first {
			n = arrayEnd(n+strSize(name), 8, len(v))
		}
	}
	return n
}

// filePayload appends fp's body to the payload under construction:
//
//	f64 time | str stepID | u32 nblocks
//	per block: u32 id | str name
//	           u32 ncoords |pad| f64... | u32 ntets |pad| i32... |
//	           u32 ngids |pad| i64...
//	           u16 nnode  (per field: str name | u32 n |pad| f64...)
//	           u16 nelem  (per field: str name | u32 n |pad| f64...)
//
// Fields go in name order. Array segments alias fp's slices, which must
// stay alive and unwritten until the frame has been written. The layout is
// position-independent — alignment pads are computed from the running
// payload offset — so the same body can follow a prefix (OpIngest requests
// put a path string first).
func (f *frameEnc) filePayload(fp *FilePayload) {
	f.f64(fp.Time)
	f.str(fp.StepID)
	f.u32(uint32(len(fp.Blocks)))
	for _, bd := range fp.Blocks {
		f.u32(uint32(bd.ID))
		f.str(bd.Name)
		encodeArray(f, bd.Mesh.Coords)
		encodeArray(f, bd.Mesh.Tets)
		encodeArray(f, bd.Mesh.GlobalNode)
		f.fieldMap(bd.Node)
		f.fieldMap(bd.Elem)
	}
}

// fieldMap appends a u16-counted field list from m, in name order.
func (f *frameEnc) fieldMap(m map[string][]float64) {
	f.names = f.names[:0]
	for name := range m {
		f.names = append(f.names, name)
	}
	slices.Sort(f.names)
	f.u16(uint16(len(f.names)))
	for _, name := range f.names {
		f.str(name)
		encodeArray(f, m[name])
	}
}

// filePayload decodes a FilePayload body starting at the decoder's current
// offset (the inverse of frameEnc.filePayload) into fp, or into a new
// payload when fp is nil. Its blocks come from d.stock, or from a stock of
// their own when the decoder has none.
func (d *dec) filePayload(fp *FilePayload) *FilePayload {
	if d.stock == nil {
		d.stock = new(blockStock)
	}
	if fp == nil {
		fp = new(FilePayload)
	}
	*fp = FilePayload{Time: d.f64(), StepID: d.str()}
	first := d.stock.used
	nblocks := int(d.u32())
	for i := 0; i < nblocks && d.err == nil; i++ {
		bd := d.stock.next()
		bd.ID = int(d.u32())
		bd.Name = d.str()
		bd.Mesh.Coords = decodeArray[float64](d)
		bd.Mesh.Tets = decodeArray[int32](d)
		bd.Mesh.GlobalNode = decodeArray[int64](d)
		bd.Node = d.fields(bd.Node)
		bd.Elem = d.fields(bd.Elem)
		bd.Time = fp.Time
		bd.StepID = fp.StepID
	}
	if n := d.stock.used; n > first {
		fp.Blocks = d.stock.blocks[first:n:n]
	}
	return fp
}

// fieldName reads a field name, returning the genx catalog's string for a
// known field so that decoding it allocates nothing. Read with str, the
// names cost 21,506 bytes per fetch in TestFetchAllocBound (9,160 without;
// bound 15,629) and 2,587 per ingest in TestIngestAllocBound (about 1,120).
func (d *dec) fieldName() string {
	b := d.need(int(d.u16()))
	for _, names := range [2][]string{genx.NodeVectorFields, genx.ElemScalarFields} {
		for _, name := range names {
			if string(b) == name {
				return name
			}
		}
	}
	return string(b)
}

// fields decodes a u16-counted list of named float64 fields into m,
// emptied, or into a map sized for the count when m is nil. Each field
// takes at least 6 bytes (name length and element count), so a corrupt
// count cannot size the map past what the payload could hold.
func (d *dec) fields(m map[string][]float64) map[string][]float64 {
	n := int(d.u16())
	if m == nil {
		m = make(map[string][]float64, min(n, (len(d.b)-d.off)/6))
	} else {
		clear(m)
	}
	for j := 0; j < n && d.err == nil; j++ {
		m[d.fieldName()] = decodeArray[float64](d)
	}
	return m
}

// spec appends an OpSpec response body: the dataset's counts and time
// step. The mesh geometry is not carried — remote readers need only these
// (genx.Discover recovers the same subset from local files).
func (e *enc) spec(s genx.Spec) {
	e.u32(uint32(s.Snapshots))
	e.u32(uint32(s.FilesPerSnapshot))
	e.u32(uint32(s.Blocks))
	e.f64(s.DT)
}

// decodeSpec parses an OpSpec response.
func decodeSpec(body []byte) (genx.Spec, error) {
	d := dec{b: body}
	s := genx.Spec{
		Snapshots:        int(d.u32()),
		FilesPerSnapshot: int(d.u32()),
		Blocks:           int(d.u32()),
	}
	s.DT = d.f64()
	if d.err != nil {
		return genx.Spec{}, fmt.Errorf("%w: spec payload: %v", ErrProtocol, d.err)
	}
	return s, nil
}
