package remote

import (
	"fmt"
	"sort"
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
// touch nothing decoded from the payload afterwards.
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
// one is fully recycled the buffer returns to the frame pool.
type frameArena struct {
	buf  []byte
	refs atomic.Int32
}

// release drops one payload's claim on the arena, pooling the buffer when
// it was the last.
func (a *frameArena) release() {
	if a.refs.Add(-1) == 0 {
		putFrameBuf(a.buf)
	}
}

// Recycle releases the payload's claim on its response frame; once every
// payload decoded from the frame is recycled, the buffer returns to the
// frame pool for reuse. After calling Recycle the caller must not touch the
// payload or any slice decoded from it — the memory may be overwritten by a
// later fetch. A payload has one owner, who calls Recycle once; payloads
// without pooled backing, and a second Recycle, are no-ops.
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

// sortedKeys returns a map's keys in sorted order, for deterministic frames.
func sortedKeys(m map[string][]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// segEnc builds a frame payload as a list of segments: meta chunks (scalars,
// strings, counts, alignment pads) interleaved with borrowed array segments
// that alias the caller's slices. The server hands the list to
// writeFrameBuffers, so array data goes from the dataset (often an mmap'd
// SHDF payload) to the socket without an intermediate assembly copy.
type segEnc struct {
	e      enc      // meta chunk under construction
	segs   [][]byte // finished segments, in payload order
	base   int      // payload bytes already flushed into segs
	copied int64    // array bytes encoded element-wise (no aliasing possible)
}

// flush closes the open meta chunk. Each chunk is a separately built slice:
// the encoder never appends to a chunk after flushing it, so a later append
// can never reallocate-and-move bytes a flushed segment points at.
func (s *segEnc) flush() {
	if len(s.e.b) > 0 {
		s.segs = append(s.segs, s.e.b)
		s.base += len(s.e.b)
		s.e.b = nil
	}
}

// borrow appends seg as a payload segment, aliasing the caller's memory.
func (s *segEnc) borrow(seg []byte) {
	s.flush()
	s.segs = append(s.segs, seg)
	s.base += len(seg)
}

// alignTo zero-pads the payload under construction to the next n-byte
// offset (n a power of two), mirroring dec.align.
func (s *segEnc) alignTo(n int) {
	for (s.base+len(s.e.b))%n != 0 {
		s.e.b = append(s.e.b, 0)
	}
}

// f64s encodes a float64 array: u32 count, pad to 8, then the elements —
// borrowed in place on little-endian hosts, copied element-wise otherwise.
func (s *segEnc) f64s(v []float64) {
	s.e.u32(uint32(len(v)))
	s.alignTo(8)
	if seg, ok := zerocopy.BytesOfF64s(v); ok {
		if len(seg) > 0 {
			s.borrow(seg)
		}
		return
	}
	for _, x := range v {
		s.e.f64(x)
	}
	s.copied += int64(8 * len(v))
}

func (s *segEnc) i32s(v []int32) {
	s.e.u32(uint32(len(v)))
	s.alignTo(8)
	if seg, ok := zerocopy.BytesOfI32s(v); ok {
		if len(seg) > 0 {
			s.borrow(seg)
		}
		return
	}
	for _, x := range v {
		s.e.u32(uint32(x))
	}
	s.copied += int64(4 * len(v))
}

func (s *segEnc) i64s(v []int64) {
	s.e.u32(uint32(len(v)))
	s.alignTo(8)
	if seg, ok := zerocopy.BytesOfI64s(v); ok {
		if len(seg) > 0 {
			s.borrow(seg)
		}
		return
	}
	for _, x := range v {
		s.e.u64(uint64(x))
	}
	s.copied += int64(8 * len(v))
}

// encodeFilePayloadSegments serializes a FilePayload as scattered frame
// segments:
//
//	f64 time | str stepID | u32 nblocks
//	per block: u32 id | str name
//	           u32 ncoords |pad| f64... | u32 ntets |pad| i32... |
//	           u32 ngids |pad| i64...
//	           u16 nnode  (per field: str name | u32 n |pad| f64...)
//	           u16 nelem  (per field: str name | u32 n |pad| f64...)
//
// Array segments alias fp's slices: the caller must keep their backing
// memory (e.g. the mmap'd snapshot file) alive and unwritten until the
// frame has been fully written. copied reports array bytes that could not
// be borrowed and were encoded element-wise. limit bounds the total payload
// size (the wire cap is maxFrame-2; tests pass smaller limits); exceeding
// it returns ErrFrameTooLarge before anything is sent.
func encodeFilePayloadSegments(fp *FilePayload, limit int) (segs [][]byte, copied int64, err error) {
	var s segEnc
	s.filePayload(fp)
	s.flush()
	if s.base > limit {
		return nil, 0, fmt.Errorf("%w (%d bytes, limit %d)", ErrFrameTooLarge, s.base, limit)
	}
	return s.segs, s.copied, nil
}

// filePayload appends fp's body to the payload under construction. The
// layout is position-independent — alignment pads are computed from the
// running payload offset — so the same body can follow a prefix (OpIngest
// requests put a path string first).
func (s *segEnc) filePayload(fp *FilePayload) {
	s.e.f64(fp.Time)
	s.e.str(fp.StepID)
	s.e.u32(uint32(len(fp.Blocks)))
	for _, bd := range fp.Blocks {
		s.e.u32(uint32(bd.ID))
		s.e.str(bd.Name)
		s.f64s(bd.Mesh.Coords)
		s.i32s(bd.Mesh.Tets)
		s.i64s(bd.Mesh.GlobalNode)
		s.e.u16(uint16(len(bd.Node)))
		for _, name := range sortedKeys(bd.Node) {
			s.e.str(name)
			s.f64s(bd.Node[name])
		}
		s.e.u16(uint16(len(bd.Elem)))
		for _, name := range sortedKeys(bd.Elem) {
			s.e.str(name)
			s.f64s(bd.Elem[name])
		}
	}
}

// filePayload decodes a FilePayload body starting at the decoder's current
// offset (the inverse of segEnc.filePayload).
func (d *dec) filePayload() *FilePayload {
	fp := &FilePayload{Time: d.f64(), StepID: d.str()}
	nblocks := int(d.u32())
	for i := 0; i < nblocks && d.err == nil; i++ {
		bd := &genx.BlockData{
			ID:   int(d.u32()),
			Name: d.str(),
			Mesh: &mesh.TetMesh{},
			Node: make(map[string][]float64),
			Elem: make(map[string][]float64),
		}
		bd.Mesh.Coords = d.f64s()
		bd.Mesh.Tets = d.i32s()
		bd.Mesh.GlobalNode = d.i64s()
		nnode := int(d.u16())
		for j := 0; j < nnode && d.err == nil; j++ {
			bd.Node[d.str()] = d.f64s()
		}
		nelem := int(d.u16())
		for j := 0; j < nelem && d.err == nil; j++ {
			bd.Elem[d.str()] = d.f64s()
		}
		bd.Time = fp.Time
		bd.StepID = fp.StepID
		fp.Blocks = append(fp.Blocks, bd)
	}
	return fp
}

// encodeSpec serializes the dataset shape answered by OpSpec. The mesh
// geometry is not carried — remote readers need only the counts and the
// time step (genx.Discover recovers the same subset from local files).
func encodeSpec(s genx.Spec) []byte {
	var e enc
	e.u32(uint32(s.Snapshots))
	e.u32(uint32(s.FilesPerSnapshot))
	e.u32(uint32(s.Blocks))
	e.f64(s.DT)
	return e.b
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
