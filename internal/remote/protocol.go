// Package remote turns GODIVA's prefetch pipeline into a client/server data
// path. The paper's contract (§3.3) is that the library schedules unit I/O
// while developer-supplied read functions fetch the bytes; every read
// function in this repository used to open local SHDF files, so the
// background worker pool could only scale to one machine's disk. This
// package adds a remote unit service: cmd/godivad serves unit payloads out
// of a directory of SHDF snapshot files, and Client manufactures
// core.ReadFuncs that fetch them over TCP — so remote units plug into the
// existing worker pool, deadlock accounting and LRU cache with zero changes
// to callers.
//
// Wire protocol (all integers little-endian):
//
//	frame    u32 length | u8 version | u8 op | payload
//	         (length = 2 + len(payload), capped at 1 GiB)
//
// Request ops: OpPing (empty), OpSpec (empty), OpFetch (u16 count, then per
// file str path, u16 nvars, str vars... — see fetch.go), OpIngest and
// OpSubscribe (push_proto.go). Responses: RespOK with an op-specific
// payload, or RespErr with u16 code + str message. Strings are u16 length +
// bytes. Numeric arrays are u32 count, zero padding to the next 8-byte payload offset,
// then raw little-endian elements; with response payloads read into 8-byte
// aligned buffers, the pads let both ends alias array data in place instead
// of copying it element by element. See DESIGN.md for the full layout and
// error-code table.
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"unsafe"

	"godiva/internal/zerocopy"
)

// Protocol constants. Version 2 added deterministic alignment pads before
// array data; version 3 cut OpSubscribe down to a step bound and dropped
// OpEvent's field list. Older peers are refused (both ends live in this repository).
const (
	protoVersion = 3
	maxFrame     = 1 << 30 // sanity cap on a frame's length field
)

// Request and response op codes.
const (
	OpPing byte = 0x01 // liveness check, empty payload both ways
	OpSpec byte = 0x02 // dataset shape: snapshots, files, blocks, dt
	// 0x03 was the one-file fetch. It is retired, never to be reused: a
	// peer still sending it gets the unknown-op CodeBadRequest answer.
	OpIngest    byte = 0x04 // producer pushes one snapshot file's payload
	OpSubscribe byte = 0x05 // turn the connection into an event stream
	OpFetch     byte = 0x06 // the unit payloads of several snapshot files
	RespOK      byte = 0x80
	RespErr     byte = 0x81
	OpEvent     byte = 0x82 // one subscription event; empty body = heartbeat
)

// Protocol error codes carried by RespErr frames. Only CodeUnavailable is
// transient: clients retry it (and transport failures) with backoff, and
// treat every other code as a permanent answer.
const (
	CodeBadRequest  uint16 = 1 // malformed frame, bad path, unknown variable
	CodeNotFound    uint16 = 2 // no such snapshot file
	CodeCorrupt     uint16 = 3 // snapshot file damaged (shdf rejected it)
	CodeInternal    uint16 = 4 // unexpected server-side failure
	CodeUnavailable uint16 = 5 // transient condition, retry
)

// codeName returns a short name for an error code.
func codeName(code uint16) string {
	switch code {
	case CodeBadRequest:
		return "bad request"
	case CodeNotFound:
		return "not found"
	case CodeCorrupt:
		return "corrupt"
	case CodeInternal:
		return "internal"
	case CodeUnavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("code %d", code)
	}
}

// ServerError is a protocol-level error answered by the server.
type ServerError struct {
	Code uint16
	Msg  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("remote: server error (%s): %s", codeName(e.Code), e.Msg)
}

// Retryable reports whether the error names a transient condition.
func (e *ServerError) Retryable() bool { return e.Code == CodeUnavailable }

// Errors returned by the client. Match with errors.Is.
var (
	// ErrClientClosed is returned by operations on a closed Client.
	ErrClientClosed = errors.New("remote: client is closed")
	// ErrProtocol is returned for malformed frames.
	ErrProtocol = errors.New("remote: protocol error")
	// ErrFrameTooLarge is returned when a payload exceeds the protocol's
	// frame limit. It is enforced on both sides: encoders refuse to build
	// an unsendable frame (the server answers CodeInternal), and writers
	// refuse to put one on the wire.
	ErrFrameTooLarge = errors.New("remote: frame exceeds protocol limit")
)

// --- frame buffers ---

// framePool keeps idle response-frame arenas between fetches, so a steady
// fetch workload stops allocating per-response payload buffers and the
// blocks decoded from them (the pooled decode arena of the zero-copy read
// path). It is a stack under a mutex, newest on top, holding at most
// framePoolBytes of buffers. A sync.Pool lost them: a buffer put on one P
// is invisible to a Get on another, and every collection empties it, so a
// snapshot's frame was allocated afresh every few fetches. Buffers are
// produced by alignedFrameBuf, whose base-address alignment survives
// reslicing.
var framePool struct {
	mu    sync.Mutex
	idle  []*frameArena // guarded by mu
	bytes int           // capacity of the idle buffers; guarded by mu
}

// framePoolBytes bounds the buffer bytes framePool keeps idle.
const framePoolBytes = 64 << 20

// alignedFrameBuf allocates an n-byte frame buffer (version byte, op byte,
// payload) whose base address is congruent to 6 mod 8, so the payload at
// buf[2:] starts 8-byte aligned and decoded arrays can alias it in place.
// Capacity beyond n is kept so pooled buffers can serve later, longer
// frames without reallocating.
func alignedFrameBuf(n int) []byte {
	raw := make([]byte, n+8)
	base := int(uintptr(unsafe.Pointer(&raw[0])) & 7)
	pad := (6 - base + 8) & 7
	return raw[pad : pad+n]
}

// getArena returns an arena whose buf holds n bytes: the newest idle one
// large enough, or a fresh one.
func getArena(n int) *frameArena {
	if a := takeIdleArena(n); a != nil {
		a.buf = a.buf[:n]
		return a
	}
	return &frameArena{buf: alignedFrameBuf(n)}
}

// takeIdleArena removes and returns the newest idle arena whose buffer can
// hold n bytes, or nil.
func takeIdleArena(n int) *frameArena {
	framePool.mu.Lock()
	defer framePool.mu.Unlock()
	idle := framePool.idle
	for i := len(idle) - 1; i >= 0; i-- {
		if a := idle[i]; cap(a.buf) >= n {
			copy(idle[i:], idle[i+1:])
			idle[len(idle)-1] = nil
			framePool.idle = idle[:len(idle)-1]
			framePool.bytes -= cap(a.buf)
			return a
		}
	}
	return nil
}

// putArena returns an arena nothing decoded from it references any more to
// the pool, dropping the oldest idle arenas to stay within framePoolBytes.
// Only arenas from getArena may be put back: the pool assumes their
// buffers' alignment. A nil arena is ignored.
func putArena(a *frameArena) {
	if a == nil || cap(a.buf) == 0 || cap(a.buf) > framePoolBytes {
		return
	}
	framePool.mu.Lock()
	defer framePool.mu.Unlock()
	for len(framePool.idle) > 0 && framePool.bytes+cap(a.buf) > framePoolBytes {
		framePool.bytes -= cap(framePool.idle[0].buf)
		framePool.idle[0] = nil
		framePool.idle = framePool.idle[1:]
	}
	framePool.idle = append(framePool.idle, a)
	framePool.bytes += cap(a.buf)
}

// writeFrame writes one frame from a contiguous body.
func writeFrame(w io.Writer, op byte, body []byte) error {
	if len(body) > maxFrame-2 {
		return fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, len(body))
	}
	hdr := make([]byte, 6)
	binary.LittleEndian.PutUint32(hdr, uint32(2+len(body)))
	hdr[4] = protoVersion
	hdr[5] = op
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one frame into a fresh buffer, returning its op and
// payload. The server uses it for requests, which are small and not worth
// pooling.
func readFrame(r io.Reader) (op byte, body []byte, err error) {
	op, _, body, err = readFrameBuf(r, func(n int) []byte { return alignedFrameBuf(n) })
	return op, body, err
}

// readFramePooled reads one frame into a pooled arena. On success the
// caller owns the arena (whose buf is the whole frame, backing body) and
// must hand it to putArena, or park it under FilePayloads, once the payload
// is dead; on error the arena has already gone back to the pool.
func readFramePooled(r io.Reader) (op byte, frame *frameArena, body []byte, err error) {
	op, _, body, err = readFrameBuf(r, func(n int) []byte {
		frame = getArena(n)
		return frame.buf
	})
	if err != nil {
		putArena(frame)
		return 0, nil, nil, err
	}
	return op, frame, body, nil
}

// readFrameBuf reads one frame into a buffer obtained from get.
func readFrameBuf(r io.Reader, get func(int) []byte) (op byte, buf, body []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, nil, nil, err
	}
	length := binary.LittleEndian.Uint32(lenBuf[:])
	if length < 2 || length > maxFrame {
		return 0, nil, nil, fmt.Errorf("%w: frame length %d", ErrProtocol, length)
	}
	buf = get(int(length))
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, buf, nil, err
	}
	if buf[0] != protoVersion {
		return 0, buf, nil, fmt.Errorf("%w: version %d", ErrProtocol, buf[0])
	}
	return buf[1], buf, buf[2:], nil
}

// --- payload encoding helpers ---

// enc builds a payload.
type enc struct{ b []byte }

func (e *enc) u16(v uint16)  { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *enc) str(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	e.u16(uint16(len(s)))
	e.b = append(e.b, s...)
}

// dec walks a payload, remembering the first error (same shape as the shdf
// directory decoder). copied counts array bytes that had to be decoded
// element by element instead of aliased in place.
type dec struct {
	b      []byte
	off    int
	err    error
	copied int64
	stock  *blockStock // where filePayload's blocks come from; nil: fresh ones
}

func (d *dec) need(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

func (d *dec) u16() uint16 {
	b := d.need(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *dec) u32() uint32 {
	b := d.need(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.need(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) str() string { return string(d.need(int(d.u16()))) }

// count reads a u32 element count and validates that count*elemSize bytes
// remain, so a corrupt frame cannot drive a huge allocation.
func (d *dec) count(elemSize int) int {
	n := int(d.u32())
	if d.err == nil && (n < 0 || n > (len(d.b)-d.off)/elemSize) {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	return n
}

// align skips the zero pad an encoder wrote to bring the next field to an
// n-byte payload offset (n a power of two). Deterministic from the offset
// alone, so it needs no bytes of its own on a boundary.
//
//godiva:noalloc
func (d *dec) align(n int) {
	if pad := (n - d.off%n) % n; pad > 0 {
		d.need(pad)
	}
}

// decodeArray decodes a u32-counted array of T. When the frame body sits in
// an aligned buffer (readFrame allocates payloads 8-byte aligned, and
// encoders pad array data to 8-byte payload offsets) the returned slice
// aliases the body in place; otherwise the elements are copied out and
// counted in d.copied.
func decodeArray[T zerocopy.Elem](d *dec) []T {
	var zero T
	size := int(unsafe.Sizeof(zero))
	n := d.count(size)
	d.align(8)
	raw := d.need(size * n)
	if raw == nil {
		return nil
	}
	v, aliased := zerocopy.Decode[T](raw)
	if !aliased {
		d.copied += int64(len(raw))
	}
	return v
}

// encodeErr builds a RespErr payload.
func encodeErr(code uint16, msg string) []byte {
	var e enc
	e.errBody(code, msg)
	return e.b
}

// errBody appends a RespErr payload (or an OpFetch error item's tail).
func (e *enc) errBody(code uint16, msg string) {
	e.u16(code)
	e.str(msg)
}

// decodeErr parses a RespErr payload.
func decodeErr(body []byte) *ServerError {
	d := dec{b: body}
	code := d.u16()
	msg := d.str()
	if d.err != nil {
		return &ServerError{Code: CodeInternal, Msg: "unparseable error frame"}
	}
	return &ServerError{Code: code, Msg: msg}
}
