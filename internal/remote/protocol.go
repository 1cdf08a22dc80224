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
	"net"
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
	CodeUnavailable uint16 = 5 // transient condition, retry (fault injection)
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

// framePool recycles response-frame buffers between fetches, so a steady
// fetch workload stops allocating per-response payload buffers entirely
// (the pooled decode arena of the zero-copy read path). Entries are slices
// produced by alignedFrameBuf, whose base-address alignment survives
// reslicing.
var framePool sync.Pool

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

// getFrameBuf returns an n-byte frame buffer from the pool, or a fresh
// aligned one when the pool is empty or its entry is too small.
func getFrameBuf(n int) []byte {
	if v := framePool.Get(); v != nil {
		if b := *(v.(*[]byte)); cap(b) >= n {
			return b[:n]
		}
	}
	return alignedFrameBuf(n)
}

// putFrameBuf returns a frame buffer to the pool. Only buffers obtained
// from getFrameBuf may be put back: the pool assumes their alignment.
func putFrameBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	framePool.Put(&b)
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

// writeFrameBuffers writes one frame whose payload is scattered across
// segments, using a vectored write (net.Buffers, writev on TCP) so borrowed
// segments — mmap'd dataset payloads, field arrays — reach the socket
// without first being assembled into one contiguous response buffer.
func writeFrameBuffers(w io.Writer, op byte, segs [][]byte) error {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	if total > maxFrame-2 {
		return fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, total)
	}
	hdr := make([]byte, 6)
	binary.LittleEndian.PutUint32(hdr, uint32(2+total))
	hdr[4] = protoVersion
	hdr[5] = op
	bufs := make(net.Buffers, 0, len(segs)+1)
	bufs = append(bufs, hdr)
	for _, s := range segs {
		if len(s) > 0 {
			bufs = append(bufs, s)
		}
	}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads one frame into a fresh buffer, returning its op and
// payload. The server uses it for requests, which are small and not worth
// pooling.
func readFrame(r io.Reader) (op byte, body []byte, err error) {
	op, _, body, err = readFrameBuf(r, func(n int) []byte { return alignedFrameBuf(n) })
	return op, body, err
}

// readFramePooled reads one frame into a pooled buffer. On success the
// caller owns buf (the whole frame buffer, backing body) and must hand it
// to putFrameBuf once the payload is dead; on error the buffer has already
// been returned to the pool.
func readFramePooled(r io.Reader) (op byte, buf, body []byte, err error) {
	op, buf, body, err = readFrameBuf(r, getFrameBuf)
	if err != nil && buf != nil {
		putFrameBuf(buf)
		buf, body = nil, nil
	}
	return op, buf, body, err
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

// flattenSegments assembles scattered frame segments into one contiguous
// body — the copying fallback used by fault injection and by tests that
// want the whole payload at once.
func flattenSegments(segs [][]byte) []byte {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	out := make([]byte, 0, n)
	for _, s := range segs {
		out = append(out, s...)
	}
	return out
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

// f64s decodes an array of float64. When the frame body sits in an aligned
// buffer (readFrame allocates payloads 8-byte aligned, and encoders pad
// array data to 8-byte payload offsets) the returned slice aliases the body
// in place; otherwise the elements are copied out and counted in d.copied.
func (d *dec) f64s() []float64 {
	n := d.count(8)
	d.align(8)
	raw := d.need(8 * n)
	if raw == nil {
		return nil
	}
	if v, ok := zerocopy.F64s(raw); ok {
		return v
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	d.copied += int64(8 * n)
	return out
}

func (d *dec) i32s() []int32 {
	n := d.count(4)
	d.align(8)
	raw := d.need(4 * n)
	if raw == nil {
		return nil
	}
	if v, ok := zerocopy.I32s(raw); ok {
		return v
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	d.copied += int64(4 * n)
	return out
}

func (d *dec) i64s() []int64 {
	n := d.count(8)
	d.align(8)
	raw := d.need(8 * n)
	if raw == nil {
		return nil
	}
	if v, ok := zerocopy.I64s(raw); ok {
		return v
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	d.copied += int64(8 * n)
	return out
}

// encodeErr builds a RespErr payload.
func encodeErr(code uint16, msg string) []byte {
	var e enc
	e.u16(code)
	e.str(msg)
	return e.b
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
