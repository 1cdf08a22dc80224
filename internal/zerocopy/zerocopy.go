// Package zerocopy is the repository's one little-endian array codec. Every
// array in its formats — SHDF datasets, plain snapshot files, godivad frames,
// core field buffers — is stored as little-endian elements, and every layer
// turns those bytes into typed slices (and back) through the four functions
// here:
//
//   - View aliases bytes as a typed slice, with no copy;
//   - Bytes aliases a typed slice as its bytes, with no copy;
//   - Decode is View, or else a fresh element-wise copy;
//   - AppendLE is the element-wise encode, Bytes's fallback.
//
// An alias is only produced when (a) the host is little-endian, so the
// in-memory representation matches the on-disk/wire format byte for byte,
// and (b) for View, the bytes are naturally aligned for the element type and
// hold whole elements. The fallbacks convert each element's bit pattern with
// encoding/binary's LittleEndian, never by copying memory and swapping, so
// they are correct on any host and LittleEndian=false on a little-endian host
// rehearses a big-endian one faithfully. Callers own the aliasing contract:
// an aliased slice shares memory with its source, so writes through either
// are visible through both (and fault on read-only mappings).
package zerocopy

import (
	"encoding/binary"
	"slices"
	"unsafe"
)

// LittleEndian reports whether the host stores integers little-endian —
// the precondition for aliasing wire/disk bytes (always little-endian in
// this repository's formats) as typed values.
var LittleEndian = isLittleEndian()

func isLittleEndian() bool {
	var probe [2]byte
	binary.NativeEndian.PutUint16(probe[:], 0x01FE)
	return probe[0] == 0xFE
}

// Elem is the set of element types the formats store as arrays: bytes,
// 32- and 64-bit integers, and IEEE floats.
type Elem interface {
	~uint8 | ~int32 | ~uint32 | ~int64 | ~float32 | ~float64
}

// size returns T's width in bytes: 1, 4 or 8.
func size[T Elem]() int {
	var zero T
	return int(unsafe.Sizeof(zero))
}

// aligned reports whether p is a multiple of align (a power of two).
//
//godiva:noalloc
func aligned(p uintptr, align uintptr) bool { return p&(align-1) == 0 }

// Aligned reports whether b's first byte sits on an align-byte boundary.
// An empty slice is trivially aligned.
//
//godiva:noalloc
func Aligned(b []byte, align int) bool {
	if len(b) == 0 {
		return true
	}
	return aligned(uintptr(unsafe.Pointer(&b[0])), uintptr(align))
}

// MakeOffsetAligned allocates n bytes whose first byte sits at an address
// congruent to rem modulo align (a power of two ≤ 64). Readers use it to
// place decoded images so that an interior data section — at a fixed offset
// ≡ rem' within the buffer — lands naturally aligned for aliasing.
func MakeOffsetAligned(n, align, rem int) []byte {
	raw := make([]byte, n+align)
	base := int(uintptr(unsafe.Pointer(&raw[0])) & uintptr(align-1))
	pad := (rem - base + align) & (align - 1)
	return raw[pad : pad+n : pad+n]
}

// View aliases b as a []T. ok is false — and v nil — when the host is
// big-endian, b is not aligned to T's size, or len(b) is not a whole number
// of elements. An empty b views as a nil slice.
//
//godiva:noalloc
func View[T Elem](b []byte) (v []T, ok bool) {
	n := size[T]()
	if !LittleEndian || len(b)%n != 0 || !Aligned(b, n) {
		return nil, false
	}
	if len(b) == 0 {
		return nil, true
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/n), true
}

// Bytes aliases v's elements as raw little-endian bytes. ok is false — and
// b nil — on a big-endian host. Typed slices are always naturally aligned,
// so alignment cannot fail. An empty v gives a nil b.
//
//godiva:noalloc
func Bytes[T Elem](v []T) (b []byte, ok bool) {
	if !LittleEndian {
		return nil, false
	}
	if len(v) == 0 {
		return nil, true
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*size[T]()), true
}

// Decode returns b's elements: View's alias when it succeeds (aliased is
// true), otherwise a fresh copy decoded element by element. A trailing
// partial element is ignored.
func Decode[T Elem](b []byte) (v []T, aliased bool) {
	if v, ok := View[T](b); ok {
		return v, true
	}
	v = make([]T, len(b)/size[T]())
	switch size[T]() {
	case 1:
		copy(words[uint8](v), b)
	case 4:
		w := words[uint32](v)
		for i := range w {
			w[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
	case 8:
		w := words[uint64](v)
		for i := range w {
			w[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
	return v, false
}

// AppendLE appends v's elements to dst in little-endian order, element by
// element: the encode fallback where Bytes declines.
func AppendLE[T Elem](dst []byte, v []T) []byte {
	dst = slices.Grow(dst, len(v)*size[T]())
	switch size[T]() {
	case 1:
		dst = append(dst, words[uint8](v)...)
	case 4:
		for _, w := range words[uint32](v) {
			dst = binary.LittleEndian.AppendUint32(dst, w)
		}
	case 8:
		for _, w := range words[uint64](v) {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
	}
	return dst
}

// words reinterprets v as its elements' bit patterns: unsigned integers U
// of the same width, whose values do not depend on the host's byte order.
func words[U uint8 | uint32 | uint64, T Elem](v []T) []U {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*U)(unsafe.Pointer(&v[0])), len(v))
}
