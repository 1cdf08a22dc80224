package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"unsafe"

	"godiva/internal/zerocopy"
)

// Buffer is one field data buffer: a typed, contiguous piece of user data
// whose location the GODIVA database manages. The database never interprets
// buffer contents (except for key fields at commit time); application code
// obtains the buffer once via a query and then reads or writes the slice
// directly, exactly as it would a plain array.
//
// A unit-owned buffer is valid for its unit's lifetime. Once the unit is
// dropped — deleted, evicted, or failed — the memory of a buffer the
// database allocated may back a buffer of a later unit (see DESIGN.md,
// "Buffer memory reuse"), just as a borrowed buffer's donor may be unmapped
// then: a consumer must not read a buffer after FinishUnit or DeleteUnit.
//
// Layout: a Buffer is 32 bytes — a pointer to the first element of its
// array, the byte size, the element type and the borrowed flag. The typed
// accessors view the array as a slice of the one type the buffer holds, so
// application code gets a typed slice with no copying; core makes one
// Buffer per field of every record, thousands a unit, which is why it holds
// one pointer rather than a slice header per type.
type Buffer struct {
	// data is the array's first element: memory the database allocated,
	// which the collector keeps alive through this pointer, or donated
	// memory such as an mmap'd file. It is nil only for an empty borrowed
	// buffer.
	data  unsafe.Pointer
	size  int // bytes
	dtype DataType

	// borrowed marks a buffer whose memory was donated by a read function
	// (Record.BorrowFieldBuffer) instead of allocated by newBufferLocked. Borrowed
	// buffers are read-only — SetString and other mutating accessors refuse
	// them — and alias memory (e.g. an mmap'd file) whose validity the donor
	// ties to the owning unit's lifetime.
	borrowed bool
}

// elems views b's memory as a []T of b's element count: T must be the Go
// type of b.dtype.
func elems[T zerocopy.Elem](b *Buffer) []T {
	var zero T
	return unsafe.Slice((*T)(b.data), b.size/int(unsafe.Sizeof(zero)))
}

// first returns the address of v's first element: v's array, kept alive by
// the pointer.
func first[T zerocopy.Elem](v []T) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(v)) }

// checkSize validates a buffer of size bytes and element type t: t is one
// of the defined types and size a non-negative whole number of elements.
// DefineField checks declared sizes with it, AllocFieldBuffer and
// BorrowFieldBuffer the sizes they are given, so the buffer constructors
// below cannot fail.
func checkSize(t DataType, size int) error {
	es := t.ElemSize()
	if es == 0 {
		return fmt.Errorf("%w: %v", ErrTypeMismatch, t)
	}
	if size < 0 {
		return fmt.Errorf("%w: %d bytes", ErrBadSize, size)
	}
	if size%es != 0 {
		return fmt.Errorf("%w: %d bytes is not a multiple of %v element size %d",
			ErrBadSize, size, t, es)
	}
	return nil
}

// newBufferLocked returns a zeroed buffer of size bytes, on the memory of a
// dropped buffer of the same type and size when the free list has one;
// checkSize(t, size) holds. Caller holds db.mu.
func (db *DB) newBufferLocked(t DataType, size int) *Buffer {
	b := &Buffer{dtype: t, size: size}
	if db.takeFreeLocked(b) {
		return b
	}
	n := size / t.ElemSize()
	switch t {
	case String, Bytes:
		b.data = first(make([]byte, n))
	case Int32:
		b.data = first(make([]int32, n))
	case Int64:
		b.data = first(make([]int64, n))
	case Float32:
		b.data = first(make([]float32, n))
	case Float64:
		b.data = first(make([]float64, n))
	}
	return b
}

// newBorrowedBuffer wraps donated bytes as a typed buffer without copying
// when the host and alignment allow, falling back to an allocate-and-copy
// decode otherwise. aliased reports which happened: when true, the buffer's
// typed slice shares memory with data and the buffer is marked borrowed
// (read-only); when false, the buffer owns a private copy and behaves like
// any allocated buffer. checkSize(t, len(data)) holds.
func newBorrowedBuffer(t DataType, data []byte) (b *Buffer, aliased bool) {
	b = &Buffer{dtype: t, size: len(data)}
	switch t {
	case String, Bytes:
		b.data, aliased = decode[byte](data)
	case Int32:
		b.data, aliased = decode[int32](data)
	case Int64:
		b.data, aliased = decode[int64](data)
	case Float32:
		b.data, aliased = decode[float32](data)
	case Float64:
		b.data, aliased = decode[float64](data)
	}
	b.borrowed = aliased
	return b, aliased
}

// decode is zerocopy.Decode returning the first element's address.
func decode[T zerocopy.Elem](data []byte) (unsafe.Pointer, bool) {
	v, aliased := zerocopy.Decode[T](data)
	return first(v), aliased
}

// Type returns the buffer's element type.
func (b *Buffer) Type() DataType { return b.dtype }

// Borrowed reports whether the buffer's memory was donated by a read
// function rather than allocated by the database. Borrowed buffers are
// read-only.
func (b *Buffer) Borrowed() bool { return b.borrowed }

// Size returns the buffer size in bytes, the same quantity the paper's
// getFieldBufferSize interface reports.
func (b *Buffer) Size() int { return b.size }

// Len returns the number of elements in the buffer.
func (b *Buffer) Len() int { return b.size / b.dtype.ElemSize() }

// Bytes returns the underlying byte slice of a String or Bytes buffer.
func (b *Buffer) Bytes() ([]byte, error) {
	if b.dtype != String && b.dtype != Bytes {
		return nil, fmt.Errorf("%w: buffer is %v, not STRING/BYTES", ErrTypeMismatch, b.dtype)
	}
	return elems[byte](b), nil
}

// Int32s returns the underlying slice of an Int32 buffer.
func (b *Buffer) Int32s() ([]int32, error) {
	if b.dtype != Int32 {
		return nil, fmt.Errorf("%w: buffer is %v, not INT32", ErrTypeMismatch, b.dtype)
	}
	return elems[int32](b), nil
}

// Int64s returns the underlying slice of an Int64 buffer.
func (b *Buffer) Int64s() ([]int64, error) {
	if b.dtype != Int64 {
		return nil, fmt.Errorf("%w: buffer is %v, not INT64", ErrTypeMismatch, b.dtype)
	}
	return elems[int64](b), nil
}

// Float32s returns the underlying slice of a Float32 buffer.
func (b *Buffer) Float32s() ([]float32, error) {
	if b.dtype != Float32 {
		return nil, fmt.Errorf("%w: buffer is %v, not FLOAT", ErrTypeMismatch, b.dtype)
	}
	return elems[float32](b), nil
}

// Float64s returns the underlying slice of a Float64 buffer.
func (b *Buffer) Float64s() ([]float64, error) {
	if b.dtype != Float64 {
		return nil, fmt.Errorf("%w: buffer is %v, not DOUBLE", ErrTypeMismatch, b.dtype)
	}
	return elems[float64](b), nil
}

// SetString copies s into a String buffer, padding with zero bytes. It fails
// if s is longer than the buffer.
func (b *Buffer) SetString(s string) error {
	if b.dtype != String {
		return fmt.Errorf("%w: buffer is %v, not STRING", ErrTypeMismatch, b.dtype)
	}
	if b.borrowed {
		return fmt.Errorf("%w: SetString on donated field memory", ErrBorrowed)
	}
	raw := elems[byte](b)
	if len(s) > len(raw) {
		return fmt.Errorf("%w: string of %d bytes into %d-byte buffer", ErrBadSize, len(s), len(raw))
	}
	clear(raw[copy(raw, s):])
	return nil
}

// StringValue returns the contents of a String buffer with trailing zero
// bytes trimmed.
func (b *Buffer) StringValue() (string, error) {
	if b.dtype != String {
		return "", fmt.Errorf("%w: buffer is %v, not STRING", ErrTypeMismatch, b.dtype)
	}
	raw := elems[byte](b)
	end := len(raw)
	for end > 0 && raw[end-1] == 0 {
		end--
	}
	return string(raw[:end]), nil
}

// encodeTo appends the buffer contents in a canonical little-endian byte
// form, used to build composite index keys from key-field values.
func (b *Buffer) encodeTo(dst []byte) []byte {
	switch b.dtype {
	case String, Bytes:
		return append(dst, elems[byte](b)...)
	case Int32:
		return zerocopy.AppendLE(dst, elems[int32](b))
	case Int64:
		return zerocopy.AppendLE(dst, elems[int64](b))
	case Float32:
		return zerocopy.AppendLE(dst, elems[float32](b))
	case Float64:
		return zerocopy.AppendLE(dst, elems[float64](b))
	}
	return dst
}

// encodeKeyValue appends the canonical byte form of a query-supplied key
// value, which must agree with the key field's declared type and size.
// Strings shorter than the declared field size are zero-padded so that a
// query value of "block_0001" matches a record whose 11-byte STRING key
// buffer holds the same text.
//
// v does not escape: the error paths format the decoded value or v's type
// name, never v, so a caller's conversion of a key to any stays on its stack.
//
//godiva:noalloc
func encodeKeyValue(dst []byte, t DataType, size int, v any) ([]byte, error) {
	switch t {
	case String:
		s, ok := v.(string)
		if !ok {
			return nil, keyTypeError(v, t)
		}
		if len(s) > size {
			return nil, fmt.Errorf("%w: key string %q longer than field size %d", ErrBadSize, s, size)
		}
		dst = append(dst, s...)
		for i := len(s); i < size; i++ {
			dst = append(dst, 0)
		}
		return dst, nil
	case Bytes:
		bs, ok := v.([]byte)
		if !ok {
			return nil, keyTypeError(v, t)
		}
		if len(bs) != size {
			return nil, fmt.Errorf("%w: key of %d bytes for %d-byte field", ErrBadSize, len(bs), size)
		}
		return append(dst, bs...), nil
	case Int32:
		n, ok := toInt64(v)
		if !ok {
			return nil, keyTypeError(v, t)
		}
		if n < math.MinInt32 || n > math.MaxInt32 {
			return nil, fmt.Errorf("%w: key value %d for INT32 field", ErrTypeMismatch, n)
		}
		return binary.LittleEndian.AppendUint32(dst, uint32(int32(n))), nil
	case Int64:
		n, ok := toInt64(v)
		if !ok {
			return nil, keyTypeError(v, t)
		}
		return binary.LittleEndian.AppendUint64(dst, uint64(n)), nil
	case Float32:
		f, ok := toFloat64(v)
		if !ok {
			return nil, keyTypeError(v, t)
		}
		return binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(f))), nil
	case Float64:
		f, ok := toFloat64(v)
		if !ok {
			return nil, keyTypeError(v, t)
		}
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f)), nil
	}
	return nil, fmt.Errorf("%w: %v", ErrTypeMismatch, t)
}

// keyTypeError reports a key value of the wrong Go type for a t field. It
// names v's type through reflect, which reads only the interface's type
// word, where fmt's %T would make v escape.
func keyTypeError(v any, t DataType) error {
	name := "<nil>"
	if rt := reflect.TypeOf(v); rt != nil {
		name = rt.String()
	}
	return fmt.Errorf("%w: key value %s for %v field", ErrTypeMismatch, name, t)
}

func toInt64(v any) (int64, bool) {
	switch n := v.(type) {
	case int:
		return int64(n), true
	case int32:
		return int64(n), true
	case int64:
		return n, true
	}
	return 0, false
}

// toFloat64 converts query-supplied key values for FLOAT/DOUBLE key fields.
// Integer values are accepted when float64 represents them exactly, so
// Query(..., 3) matches a key committed as 3.0 — the same leniency toInt64
// has always given integer fields. Inexact integers (beyond 2^53) are
// rejected rather than silently rounded to a key that matches nothing.
func toFloat64(v any) (float64, bool) {
	switch f := v.(type) {
	case float32:
		return float64(f), true
	case float64:
		return f, true
	case int:
		g := float64(f)
		return g, int(g) == f
	case int32:
		return float64(f), true
	case int64:
		g := float64(f)
		return g, int64(g) == f
	}
	return 0, false
}
