package zerocopy

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"unsafe"
)

// FuzzCodec checks the codec against an element-wise encoding/binary
// oracle for every Elem, at every offset from an 8-byte boundary, with the
// little-endian fast path on and forced off: Decode's values, when it
// aliases, AppendLE's round trip and Bytes's agreement with AppendLE. It
// flips the package-level LittleEndian switch, so it must not run in
// parallel.
func FuzzCodec(f *testing.F) {
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3}, uint8(1))
	f.Add([]byte{0, 0, 0x80, 0x7f, 0xff, 0xff, 0xff, 0xff}, uint8(4))
	f.Add(append(nan, 0x01, 0, 0, 0x80, 0xfe), uint8(0))
	f.Add(bytes.Repeat([]byte{0xa5, 0x5a, 0x00, 0xff}, 9), uint8(3))
	f.Add(bytes.Repeat([]byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0}, 4), uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		o := int(off % 8)
		b := MakeOffsetAligned(o+len(data), 8, 0)[o:]
		copy(b, data)
		defer func(le bool) { LittleEndian = le }(LittleEndian)
		for _, le := range []bool{LittleEndian, false} {
			LittleEndian = le
			checkCodec(t, b, o, func(x uint8) uint64 { return uint64(x) })
			checkCodec(t, b, o, func(x int32) uint64 { return uint64(uint32(x)) })
			checkCodec(t, b, o, func(x uint32) uint64 { return uint64(x) })
			checkCodec(t, b, o, func(x int64) uint64 { return uint64(x) })
			checkCodec(t, b, o, func(x float32) uint64 { return uint64(math.Float32bits(x)) })
			checkCodec(t, b, o, math.Float64bits)
		}
	})
}

// checkCodec runs the four functions over b, which starts o bytes past an
// 8-byte boundary; bits gives an element's bit pattern the way the oracle
// reads it from the bytes.
func checkCodec[T Elem](t *testing.T, b []byte, o int, bits func(T) uint64) {
	t.Helper()
	var zero T
	n := int(unsafe.Sizeof(zero))
	whole := len(b) / n
	v, aliased := Decode[T](b)
	if len(v) != whole {
		t.Fatalf("%T, LittleEndian=%v: Decode gave %d elements of %d bytes, want %d",
			zero, LittleEndian, len(v), len(b), whole)
	}
	for i := range v {
		var want uint64
		switch n {
		case 1:
			want = uint64(b[i])
		case 4:
			want = uint64(binary.LittleEndian.Uint32(b[4*i:]))
		case 8:
			want = binary.LittleEndian.Uint64(b[8*i:])
		}
		if got := bits(v[i]); got != want {
			t.Fatalf("%T, LittleEndian=%v: element %d = %#x, oracle %#x", zero, LittleEndian, i, got, want)
		}
	}
	wantAlias := LittleEndian && len(b)%n == 0 && (len(b) == 0 || o%n == 0)
	if aliased != wantAlias {
		t.Fatalf("%T, LittleEndian=%v, offset %d, %d bytes: aliased=%v, want %v",
			zero, LittleEndian, o, len(b), aliased, wantAlias)
	}
	if _, ok := View[T](b); ok != aliased {
		t.Fatalf("%T: View ok=%v but Decode aliased=%v", zero, ok, aliased)
	}
	enc := AppendLE(nil, v)
	if !bytes.Equal(enc, b[:whole*n]) {
		t.Fatalf("%T, LittleEndian=%v: AppendLE did not give back the input bytes", zero, LittleEndian)
	}
	raw, ok := Bytes(v)
	if ok != LittleEndian {
		t.Fatalf("%T: Bytes ok=%v with LittleEndian=%v", zero, ok, LittleEndian)
	}
	if ok && !bytes.Equal(raw, enc) {
		t.Fatalf("%T: Bytes differs from AppendLE", zero)
	}
}
