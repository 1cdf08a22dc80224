// AllocsPerRun gates for this package's //godiva:noalloc functions (see
// internal/noalloctest): every aliasing primitive on the zero-copy read
// path must stay allocation-free — these run per array, per payload, on
// every fetch and mmap'd read. Excluded under -race, whose instrumented
// runtime makes allocation counts meaningless.

//go:build !race

package zerocopy

import (
	"testing"

	"godiva/internal/noalloctest"
)

func TestNoAllocGates(t *testing.T) {
	// One backing array per element width, so every view below but the
	// declining ones is aligned and whole. uint32 stands in for shdf.Ref, which shares its
	// instantiation.
	u8 := make([]uint8, 64)
	i32 := make([]int32, 16)
	u32 := make([]uint32, 16)
	i64 := make([]int64, 16)
	f32 := make([]float32, 16)
	f64 := make([]float64, 8)
	b8, _ := Bytes(f64)
	b4, _ := Bytes(f32)
	le := LittleEndian
	// declined collects the calls that must decline: a misaligned or
	// partial-element view, and a view or alias on a big-endian host.
	var declined [4]bool
	var (
		ok   bool
		vU8  []uint8
		vI32 []int32
		vU32 []uint32
		vI64 []int64
		vF32 []float32
		vF64 []float64
		bs   [6][]byte
	)
	noalloctest.Check(t, ".", map[string]func(){
		"aligned": func() { ok = aligned(64, 8) },
		"Aligned": func() {
			ok = Aligned(nil, 8)
			ok = Aligned(b8, 8)
		},
		"View": func() {
			_, ok = View[float64](nil)
			_, ok = View[float64](b8[1:9])
			declined[0] = !ok
			_, ok = View[float64](b8[:7])
			declined[1] = !ok
			LittleEndian = false
			_, ok = View[float64](b8)
			declined[2] = !ok
			LittleEndian = le
			vU8, _ = View[uint8](b8)
			vI32, _ = View[int32](b4)
			vU32, _ = View[uint32](b4)
			vI64, _ = View[int64](b8)
			vF32, _ = View[float32](b4)
			vF64, ok = View[float64](b8)
		},
		"Bytes": func() {
			_, ok = Bytes[uint8](nil)
			LittleEndian = false
			_, ok = Bytes(u8)
			declined[3] = !ok
			LittleEndian = le
			bs[0], _ = Bytes(u8)
			bs[1], _ = Bytes(i32)
			bs[2], _ = Bytes(u32)
			bs[3], _ = Bytes(i64)
			bs[4], _ = Bytes(f32)
			bs[5], ok = Bytes(f64)
		},
	})
	if t.Failed() {
		return
	}
	// On this host (gates only measure, they don't assert endianness) the
	// last round of calls must have produced live views.
	if !LittleEndian {
		return
	}
	for i, d := range declined {
		if !d {
			t.Errorf("gated call %d made a view it must decline", i)
		}
	}
	if !ok || vU8 == nil || vI32 == nil || vU32 == nil || vI64 == nil || vF32 == nil || vF64 == nil {
		t.Error("View gates left nil views on a little-endian host")
	}
	for i, b := range bs {
		if b == nil {
			t.Errorf("Bytes gate %d left a nil view on a little-endian host", i)
		}
	}
}
