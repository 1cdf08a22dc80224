// The allocation bound of a steady unit cycle. Excluded under -race: the
// race runtime instruments allocation sites and the measurements stop
// meaning anything.

//go:build !race

package core

import (
	"fmt"
	"runtime"
	"testing"
)

// TestUnitCycleReusesBufferMemory runs the batch pattern — AddUnit,
// WaitUnit, DeleteUnit — with a read function that copies 15 fields of N
// blocks into allocated buffers, as a remote unit's commit does. Once the
// first unit has been dropped, every later unit commits into the memory of
// the one before it, so a cycle allocates its bookkeeping but not its
// buffers: less than a tenth of the unit's buffer bytes.
func TestUnitCycleReusesBufferMemory(t *testing.T) {
	const (
		blocks = 8
		fields = 15
		elems  = 1024 // float64s per field: 8 KiB
		cycles = 20
	)
	db := newTestDB(t, Options{MemoryLimit: 16 << 20, BackgroundIO: true})
	if err := db.DefineField("block", String, 8); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineRecordType("block", 1); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertField("block", "block", true); err != nil {
		t.Fatal(err)
	}
	names := make([]string, fields)
	for f := range names {
		names[f] = fmt.Sprintf("field%02d", f)
		if err := db.DefineField(names[f], Float64, Unknown); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertField("block", names[f], false); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CommitRecordType("block"); err != nil {
		t.Fatal(err)
	}
	src := make([]float64, elems)
	for i := range src {
		src[i] = float64(i)
	}
	keys := make([]string, blocks)
	for b := range keys {
		keys[b] = fmt.Sprintf("b%03d", b)
	}
	read := func(u *Unit) error {
		for _, key := range keys {
			r, err := u.NewRecord("block")
			if err != nil {
				return err
			}
			if err := r.SetString("block", key); err != nil {
				return err
			}
			for _, f := range names {
				buf, err := r.AllocFieldBuffer(f, 8*elems)
				if err != nil {
					return err
				}
				dst, _ := buf.Float64s()
				copy(dst, src)
			}
			if err := u.DB().CommitRecord(r); err != nil {
				return err
			}
		}
		return nil
	}
	unitNames := make([]string, cycles+1)
	for i := range unitNames {
		unitNames[i] = fmt.Sprintf("u%03d", i)
	}
	cycle := func(name string) {
		if err := db.AddUnit(name, read); err != nil {
			t.Fatal(err)
		}
		if err := db.WaitUnit(name); err != nil {
			t.Fatal(err)
		}
		if err := db.DeleteUnit(name); err != nil {
			t.Fatal(err)
		}
	}
	cycle(unitNames[0]) // fills the free list
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, name := range unitNames[1:] {
		cycle(name)
	}
	runtime.ReadMemStats(&after)
	unitBytes := uint64(blocks * fields * 8 * elems)
	per := (after.TotalAlloc - before.TotalAlloc) / cycles
	if per >= unitBytes/10 {
		t.Fatalf("a unit cycle allocates %d bytes, want < %d (a tenth of its %d buffer bytes)", per, unitBytes/10, unitBytes)
	}
	t.Logf("a unit cycle allocates %d bytes for %d buffer bytes", per, unitBytes)
}
