package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"godiva/internal/zerocopy"
)

// Satellite regression: toFloat64 rejected integer key values, so
// Query(..., 3) failed on FLOAT/DOUBLE key fields where Query(..., 3.0)
// succeeded, while toInt64 accepted every integer type all along. The
// converters' accepted type sets are pinned here table-driven.
func TestKeyValueConverterAcceptedTypes(t *testing.T) {
	intCases := []struct {
		name string
		v    any
		want int64
		ok   bool
	}{
		{"int", 42, 42, true},
		{"int32", int32(-7), -7, true},
		{"int64", int64(1) << 40, 1 << 40, true},
		{"float64", 3.0, 0, false},
		{"float32", float32(3), 0, false},
		{"string", "3", 0, false},
		{"uint", uint(3), 0, false},
	}
	for _, tc := range intCases {
		got, ok := toInt64(tc.v)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("toInt64(%s %v) = (%d, %v), want (%d, %v)", tc.name, tc.v, got, ok, tc.want, tc.ok)
		}
	}

	floatCases := []struct {
		name string
		v    any
		want float64
		ok   bool
	}{
		{"float64", 2.5, 2.5, true},
		{"float32", float32(1.5), 1.5, true},
		{"int", 3, 3.0, true},
		{"int32", int32(-9), -9.0, true},
		{"int64", int64(1) << 50, float64(int64(1) << 50), true},
		{"int64 exact 2^53", int64(1) << 53, float64(int64(1) << 53), true},
		{"int64 inexact 2^53+1", int64(1)<<53 + 1, 0, false},
		{"int64 max inexact", int64(math.MaxInt64), 0, false},
		{"string", "3", 0, false},
		{"uint", uint(3), 0, false},
	}
	for _, tc := range floatCases {
		got, ok := toFloat64(tc.v)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("toFloat64(%s %v) = (%v, %v), want (%v, %v)", tc.name, tc.v, got, ok, tc.want, tc.ok)
		}
	}
}

// End-to-end form of the same regression: an integer query value must match
// a DOUBLE key field committed from a float buffer.
func TestIntegerQueryValueOnFloatKey(t *testing.T) {
	db := newTestDB(t, Options{})
	if err := db.DefineField("time", Float64, 8); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineField("v", Float64, Unknown); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineRecordType("frame", 1); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertField("frame", "time", true); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertField("frame", "v", false); err != nil {
		t.Fatal(err)
	}
	if err := db.CommitRecordType("frame"); err != nil {
		t.Fatal(err)
	}
	r, err := db.NewRecord("frame")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := r.FieldBuffer("time")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := buf.Float64s()
	if err != nil {
		t.Fatal(err)
	}
	ts[0] = 3.0
	if err := db.CommitRecord(r); err != nil {
		t.Fatal(err)
	}

	for _, key := range []any{3.0, 3, int32(3), int64(3)} {
		if _, err := db.GetRecord("frame", key); err != nil {
			t.Errorf("GetRecord(time=%T %v): %v", key, key, err)
		}
	}
	if _, err := db.GetRecord("frame", int64(1)<<53+1); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("inexact integer key: %v, want ErrTypeMismatch", err)
	}
}

// BorrowFieldBuffer adopts an aligned donation without copying, charges it
// like an allocation, and counts the bytes in Stats.BytesBorrowed.
func TestBorrowFieldBufferAliases(t *testing.T) {
	if !zerocopy.LittleEndian {
		t.Skip("aliasing requires a little-endian host")
	}
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)

	donor := make([]float64, 101)
	for i := range donor {
		donor[i] = float64(i) * 0.5
	}
	donated, ok := zerocopy.Bytes(donor)
	if !ok {
		t.Fatal("Bytes failed")
	}

	var borrowed *Buffer
	err := db.ReadUnit("u1", func(u *Unit) error {
		r, err := u.NewRecord("fluid")
		if err != nil {
			return err
		}
		if err := r.SetString("block id", "b1"); err != nil {
			return err
		}
		if err := r.SetString("time-step id", "s1"); err != nil {
			return err
		}
		borrowed, err = r.BorrowFieldBuffer("x coordinates", donated)
		if err != nil {
			return err
		}
		return u.DB().CommitRecord(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !borrowed.Borrowed() {
		t.Fatal("aligned donation was copied, not borrowed")
	}
	got, err := db.GetFieldBuffer("fluid", "x coordinates", "b1", "s1")
	if err != nil {
		t.Fatal(err)
	}
	xs, err := got.Float64s()
	if err != nil {
		t.Fatal(err)
	}
	if &xs[0] != &donor[0] {
		t.Fatal("queried buffer does not alias the donated slice")
	}
	if xs[100] != 50 {
		t.Fatalf("xs[100] = %v, want 50", xs[100])
	}
	if s := db.Stats(); s.BytesBorrowed != int64(len(donated)) {
		t.Fatalf("BytesBorrowed = %d, want %d", s.BytesBorrowed, len(donated))
	}
	if n, err := db.GetFieldBufferSize("fluid", "x coordinates", "b1", "s1"); err != nil || n != len(donated) {
		t.Fatalf("GetFieldBufferSize = %d, %v", n, err)
	}
	if err := db.FinishUnit("u1"); err != nil {
		t.Fatal(err)
	}
}

// Misaligned donations fall back to a private decoded copy — correct data,
// Borrowed() false, no BytesBorrowed.
func TestBorrowFieldBufferUnalignedFallsBack(t *testing.T) {
	raw := make([]byte, 8*4+1)
	unaligned := raw[1:] // off the 8-byte grid on any allocator
	if zerocopy.Aligned(unaligned, 8) {
		t.Fatal("test slice unexpectedly aligned")
	}
	checkBorrowFallsBack(t, unaligned)
}

// With the little-endian fast path forced off, as on a big-endian host, an
// aligned donation falls back to the decoded copy too. It flips a
// package-level switch, so it must not run in parallel.
func TestBorrowFieldBufferForcedOffFallsBack(t *testing.T) {
	defer func(le bool) { zerocopy.LittleEndian = le }(zerocopy.LittleEndian)
	zerocopy.LittleEndian = false
	checkBorrowFallsBack(t, zerocopy.MakeOffsetAligned(8*4, 8, 0))
}

// checkBorrowFallsBack donates four float64s encoded into donation (32
// bytes the host cannot alias) and checks the buffer is a private copy
// holding them, element by element.
func checkBorrowFallsBack(t *testing.T, donation []byte) {
	t.Helper()
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)

	want := []float64{1.25, -2, 3e9, 0.125}
	for i, v := range want {
		u := math.Float64bits(v)
		for b := 0; b < 8; b++ {
			donation[i*8+b] = byte(u >> (8 * b))
		}
	}
	err := db.ReadUnit("u1", func(u *Unit) error {
		r, err := u.NewRecord("fluid")
		if err != nil {
			return err
		}
		if err := r.SetString("block id", "b1"); err != nil {
			return err
		}
		if err := r.SetString("time-step id", "s1"); err != nil {
			return err
		}
		buf, err := r.BorrowFieldBuffer("pressure", donation)
		if err != nil {
			return err
		}
		if buf.Borrowed() {
			return errors.New("an unaliasable donation claims to be borrowed")
		}
		vs, err := buf.Float64s()
		if err != nil {
			return err
		}
		if len(vs) != len(want) {
			return fmt.Errorf("decoded %d values, want %d", len(vs), len(want))
		}
		for i, v := range want {
			if vs[i] != v {
				t.Errorf("decoded[%d] = %v, want %v", i, vs[i], v)
			}
		}
		return u.DB().CommitRecord(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := db.Stats(); s.BytesBorrowed != 0 {
		t.Fatalf("BytesBorrowed = %d for a copied donation, want 0", s.BytesBorrowed)
	}
	if err := db.FinishUnit("u1"); err != nil {
		t.Fatal(err)
	}
}

// Borrowed buffers are read-only and unit-scoped: SetString refuses them,
// and resident records may not borrow at all.
func TestBorrowedBufferGuards(t *testing.T) {
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)

	err := db.ReadUnit("u1", func(u *Unit) error {
		r, err := u.NewRecord("fluid")
		if err != nil {
			return err
		}
		if err := r.SetString("time-step id", "s1"); err != nil {
			return err
		}
		// Donate the block-id key bytes, then try to mutate them.
		if _, err := r.BorrowFieldBuffer("block id", []byte("b1\x00\x00\x00\x00\x00\x00\x00\x00\x00")); err != nil {
			return err
		}
		if err := r.SetString("block id", "b2"); !errors.Is(err, ErrBorrowed) {
			t.Errorf("SetString on borrowed buffer: %v, want ErrBorrowed", err)
		}
		return u.DB().CommitRecord(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetRecord("fluid", "b1", "s1"); err != nil {
		t.Fatalf("borrowed key bytes did not index: %v", err)
	}
	if err := db.FinishUnit("u1"); err != nil {
		t.Fatal(err)
	}

	res, err := db.NewRecord("fluid")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.BorrowFieldBuffer("pressure", make([]byte, 16)); !errors.Is(err, ErrBorrowed) {
		t.Fatalf("resident borrow: %v, want ErrBorrowed", err)
	}
	if err := db.DeleteRecord(res); err != nil {
		t.Fatal(err)
	}

	// An empty donation — a nil slice — still reads back as its field's
	// type: the typed accessors go by the buffer's type, not by whether
	// its slice is nil.
	for _, name := range []string{"blob", "vals"} {
		typ := Bytes
		if name == "vals" {
			typ = Float64
		}
		if err := db.DefineField(name, typ, Unknown); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DefineRecordType("empty", 1); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"time-step id", "blob", "vals"} {
		if err := db.InsertField("empty", f, f == "time-step id"); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CommitRecordType("empty"); err != nil {
		t.Fatal(err)
	}
	err = db.ReadUnit("u2", func(u *Unit) error {
		r, err := u.NewRecord("empty")
		if err != nil {
			return err
		}
		if err := r.SetString("time-step id", "s1"); err != nil {
			return err
		}
		blob, err := r.BorrowFieldBuffer("blob", nil)
		if err != nil {
			return err
		}
		if b, err := blob.Bytes(); err != nil || len(b) != 0 {
			t.Errorf("empty borrowed BYTES buffer: Bytes() = %v, %v; want an empty slice", b, err)
		}
		vals, err := r.BorrowFieldBuffer("vals", nil)
		if err != nil {
			return err
		}
		if v, err := vals.Float64s(); err != nil || len(v) != 0 {
			t.Errorf("empty borrowed DOUBLE buffer: Float64s() = %v, %v; want an empty slice", v, err)
		}
		if _, err := vals.Bytes(); !errors.Is(err, ErrTypeMismatch) {
			t.Errorf("Bytes() on a DOUBLE buffer: %v, want ErrTypeMismatch", err)
		}
		return u.DB().CommitRecord(r)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// OnRelease hooks run exactly once, when the unit is dropped, after its
// buffers are gone — the donor-lifetime half of the borrowing contract.
func TestOnReleaseRunsAtUnitDrop(t *testing.T) {
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)

	released := 0
	err := db.ReadUnit("u1", func(u *Unit) error {
		u.OnRelease(func() { released++ })
		u.OnRelease(func() { released += 10 })
		r, err := u.NewRecord("fluid")
		if err != nil {
			return err
		}
		if err := r.SetString("block id", "b1"); err != nil {
			return err
		}
		if err := r.SetString("time-step id", "s1"); err != nil {
			return err
		}
		return u.DB().CommitRecord(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.FinishUnit("u1"); err != nil {
		t.Fatal(err)
	}
	if released != 0 {
		t.Fatalf("release hooks ran before the unit was dropped (released=%d)", released)
	}
	if err := db.DeleteUnit("u1"); err != nil {
		t.Fatal(err)
	}
	if released != 11 {
		t.Fatalf("released = %d after DeleteUnit, want 11", released)
	}
	if err := db.DeleteUnit("u1"); !errors.Is(err, ErrUnknownUnit) {
		t.Fatalf("second delete: %v", err)
	}
	if released != 11 {
		t.Fatalf("release hooks ran twice (released=%d)", released)
	}
}

// Close sweeps every unit and runs its release hooks too.
func TestOnReleaseRunsAtClose(t *testing.T) {
	db := Open(Options{})
	defineFluidSchema(t, db)
	released := false
	err := db.ReadUnit("u1", func(u *Unit) error {
		u.OnRelease(func() { released = true })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if !released {
		t.Fatal("release hook did not run at Close")
	}
}

// Regression: a failed read dropped its records but kept its release hooks
// until the unit was deleted, and every re-read added more. The hooks run,
// exactly once, by the time the error is returned — from an inline read and
// from a pool worker's — and a re-read that fails again runs only its own.
func TestOnReleaseRunsWhenReadFails(t *testing.T) {
	for _, bg := range []bool{false, true} {
		db := newTestDB(t, Options{BackgroundIO: bg})
		defineFluidSchema(t, db)
		var released atomic.Int64
		failing := func(u *Unit) error {
			u.OnRelease(func() { released.Add(1) })
			if _, err := u.NewRecord("fluid"); err != nil {
				return err
			}
			return errors.New("injected read failure")
		}
		for attempt := int64(1); attempt <= 2; attempt++ {
			if err := db.AddUnit("u1", failing); err != nil {
				t.Fatal(err)
			}
			if err := db.WaitUnit("u1"); !errors.Is(err, ErrUnitFailed) {
				t.Fatalf("background=%v attempt %d: WaitUnit = %v, want ErrUnitFailed", bg, attempt, err)
			}
			if n := released.Load(); n != attempt {
				t.Fatalf("background=%v attempt %d: %d hooks ran, want %d", bg, attempt, n, attempt)
			}
		}
		if err := db.DeleteUnit("u1"); err != nil {
			t.Fatal(err)
		}
		if n := released.Load(); n != 2 {
			t.Fatalf("background=%v: deleting the failed unit ran hooks again (%d ran)", bg, n)
		}
		if m := db.MemUsed(); m != 0 {
			t.Fatalf("background=%v: %d bytes still charged", bg, m)
		}
	}
}

// Regression: Close sweeping a unit whose inline read was still running ran
// the hooks registered so far — unmapping what the read function might still
// be reading — and never ran the ones it registered afterwards. Every hook
// now waits for the read function and has run exactly once when ReadUnit
// returns ErrClosed.
func TestOnReleaseRunsWhenCloseSweepsInlineRead(t *testing.T) {
	db := Open(Options{})
	defineFluidSchema(t, db)
	var released atomic.Int64
	started, swept := make(chan struct{}), make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- db.ReadUnit("u1", func(u *Unit) error {
			u.OnRelease(func() { released.Add(1) })
			close(started)
			<-swept
			u.OnRelease(func() { released.Add(10) })
			_, err := u.NewRecord("fluid")
			return err
		})
	}()
	<-started
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n := released.Load(); n != 0 {
		t.Fatalf("Close ran %d of the hooks while their read function was running", n)
	}
	close(swept)
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadUnit swept by Close = %v, want ErrClosed", err)
	}
	if n := released.Load(); n != 11 {
		t.Fatalf("released = %d when ReadUnit returned, want 11 (each hook once)", n)
	}
}

// A read function may fan its blocks out to goroutines, each borrowing and
// registering its donor's hook, while Close sweeps the unit. OnRelease is
// then called from several goroutines at once, so its append must hold
// db.mu: under -race an unlocked append fails here, and without -race a
// lost append shows as a hook that never ran.
func TestOnReleaseConcurrentWithCloseSweep(t *testing.T) {
	const goroutines, hooksEach = 4, 50
	db := Open(Options{})
	defineFluidSchema(t, db)
	var released atomic.Int64
	started, swept := make(chan struct{}), make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- db.ReadUnit("u1", func(u *Unit) error {
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < hooksEach; i++ {
						u.OnRelease(func() { released.Add(1) })
						if i == hooksEach/2 {
							<-swept
						}
					}
				}()
			}
			close(started)
			wg.Wait()
			return nil
		})
	}()
	<-started
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	close(swept)
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadUnit swept by Close = %v, want ErrClosed", err)
	}
	if n := released.Load(); n != goroutines*hooksEach {
		t.Fatalf("released = %d when ReadUnit returned, want %d (each hook once)", n, goroutines*hooksEach)
	}
}
