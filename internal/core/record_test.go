package core

import (
	"errors"
	"testing"
	"testing/quick"
)

// makeFluidRecord creates and commits the Figure 2 record instance: a
// 100x100 structured block with 101 coordinates per direction and 10,000
// element-based pressure/temperature values.
func makeFluidRecord(t *testing.T, db *DB, blockID, stepID string) *Record {
	t.Helper()
	r, err := db.NewRecord("fluid")
	if err != nil {
		t.Fatalf("NewRecord: %v", err)
	}
	if err := r.SetString("block id", blockID); err != nil {
		t.Fatal(err)
	}
	if err := r.SetString("time-step id", stepID); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		n    int
	}{
		{"x coordinates", 101},
		{"y coordinates", 101},
		{"pressure", 10000},
		{"temperature", 10000},
	} {
		if _, err := r.AllocFieldBuffer(f.name, f.n*8); err != nil {
			t.Fatalf("AllocFieldBuffer(%q): %v", f.name, err)
		}
	}
	if err := db.CommitRecord(r); err != nil {
		t.Fatalf("CommitRecord: %v", err)
	}
	return r
}

func TestFigure2RecordInstance(t *testing.T) {
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)
	makeFluidRecord(t, db, "block_0001$", "0.000025$")

	// The paper's sizes: 11- and 9-byte strings, 808-byte coordinate
	// buffers, 80,000-byte variable buffers.
	for _, want := range []struct {
		field string
		size  int
	}{
		{"block id", 11},
		{"time-step id", 9},
		{"x coordinates", 808},
		{"y coordinates", 808},
		{"pressure", 80000},
		{"temperature", 80000},
	} {
		size, err := db.GetFieldBufferSize("fluid", want.field, "block_0001$", "0.000025$")
		if err != nil {
			t.Fatalf("GetFieldBufferSize(%q): %v", want.field, err)
		}
		if size != want.size {
			t.Errorf("size of %q = %d, want %d", want.field, size, want.size)
		}
	}
}

func TestQueryReturnsLiveBuffer(t *testing.T) {
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)
	r := makeFluidRecord(t, db, "block_0003$", "0.000075$")

	// The paper's example query: the pressure buffer of block_0003 at
	// time-step 0.000075. Writing through the returned slice must be seen by
	// a second query, because the database manages locations, not contents.
	buf, err := db.GetFieldBuffer("fluid", "pressure", "block_0003$", "0.000075$")
	if err != nil {
		t.Fatalf("GetFieldBuffer: %v", err)
	}
	p, err := buf.Float64s()
	if err != nil {
		t.Fatal(err)
	}
	p[42] = 101325.0
	buf2, err := r.FieldBuffer("pressure")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := buf2.Float64s()
	if err != nil {
		t.Fatal(err)
	}
	if p2[42] != 101325.0 {
		t.Fatal("query did not return the live buffer")
	}
}

func TestQueryErrors(t *testing.T) {
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)
	makeFluidRecord(t, db, "block_0001$", "0.000025$")

	if _, err := db.GetFieldBuffer("fluid", "pressure", "no_such$", "0.000025$"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing record: %v, want ErrNotFound", err)
	}
	if _, err := db.GetFieldBuffer("fluid", "pressure", "block_0001$"); !errors.Is(err, ErrKeyCount) {
		t.Fatalf("one key value: %v, want ErrKeyCount", err)
	}
	if _, err := db.GetFieldBuffer("fluid", "nope", "block_0001$", "0.000025$"); !errors.Is(err, ErrUnknownField) {
		t.Fatalf("unknown field: %v, want ErrUnknownField", err)
	}
	if _, err := db.GetFieldBuffer("solid", "pressure", "a", "b"); !errors.Is(err, ErrUnknownRecordType) {
		t.Fatalf("unknown record type: %v, want ErrUnknownRecordType", err)
	}
	if _, err := db.GetFieldBuffer("fluid", "pressure", 17, "0.000025$"); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("int key for STRING field: %v, want ErrTypeMismatch", err)
	}
	if _, err := db.GetFieldBuffer("fluid", "pressure", "a-very-long-key-value", "0.000025$"); !errors.Is(err, ErrBadSize) {
		t.Fatalf("oversized key: %v, want ErrBadSize", err)
	}
}

func TestShortStringKeyIsPadded(t *testing.T) {
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)
	makeFluidRecord(t, db, "b1", "t1") // shorter than the 11/9-byte fields

	if _, err := db.GetFieldBuffer("fluid", "pressure", "b1", "t1"); err != nil {
		t.Fatalf("padded lookup failed: %v", err)
	}
}

func TestCommitWithoutKeyBufferFails(t *testing.T) {
	db := newTestDB(t, Options{})
	// Unknown-size field types are legal to define (their buffers are sized
	// later by AllocFieldBuffer); the key-field size restriction only bites
	// at InsertField. Assert the definition itself succeeds.
	if err := db.DefineField("id", Float64, Unknown); err != nil {
		t.Fatalf("DefineField with Unknown size: %v", err)
	}
	db2 := newTestDB(t, Options{})
	defineFluidSchema(t, db2)
	r, err := db2.NewRecord("fluid")
	if err != nil {
		t.Fatal(err)
	}
	// Key buffers exist (known size) so commit succeeds even when they hold
	// zero bytes; two zero-key records collide and replace.
	if err := db2.CommitRecord(r); err != nil {
		t.Fatalf("commit with zeroed keys: %v", err)
	}
	if err := db2.CommitRecord(r); !errors.Is(err, ErrCommitted) {
		t.Fatalf("double commit: %v, want ErrCommitted", err)
	}
}

func TestCommitCollisionReplaces(t *testing.T) {
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)
	makeFluidRecord(t, db, "block_0001$", "0.000025$")
	if n, err := db.CountRecords("fluid"); err != nil || n != 1 {
		t.Fatalf("CountRecords = %d, %v, want 1", n, err)
	}
	makeFluidRecord(t, db, "block_0001$", "0.000025$")
	if n, err := db.CountRecords("fluid"); err != nil || n != 1 {
		t.Fatalf("after colliding commit CountRecords = %d, %v, want 1", n, err)
	}
}

func TestDeleteRecord(t *testing.T) {
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)
	r := makeFluidRecord(t, db, "block_0001$", "0.000025$")
	used := db.MemUsed()
	if used == 0 {
		t.Fatal("MemUsed() = 0 after allocations")
	}
	if err := db.DeleteRecord(r); err != nil {
		t.Fatal(err)
	}
	if n, err := db.CountRecords("fluid"); err != nil || n != 0 {
		t.Fatalf("CountRecords = %d, %v after delete", n, err)
	}
	if db.MemUsed() != 0 {
		t.Fatalf("MemUsed() = %d after delete, want 0", db.MemUsed())
	}
	if _, err := db.GetFieldBuffer("fluid", "pressure", "block_0001$", "0.000025$"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("query after delete: %v, want ErrNotFound", err)
	}

	// A unit's record deleted early comes off the unit's charge too.
	var early *Record
	err := db.ReadUnit("u", func(u *Unit) error {
		for _, block := range []string{"block_0002$", "block_0003$"} {
			r, err := u.NewRecord("fluid")
			if err != nil {
				return err
			}
			if err := r.SetString("block id", block); err != nil {
				return err
			}
			if err := r.SetString("time-step id", "0.000025$"); err != nil {
				return err
			}
			if _, err := r.AllocFieldBuffer("pressure", 800); err != nil {
				return err
			}
			if err := u.DB().CommitRecord(r); err != nil {
				return err
			}
			early = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteRecord(early); err != nil {
		t.Fatal(err)
	}
	if units := db.Units(); len(units) != 1 || units[0].Bytes != db.MemUsed() {
		t.Fatalf("after deleting one of its records the unit charges %+v, the database %d bytes", units, db.MemUsed())
	}
	if err := db.DeleteUnit("u"); err != nil {
		t.Fatal(err)
	}
}

func TestReallocGrowAndShrinkAccounting(t *testing.T) {
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)
	r, err := db.NewRecord("fluid")
	if err != nil {
		t.Fatal(err)
	}
	base := db.MemUsed()
	if _, err := r.AllocFieldBuffer("pressure", 800); err != nil {
		t.Fatal(err)
	}
	if got := db.MemUsed(); got != base+800 {
		t.Fatalf("after alloc MemUsed = %d, want %d", got, base+800)
	}
	if _, err := r.AllocFieldBuffer("pressure", 8000); err != nil {
		t.Fatal(err)
	}
	if got := db.MemUsed(); got != base+8000 {
		t.Fatalf("after grow MemUsed = %d, want %d", got, base+8000)
	}
	if _, err := r.AllocFieldBuffer("pressure", 80); err != nil {
		t.Fatal(err)
	}
	if got := db.MemUsed(); got != base+80 {
		t.Fatalf("after shrink MemUsed = %d, want %d", got, base+80)
	}
}

func TestReallocKeyFieldOfCommittedRecordFails(t *testing.T) {
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)
	r := makeFluidRecord(t, db, "block_0001$", "0.000025$")
	if _, err := r.AllocFieldBuffer("block id", 11); !errors.Is(err, ErrCommitted) {
		t.Fatalf("realloc of committed key field: %v, want ErrCommitted", err)
	}
	// Non-key fields remain reallocatable; the paper leaves buffer contents
	// entirely to the application.
	if _, err := r.AllocFieldBuffer("pressure", 1600); err != nil {
		t.Fatalf("realloc of non-key field: %v", err)
	}
}

func TestBufferTypedAccessors(t *testing.T) {
	db := newTestDB(t, Options{})
	for _, f := range []struct {
		name string
		typ  DataType
	}{
		{"s", String}, {"b", Bytes}, {"i32", Int32}, {"i64", Int64}, {"f32", Float32}, {"f64", Float64},
	} {
		if err := db.DefineField(f.name, f.typ, Unknown); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DefineField("key", String, 4); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineRecordType("all", 1); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"key", "s", "b", "i32", "i64", "f32", "f64"} {
		if err := db.InsertField("all", n, n == "key"); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CommitRecordType("all"); err != nil {
		t.Fatal(err)
	}
	r, err := db.NewRecord("all")
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		field string
		bytes int
		elems int
	}{
		{"s", 10, 10}, {"b", 7, 7}, {"i32", 16, 4}, {"i64", 16, 2}, {"f32", 8, 2}, {"f64", 24, 3},
	}
	for _, c := range checks {
		buf, err := r.AllocFieldBuffer(c.field, c.bytes)
		if err != nil {
			t.Fatalf("alloc %q: %v", c.field, err)
		}
		if buf.Size() != c.bytes || buf.Len() != c.elems {
			t.Fatalf("%q: Size=%d Len=%d, want %d/%d", c.field, buf.Size(), buf.Len(), c.bytes, c.elems)
		}
	}
	// Wrong-type accessors fail with ErrTypeMismatch.
	f64buf, err := r.FieldBuffer("f64")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f64buf.Int32s(); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("Int32s on DOUBLE buffer: %v", err)
	}
	if _, err := f64buf.Bytes(); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("Bytes on DOUBLE buffer: %v", err)
	}
	if _, err := f64buf.Float64s(); err != nil {
		t.Fatalf("Float64s on DOUBLE buffer: %v", err)
	}
	i32buf, err := r.FieldBuffer("i32")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := i32buf.Int32s(); err != nil || len(v) != 4 {
		t.Fatalf("Int32s: %v (len %d)", err, len(v))
	}
}

func TestSetStringTruncationAndPadding(t *testing.T) {
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)
	r, err := db.NewRecord("fluid")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetString("block id", "a-string-that-is-too-long"); !errors.Is(err, ErrBadSize) {
		t.Fatalf("oversized SetString: %v, want ErrBadSize", err)
	}
	if err := r.SetString("block id", "short"); err != nil {
		t.Fatal(err)
	}
	buf, err := r.FieldBuffer("block id")
	if err != nil {
		t.Fatal(err)
	}
	s, err := buf.StringValue()
	if err != nil || s != "short" {
		t.Fatalf("StringValue = %q, %v", s, err)
	}
	if err := r.SetString("pressure", "x"); !errors.Is(err, ErrNoBuffer) {
		// pressure has no buffer yet: FieldBuffer fails first.
		t.Fatalf("SetString on unallocated field: %v, want ErrNoBuffer", err)
	}
}

// Property: any pair of distinct (blockID, stepID) string keys indexes
// distinct records, and both are retrievable by their own keys.
func TestQuickDistinctKeysDistinctRecords(t *testing.T) {
	db := newTestDB(t, Options{MemoryLimit: 1 << 30})
	defineFluidSchema(t, db)
	seen := map[[2]string]bool{}
	f := func(b1, t1, b2, t2 string) bool {
		if len(b1) > 11 || len(b2) > 11 || len(t1) > 9 || len(t2) > 9 {
			return true // out of schema bounds; skip
		}
		// Zero bytes in keys are legal (padding), but make equality checks
		// against the padded form; normalize by trimming.
		k1 := [2]string{b1, t1}
		k2 := [2]string{b2, t2}
		if seen[k1] || seen[k2] {
			return true
		}
		seen[k1], seen[k2] = true, true
		r1, err := db.NewRecord("fluid")
		if err != nil {
			return false
		}
		if r1.SetString("block id", b1) != nil || r1.SetString("time-step id", t1) != nil {
			return false
		}
		if db.CommitRecord(r1) != nil {
			return false
		}
		got, err := db.GetRecord("fluid", b1, t1)
		if err != nil || got != r1 {
			return false
		}
		if k1 == k2 {
			return true
		}
		r2, err := db.NewRecord("fluid")
		if err != nil {
			return false
		}
		if r2.SetString("block id", b2) != nil || r2.SetString("time-step id", t2) != nil {
			return false
		}
		if db.CommitRecord(r2) != nil {
			return false
		}
		ra, err := db.GetRecord("fluid", b1, t1)
		if err != nil || ra != r1 {
			return false
		}
		rb, err := db.GetRecord("fluid", b2, t2)
		if err != nil || rb != r2 {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEachRecordOrderAndCount(t *testing.T) {
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)
	for _, id := range []string{"block_0003$", "block_0001$", "block_0002$"} {
		makeFluidRecord(t, db, id, "0.000025$")
	}
	var ids []string
	err := db.EachRecord("fluid", func(r *Record) bool {
		buf, err := r.FieldBuffer("block id")
		if err != nil {
			t.Errorf("FieldBuffer: %v", err)
			return false
		}
		s, err := buf.StringValue()
		if err != nil {
			t.Errorf("StringValue: %v", err)
			return false
		}
		ids = append(ids, s)
		return true
	})
	if err != nil {
		t.Fatalf("EachRecord: %v", err)
	}
	if len(ids) != 3 {
		t.Fatalf("visited %d records, want 3", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("records out of key order: %v", ids)
		}
	}
}
