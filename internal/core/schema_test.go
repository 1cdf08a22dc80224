package core

import (
	"errors"
	"testing"
)

// newTestDB opens a database that the test's cleanup audits (audit_test.go)
// and closes, after which it must hold no memory.
func newTestDB(t *testing.T, opts Options) *DB {
	t.Helper()
	db := Open(opts)
	t.Cleanup(func() {
		audit(db, "cleanup")
		if err := db.Close(); err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("close: %v", err)
		}
		if n := db.MemUsed(); n != 0 {
			t.Errorf("MemUsed = %d after Close", n)
		}
		audit(db, "closed")
	})
	return db
}

// ignoreRaceErr consumes a unit-lifecycle error that a churn test expects
// to arise from shared-name races (another goroutine re-added, finished or
// deleted the unit first). Using it documents that the error is part of the
// workload, not a failure to report.
func ignoreRaceErr(error) {}

// defineFluidSchema defines the paper's Table 1 record type: a fluid data
// block with two STRING key fields and four DOUBLE array fields of unknown
// size.
func defineFluidSchema(t *testing.T, db *DB) {
	t.Helper()
	for _, f := range []struct {
		name string
		typ  DataType
		size int
	}{
		{"block id", String, 11},
		{"time-step id", String, 9},
		{"x coordinates", Float64, Unknown},
		{"y coordinates", Float64, Unknown},
		{"pressure", Float64, Unknown},
		{"temperature", Float64, Unknown},
	} {
		if err := db.DefineField(f.name, f.typ, f.size); err != nil {
			t.Fatalf("DefineField(%q): %v", f.name, err)
		}
	}
	if err := db.DefineRecordType("fluid", 2); err != nil {
		t.Fatalf("DefineRecordType: %v", err)
	}
	for _, f := range []struct {
		name string
		key  bool
	}{
		{"block id", true},
		{"time-step id", true},
		{"x coordinates", false},
		{"y coordinates", false},
		{"pressure", false},
		{"temperature", false},
	} {
		if err := db.InsertField("fluid", f.name, f.key); err != nil {
			t.Fatalf("InsertField(%q): %v", f.name, err)
		}
	}
	if err := db.CommitRecordType("fluid"); err != nil {
		t.Fatalf("CommitRecordType: %v", err)
	}
}

func TestDefineFieldValidation(t *testing.T) {
	db := newTestDB(t, Options{})
	if err := db.DefineField("ok", Float64, 16); err != nil {
		t.Fatalf("valid DefineField: %v", err)
	}
	if err := db.DefineField("ok", Float64, 16); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate DefineField: %v, want ErrExists", err)
	}
	if err := db.DefineField("bad type", DataType(99), 8); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("invalid type: %v, want ErrTypeMismatch", err)
	}
	if err := db.DefineField("bad size", Float64, -5); !errors.Is(err, ErrBadSize) {
		t.Fatalf("negative size: %v, want ErrBadSize", err)
	}
	if err := db.DefineField("bad align", Float64, 12); !errors.Is(err, ErrBadSize) {
		t.Fatalf("unaligned size: %v, want ErrBadSize", err)
	}
	if err := db.DefineField("unknown size", Float64, Unknown); err != nil {
		t.Fatalf("Unknown size: %v", err)
	}
}

func TestRecordTypeLifecycle(t *testing.T) {
	db := newTestDB(t, Options{})
	if err := db.DefineRecordType("r", 0); !errors.Is(err, ErrKeyCount) {
		t.Fatalf("zero keys: %v, want ErrKeyCount", err)
	}
	if err := db.DefineRecordType("r", 1); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineRecordType("r", 1); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate record type: %v, want ErrExists", err)
	}
	if err := db.InsertField("r", "nope", true); !errors.Is(err, ErrUnknownField) {
		t.Fatalf("unknown field: %v, want ErrUnknownField", err)
	}
	if err := db.InsertField("missing", "nope", true); !errors.Is(err, ErrUnknownRecordType) {
		t.Fatalf("unknown record type: %v, want ErrUnknownRecordType", err)
	}
	// Key fields must have known sizes.
	if err := db.DefineField("arr", Float64, Unknown); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertField("r", "arr", true); !errors.Is(err, ErrBadSize) {
		t.Fatalf("Unknown-size key field: %v, want ErrBadSize", err)
	}
	// Committing before all declared keys are inserted fails.
	if err := db.CommitRecordType("r"); !errors.Is(err, ErrKeyCount) {
		t.Fatalf("commit with missing keys: %v, want ErrKeyCount", err)
	}
	if err := db.DefineField("id", String, 8); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertField("r", "id", true); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertField("r", "id", false); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate field in record type: %v, want ErrExists", err)
	}
	if err := db.InsertField("r", "arr", false); err != nil {
		t.Fatal(err)
	}
	if err := db.CommitRecordType("r"); err != nil {
		t.Fatal(err)
	}
	// The schema is immutable after commit.
	if err := db.InsertField("r", "arr", false); !errors.Is(err, ErrCommitted) {
		t.Fatalf("insert after commit: %v, want ErrCommitted", err)
	}
	if err := db.CommitRecordType("r"); !errors.Is(err, ErrCommitted) {
		t.Fatalf("double commit: %v, want ErrCommitted", err)
	}
}

func TestTooManyKeyFields(t *testing.T) {
	db := newTestDB(t, Options{})
	if err := db.DefineField("a", String, 4); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineField("b", String, 4); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineRecordType("r", 1); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertField("r", "a", true); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertField("r", "b", true); !errors.Is(err, ErrKeyCount) {
		t.Fatalf("extra key field: %v, want ErrKeyCount", err)
	}
}

func TestRecordTypeFields(t *testing.T) {
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)
	fields, err := db.RecordTypeFields("fluid")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"block id", "time-step id", "x coordinates", "y coordinates", "pressure", "temperature"}
	if len(fields) != len(want) {
		t.Fatalf("got %d fields, want %d", len(fields), len(want))
	}
	for i := range want {
		if fields[i] != want[i] {
			t.Fatalf("field[%d] = %q, want %q", i, fields[i], want[i])
		}
	}
	if _, err := db.RecordTypeFields("nope"); !errors.Is(err, ErrUnknownRecordType) {
		t.Fatalf("unknown type: %v", err)
	}
}

func TestNewRecordRequiresCommittedType(t *testing.T) {
	db := newTestDB(t, Options{})
	if err := db.DefineField("id", String, 4); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineRecordType("r", 1); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertField("r", "id", true); err != nil {
		t.Fatal(err)
	}
	if _, err := db.NewRecord("r"); !errors.Is(err, ErrNotCommitted) {
		t.Fatalf("NewRecord on uncommitted type: %v, want ErrNotCommitted", err)
	}
	if _, err := db.NewRecord("zzz"); !errors.Is(err, ErrUnknownRecordType) {
		t.Fatalf("NewRecord on unknown type: %v, want ErrUnknownRecordType", err)
	}
}

func TestClosedDatabaseRejectsSchemaOps(t *testing.T) {
	db := Open(Options{})
	if err := db.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := db.DefineField("f", Float64, 8); !errors.Is(err, ErrClosed) {
		t.Fatalf("DefineField after close: %v", err)
	}
	if err := db.DefineRecordType("r", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("DefineRecordType after close: %v", err)
	}
	if err := db.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close: %v", err)
	}
}
