// Package godiva is the public interface of the GODIVA framework (General
// Object Data Interfaces for Visualization Applications): lightweight,
// database-like data management for scientific visualization codes, after
// Norris, Jiao, Fiedler, Ma and Winslett, ICDE 2004.
//
// GODIVA gives a visualization tool an in-memory database of records built
// from developer-defined schemas. The database manages data buffer
// *locations*, never contents: code queries a field buffer once by key and
// then accesses the returned slice directly, exactly like a user-allocated
// array. Around this sit the unit interfaces — AddUnit, ReadUnit, WaitUnit,
// FinishUnit, DeleteUnit — which drive background prefetching and LRU
// caching of developer-defined processing units through developer-supplied
// read functions, so the library is fully independent of file formats.
//
// A minimal batch-mode program (the paper's §3.3 example):
//
//	db := godiva.Open(godiva.Options{MemoryLimit: 400 << 20, BackgroundIO: true})
//	defer db.Close()
//	db.AddUnit("fluid_file1", readFile)
//	db.AddUnit("fluid_file2", readFile)
//	for _, f := range []string{"fluid_file1", "fluid_file2"} {
//		db.WaitUnit(f)   // overlaps the other file's input with processing
//		processUnit(db, f)
//		db.DeleteUnit(f) // batch mode: data will not be needed again
//	}
//
// The implementation lives in internal/core; this package re-exports it.
package godiva

import "godiva/internal/core"

// Re-exported types. See the internal/core documentation for details.
type (
	// DB is the GODIVA database (the paper's GODIVA Buffer Object).
	DB = core.DB
	// Options configures Open.
	Options = core.Options
	// Record is one dataset: a set of named, typed field buffers.
	Record = core.Record
	// Buffer is one field data buffer. A unit's buffers are valid until
	// FinishUnit or DeleteUnit: then their memory may go to a later unit.
	Buffer = core.Buffer
	// Unit is the handle a read function receives for the processing unit
	// it is reading.
	Unit = core.Unit
	// ReadFunc reads one processing unit into the database.
	ReadFunc = core.ReadFunc
	// DataType identifies a field's element type.
	DataType = core.DataType
	// Stats is a snapshot of database counters.
	Stats = core.Stats
	// IOWorkerStats is a snapshot of one background I/O worker's counters
	// (DB.IOWorkerStats, with Options.IOWorkers).
	IOWorkerStats = core.IOWorkerStats
	// UnitInfo describes one processing unit (DB.Units).
	UnitInfo = core.UnitInfo
	// UnitEvent is one unit state transition (DB.UnitEvents, with
	// Options.TraceUnits).
	UnitEvent = core.UnitEvent
)

// Field data types and the Unknown size marker.
const (
	String  = core.String
	Bytes   = core.Bytes
	Int32   = core.Int32
	Int64   = core.Int64
	Float32 = core.Float32
	Float64 = core.Float64
	Unknown = core.Unknown
)

// DefaultMemoryLimit is used when Options.MemoryLimit is zero.
const DefaultMemoryLimit = core.DefaultMemoryLimit

// Errors. Match with errors.Is; see internal/core for semantics.
var (
	ErrClosed            = core.ErrClosed
	ErrExists            = core.ErrExists
	ErrUnknownField      = core.ErrUnknownField
	ErrUnknownRecordType = core.ErrUnknownRecordType
	ErrUnknownUnit       = core.ErrUnknownUnit
	ErrNotCommitted      = core.ErrNotCommitted
	ErrCommitted         = core.ErrCommitted
	ErrNotFound          = core.ErrNotFound
	ErrNoBuffer          = core.ErrNoBuffer
	ErrKeyCount          = core.ErrKeyCount
	ErrTypeMismatch      = core.ErrTypeMismatch
	ErrBadSize           = core.ErrBadSize
	ErrDeadlock          = core.ErrDeadlock
	ErrUnitFailed        = core.ErrUnitFailed
	ErrNoMemory          = core.ErrNoMemory
	ErrUnitState         = core.ErrUnitState
)

// Open creates a GODIVA database. The caller must Close it.
func Open(opts Options) *DB { return core.Open(opts) }
