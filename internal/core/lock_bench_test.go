package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// The lock benchmark suite measures the three hot paths the database lock
// serves: the renderer-facing key-lookup query, the unit wait/notify
// machinery, and stats snapshots. Every benchmark uses only the public API
// so the same suite runs against any locking design; EXPERIMENTS.md
// ("Locking") records the numbers of the designs tried.

// populateQueryDB opens a database holding n committed resident records of
// a one-key record type ("cell", 16-byte STRING key, 1 KB payload) and
// returns it with the pre-boxed key slices used to query them back.
// Pre-boxing keeps the benchmark loop free of interface-conversion
// allocations so it measures the library, not the harness.
func populateQueryDB(tb testing.TB, n int) (*DB, [][]any) {
	tb.Helper()
	db := Open(Options{MemoryLimit: 64 << 20})
	tb.Cleanup(func() {
		if err := db.Close(); err != nil {
			tb.Errorf("close: %v", err)
		}
	})
	if err := db.DefineField("cell", String, 16); err != nil {
		tb.Fatal(err)
	}
	if err := db.DefineField("data", Float64, 1024); err != nil {
		tb.Fatal(err)
	}
	if err := db.DefineRecordType("grid", 1); err != nil {
		tb.Fatal(err)
	}
	if err := db.InsertField("grid", "cell", true); err != nil {
		tb.Fatal(err)
	}
	if err := db.InsertField("grid", "data", false); err != nil {
		tb.Fatal(err)
	}
	if err := db.CommitRecordType("grid"); err != nil {
		tb.Fatal(err)
	}
	keys := make([][]any, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("cell_%06d", i)
		r, err := db.NewRecord("grid")
		if err != nil {
			tb.Fatal(err)
		}
		if err := r.SetString("cell", name); err != nil {
			tb.Fatal(err)
		}
		if err := db.CommitRecord(r); err != nil {
			tb.Fatal(err)
		}
		keys[i] = []any{name}
	}
	return db, keys
}

// benchConcurrentQuery runs b.N key-lookup queries split across the given
// number of reader goroutines. With one lock, wall time per query stays
// flat (or worsens) as readers are added; with a read-mostly query path it
// can drop, given more CPUs than readers.
func benchConcurrentQuery(b *testing.B, readers int) {
	db, keys := populateQueryDB(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	var next atomic.Int64
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g
			for {
				n := next.Add(1)
				if n > int64(b.N) {
					return
				}
				kv := keys[i%len(keys)]
				if _, err := db.GetFieldBuffer("grid", "data", kv...); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkConcurrentQuery(b *testing.B) {
	for _, readers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			benchConcurrentQuery(b, readers)
		})
	}
}

// benchWaitNotify cycles units through add -> wait -> delete on several
// concurrent pipelines sharing one database. Every delete releases memory
// and every unit changes state several times, so the benchmark counts the
// cost of the wakeup machinery: one condition variable wakes every
// pipeline on every transition, per-unit channels wake only the unit's
// waiters.
func benchWaitNotify(b *testing.B, pipelines, workers int) {
	db := Open(Options{MemoryLimit: 64 << 20, BackgroundIO: true, IOWorkers: workers})
	defer db.Close()
	defineBenchBlobSchema(b, db)
	read := func(u *Unit) error {
		r, err := u.NewRecord("blob")
		if err != nil {
			return err
		}
		if err := r.SetString("name", u.Name()); err != nil {
			return err
		}
		if _, err := r.AllocFieldBuffer("payload", 256); err != nil {
			return err
		}
		return u.DB().CommitRecord(r)
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	var next atomic.Int64
	for g := 0; g < pipelines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				n := next.Add(1)
				if n > int64(b.N) {
					return
				}
				name := fmt.Sprintf("p%d_u%d", g, n%4)
				if err := db.AddUnit(name, read); err != nil {
					b.Error(err)
					return
				}
				if err := db.WaitUnit(name); err != nil {
					b.Error(err)
					return
				}
				if err := db.DeleteUnit(name); err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkWaitNotify(b *testing.B) {
	for _, cfg := range []struct{ pipelines, workers int }{
		{1, 1}, {4, 2}, {8, 4},
	} {
		b.Run(fmt.Sprintf("pipelines=%d/workers=%d", cfg.pipelines, cfg.workers), func(b *testing.B) {
			benchWaitNotify(b, cfg.pipelines, cfg.workers)
		})
	}
}

// defineBenchBlobSchema mirrors the test helper defineBlobSchema for
// benchmarks (testing.B instead of testing.T).
func defineBenchBlobSchema(b *testing.B, db *DB) {
	b.Helper()
	if err := db.DefineField("name", String, 16); err != nil {
		b.Fatal(err)
	}
	if err := db.DefineField("payload", Bytes, Unknown); err != nil {
		b.Fatal(err)
	}
	if err := db.DefineRecordType("blob", 1); err != nil {
		b.Fatal(err)
	}
	if err := db.InsertField("blob", "name", true); err != nil {
		b.Fatal(err)
	}
	if err := db.InsertField("blob", "payload", false); err != nil {
		b.Fatal(err)
	}
	if err := db.CommitRecordType("blob"); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKeyLookup measures a single-goroutine key-lookup query with
// allocation reporting: the fixed-size-key path is required to run at 0
// allocs/op (see TestKeyLookupZeroAllocs).
func BenchmarkKeyLookup(b *testing.B) {
	db, keys := populateQueryDB(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv := keys[i%len(keys)]
		if _, err := db.GetFieldBuffer("grid", "data", kv...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeyLookupFreshKeys is BenchmarkKeyLookup the way a consumer
// queries: each iteration converts a string key to the variadic ...any
// afresh (BenchmarkKeyLookup boxes its keys once, up front). The query path
// must not make the key escape, so the conversion stays on the caller's
// stack and the lookup allocates nothing.
func BenchmarkKeyLookupFreshKeys(b *testing.B) {
	db, keys := populateQueryDB(b, 256)
	names := make([]string, len(keys))
	for i, kv := range keys {
		names[i] = kv[0].(string)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.GetFieldBuffer("grid", "data", names[i%len(names)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStatsSnapshot measures Stats() under four goroutines of
// concurrent queries: the counters are behind the database lock, so every
// snapshot serializes against the query path.
func BenchmarkStatsSnapshot(b *testing.B) {
	db, keys := populateQueryDB(b, 64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.GetFieldBuffer("grid", "data", keys[i%len(keys)]...); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := db.Stats(); s.RecordsCommitted != 64 {
			b.Fatalf("RecordsCommitted = %d", s.RecordsCommitted)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}
