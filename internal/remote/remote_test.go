package remote_test

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"godiva/internal/core"
	"godiva/internal/genx"
	"godiva/internal/remote"
)

// testVars is the variable subset the tests fetch: one node vector and one
// element scalar, exercising both layouts.
var testVars = []string{"velocity", "stress_avg"}

// testSpec is a small dataset: 4 snapshots x 2 files, 3 blocks.
func testSpec() genx.Spec {
	s := genx.Scaled(32)
	s.Snapshots = 4
	return s
}

// writeDataset generates spec's snapshot files in a temp dir.
func writeDataset(t *testing.T, spec genx.Spec) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := genx.WriteDataset(spec, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// startServer serves dir on the loopback interface for the test's duration.
func startServer(t *testing.T, dir string) *remote.Server {
	t.Helper()
	srv, err := remote.Serve(remote.ServerOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return srv
}

// defineTestSchema defines a minimal per-block record type: two key fields,
// the mesh arrays and the test variables.
func defineTestSchema(t *testing.T, db *core.DB) {
	t.Helper()
	fields := []struct {
		name string
		typ  core.DataType
		size int
		key  bool
	}{
		{"block", core.String, 11, true},
		{"step", core.String, 9, true},
		{"coords", core.Float64, core.Unknown, false},
		{"conn", core.Int32, core.Unknown, false},
		{"gids", core.Int64, core.Unknown, false},
		{"velocity", core.Float64, core.Unknown, false},
		{"stress_avg", core.Float64, core.Unknown, false},
	}
	for _, f := range fields {
		if err := db.DefineField(f.name, f.typ, f.size); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DefineRecordType("blk", 2); err != nil {
		t.Fatal(err)
	}
	for _, f := range fields {
		if err := db.InsertField("blk", f.name, f.key); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CommitRecordType("blk"); err != nil {
		t.Fatal(err)
	}
}

// commitTestBlock is the CommitFunc of the test schema; it copies every
// buffer out of the (possibly shared) payload.
func commitTestBlock(u *core.Unit, bd *genx.BlockData) error {
	rec, err := u.NewRecord("blk")
	if err != nil {
		return err
	}
	if err := rec.SetString("block", bd.Name); err != nil {
		return err
	}
	if err := rec.SetString("step", bd.StepID); err != nil {
		return err
	}
	fill := func(field string, data []float64) error {
		buf, err := rec.AllocFieldBuffer(field, 8*len(data))
		if err != nil {
			return err
		}
		dst, err := buf.Float64s()
		if err != nil {
			return err
		}
		copy(dst, data)
		return nil
	}
	if err := fill("coords", bd.Mesh.Coords); err != nil {
		return err
	}
	buf, err := rec.AllocFieldBuffer("conn", 4*len(bd.Mesh.Tets))
	if err != nil {
		return err
	}
	conn, err := buf.Int32s()
	if err != nil {
		return err
	}
	copy(conn, bd.Mesh.Tets)
	buf, err = rec.AllocFieldBuffer("gids", 8*len(bd.Mesh.GlobalNode))
	if err != nil {
		return err
	}
	gids, err := buf.Int64s()
	if err != nil {
		return err
	}
	copy(gids, bd.Mesh.GlobalNode)
	if err := fill("velocity", bd.Node["velocity"]); err != nil {
		return err
	}
	if err := fill("stress_avg", bd.Elem["stress_avg"]); err != nil {
		return err
	}
	return u.DB().CommitRecord(rec)
}

// snapResolver resolves "snap_NNNN" to the snapshot's files in the server's
// namespace.
func snapResolver(spec genx.Spec) remote.Resolver {
	return func(unit string) ([]string, error) {
		var step int
		if n, _ := fmt.Sscanf(unit, "snap_%d", &step); n != 1 {
			return nil, fmt.Errorf("bad unit name %q", unit)
		}
		return spec.SnapshotFiles("", step), nil
	}
}

func TestPingAndSpec(t *testing.T) {
	spec := testSpec()
	srv := startServer(t, writeDataset(t, spec))
	c := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	got, err := c.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if got.Snapshots != spec.Snapshots || got.FilesPerSnapshot != spec.FilesPerSnapshot ||
		got.Blocks != spec.Blocks || got.DT != spec.DT {
		t.Fatalf("Spec() = %+v, want shape of %+v", got, spec)
	}
}

// TestEndToEndWithFaults is the acceptance test: godivad on the loopback
// interface over a generated dataset, a DB with four I/O workers prefetching
// every unit through remote read functions while a relay in front of the
// server severs the second fetch mid-payload and answers the fourth with a
// retryable error. Retries must absorb both faults, and the committed
// buffers must be byte-identical to local SHDF reads.
func TestEndToEndWithFaults(t *testing.T) {
	spec := testSpec()
	dir := writeDataset(t, spec)
	srv := startServer(t, dir)
	relay := remote.StartRelay(t, srv, nil, remote.AtSeqs(map[int]remote.Fault{
		1: remote.SeverAfter(4096),
		3: remote.Unavailable,
	}))
	c := remote.NewClient(remote.ClientOptions{Addr: relay.Addr(), PoolSize: 4})
	defer c.Close()

	db := core.Open(core.Options{MemoryLimit: 256 << 20, BackgroundIO: true, IOWorkers: 4})
	defer db.Close()
	defineTestSchema(t, db)

	read := remote.NewReadFunc(c, snapResolver(spec), testVars, commitTestBlock)
	for s := 0; s < spec.Snapshots; s++ {
		if err := db.AddUnit(fmt.Sprintf("snap_%04d", s), read); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < spec.Snapshots; s++ {
		if err := db.WaitUnit(fmt.Sprintf("snap_%04d", s)); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.UnitsFailed != 0 {
		t.Fatalf("%d units failed; retries should absorb injected faults", st.UnitsFailed)
	}
	if st.UnitsRead != int64(spec.Snapshots) {
		t.Fatalf("UnitsRead = %d, want %d", st.UnitsRead, spec.Snapshots)
	}

	// Every committed buffer must match a local read of the same file,
	// bit for bit.
	sameF64 := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	r := &genx.Reader{}
	for s := 0; s < spec.Snapshots; s++ {
		for _, path := range spec.SnapshotFiles(dir, s) {
			h, err := r.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range h.Blocks() {
				bd, err := h.ReadBlock(e, testVars)
				if err != nil {
					t.Fatal(err)
				}
				check := func(field string, want []float64) {
					buf, err := db.GetFieldBuffer("blk", field, bd.Name, bd.StepID)
					if err != nil {
						t.Fatalf("%s %s %s: %v", bd.StepID, bd.Name, field, err)
					}
					got, err := buf.Float64s()
					if err != nil {
						t.Fatal(err)
					}
					if !sameF64(got, want) {
						t.Fatalf("%s %s %s: remote payload differs from local read",
							bd.StepID, bd.Name, field)
					}
				}
				check("coords", bd.Mesh.Coords)
				check("velocity", bd.Node["velocity"])
				check("stress_avg", bd.Elem["stress_avg"])
				connBuf, err := db.GetFieldBuffer("blk", "conn", bd.Name, bd.StepID)
				if err != nil {
					t.Fatal(err)
				}
				conn, err := connBuf.Int32s()
				if err != nil {
					t.Fatal(err)
				}
				if len(conn) != len(bd.Mesh.Tets) {
					t.Fatalf("%s %s: conn length %d, want %d", bd.StepID, bd.Name, len(conn), len(bd.Mesh.Tets))
				}
				for i := range conn {
					if conn[i] != bd.Mesh.Tets[i] {
						t.Fatalf("%s %s: conn[%d] = %d, want %d", bd.StepID, bd.Name, i, conn[i], bd.Mesh.Tets[i])
					}
				}
			}
			h.Close()
		}
	}
	if rs := relay.Stats(); rs.Severed != 1 || rs.Unavailable != 1 {
		t.Fatalf("relay stats = %+v, want 1 sever and 1 CodeUnavailable absorbed", rs)
	}
	if rs := c.Stats(); rs.Retries != 2 || rs.Errors != 0 {
		t.Fatalf("client stats = %+v, want 2 retries and no errors", rs)
	}
}

// A server that is down when the unit is first read must fail the fetch
// after retries, and the failure must propagate through the read function
// into the unit's failed state and Stats.UnitsFailed.
func TestServerDownAtOpen(t *testing.T) {
	// Grab a loopback port with no listener behind it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	spec := testSpec()
	c := remote.NewClient(remote.ClientOptions{
		Addr:        addr,
		MaxRetries:  2,
		RetryBase:   time.Millisecond,
		DialTimeout: 200 * time.Millisecond,
	})
	defer c.Close()

	db := core.Open(core.Options{MemoryLimit: 64 << 20, BackgroundIO: true, IOWorkers: 2})
	defer db.Close()
	defineTestSchema(t, db)
	read := remote.NewReadFunc(c, snapResolver(spec), testVars, commitTestBlock)
	if err := db.AddUnit("snap_0000", read); err != nil {
		t.Fatal(err)
	}
	err = db.WaitUnit("snap_0000")
	if !errors.Is(err, core.ErrUnitFailed) {
		t.Fatalf("WaitUnit = %v, want ErrUnitFailed", err)
	}
	if !strings.Contains(err.Error(), "attempts failed") {
		t.Fatalf("failure should surface retry exhaustion, got: %v", err)
	}
	if st := db.Stats(); st.UnitsFailed != 1 {
		t.Fatalf("UnitsFailed = %d, want 1", st.UnitsFailed)
	}
	// The read function asks for both of the unit's files in one request,
	// so the dead server fails 2 logical fetches over a single wire stream:
	// 1 + MaxRetries RPC attempts, 2 retries, one error per fetch.
	if rs := c.Stats(); rs.Errors != 2 || rs.Retries != 2 || rs.RPCs != 3 {
		t.Fatalf("client stats = %+v, want 2 errors after 2 retries on 3 attempts", rs)
	}
}

// A connection dropped mid-payload on every attempt must exhaust retries;
// once the fault clears, the same client must recover.
func TestDropMidPayload(t *testing.T) {
	spec := testSpec()
	srv := startServer(t, writeDataset(t, spec))
	relay := remote.StartRelay(t, srv, nil, remote.OnFetch(remote.SeverAfter(4096)))
	c := remote.NewClient(remote.ClientOptions{
		Addr:       relay.Addr(),
		MaxRetries: 2,
		RetryBase:  time.Millisecond,
	})
	defer c.Close()

	path := genx.SnapshotFile("", 0, 0)
	_, err := c.FetchFile(path, testVars)
	if err == nil {
		t.Fatal("fetch succeeded with every response dropped mid-payload")
	}
	if !strings.Contains(err.Error(), "attempts failed") {
		t.Fatalf("want retry exhaustion, got: %v", err)
	}
	if rs := c.Stats(); rs.Retries != 2 || rs.Errors != 1 {
		t.Fatalf("client stats = %+v, want 2 retries and 1 error", rs)
	}

	if rs := relay.Stats(); rs.Severed != 3 {
		t.Fatalf("relay stats = %+v, want 3 severs", rs)
	}
	relay.SetDecide(nil)
	fp, err := c.FetchFile(path, testVars)
	if err != nil {
		t.Fatalf("fetch after faults cleared: %v", err)
	}
	if len(fp.Blocks) == 0 {
		t.Fatal("recovered fetch returned no blocks")
	}
}

// A server delaying responses past the request deadline must produce a
// deadline failure on every attempt.
func TestDeadlineExceeded(t *testing.T) {
	spec := testSpec()
	srv := startServer(t, writeDataset(t, spec))
	relay := remote.StartRelay(t, srv, nil, remote.OnFetch(remote.DelayBy(300*time.Millisecond)))
	c := remote.NewClient(remote.ClientOptions{
		Addr:           relay.Addr(),
		RequestTimeout: 30 * time.Millisecond,
		MaxRetries:     1,
		RetryBase:      time.Millisecond,
	})
	defer c.Close()

	_, err := c.FetchFile(genx.SnapshotFile("", 0, 0), testVars)
	if err == nil {
		t.Fatal("fetch succeeded against a server delaying past the deadline")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want a timeout error, got: %v", err)
	}
	if rs := c.Stats(); rs.Retries != 1 || rs.Errors != 1 {
		t.Fatalf("client stats = %+v, want 1 retry and 1 error", rs)
	}
}

// Two databases with four workers each hammer one server through a relay
// that faults a seeded 10% of fetches (half severed mid-payload, half
// answered with a retryable error); everything must complete with zero
// failed units. Run with -race.
func TestStressTwoDBs(t *testing.T) {
	spec := testSpec()
	spec.Snapshots = 8
	dir := writeDataset(t, spec)
	srv := startServer(t, dir)
	relay := remote.StartRelay(t, srv, nil, remote.SeededFaults(99, 0.05, 0.05))

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := remote.NewClient(remote.ClientOptions{
				Addr:      relay.Addr(),
				PoolSize:  4,
				RetryBase: time.Millisecond,
			})
			defer c.Close()
			db := core.Open(core.Options{MemoryLimit: 256 << 20, BackgroundIO: true, IOWorkers: 4})
			defer db.Close()
			defineTestSchema(t, db)
			read := remote.NewReadFunc(c, snapResolver(spec), testVars, commitTestBlock)
			for s := 0; s < spec.Snapshots; s++ {
				if err := db.AddUnit(fmt.Sprintf("snap_%04d", s), read); err != nil {
					errs <- fmt.Errorf("db%d: %w", id, err)
					return
				}
			}
			for s := 0; s < spec.Snapshots; s++ {
				name := fmt.Sprintf("snap_%04d", s)
				if err := db.WaitUnit(name); err != nil {
					errs <- fmt.Errorf("db%d: %w", id, err)
					return
				}
				if err := db.FinishUnit(name); err != nil {
					errs <- fmt.Errorf("db%d: %w", id, err)
					return
				}
				if err := db.DeleteUnit(name); err != nil {
					errs <- fmt.Errorf("db%d: %w", id, err)
					return
				}
			}
			if st := db.Stats(); st.UnitsFailed != 0 {
				errs <- fmt.Errorf("db%d: %d units failed", id, st.UnitsFailed)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	ss, rs := srv.Stats(), relay.Stats()
	t.Logf("server: %d conns, %d RPCs, %.1f MB out; relay: %d severed, %d unavailable",
		ss.Conns, ss.RPCs, float64(ss.BytesOut)/1e6, rs.Severed, rs.Unavailable)
}

// Requests for paths outside the served directory or non-snapshot files must
// be rejected with a non-retryable protocol error, not retried to exhaustion.
func TestBadRequests(t *testing.T) {
	spec := testSpec()
	srv := startServer(t, writeDataset(t, spec))
	c := remote.NewClient(remote.ClientOptions{Addr: srv.Addr(), MaxRetries: 3})
	defer c.Close()

	for _, path := range []string{"../../etc/passwd", "/abs/path.shdf", "notes.txt"} {
		_, err := c.FetchFile(path, testVars)
		var se *remote.ServerError
		if !errors.As(err, &se) || se.Code != remote.CodeBadRequest {
			t.Fatalf("FetchFile(%q) = %v, want CodeBadRequest", path, err)
		}
	}
	if _, err := c.FetchFile("genx_t9999_0.shdf", testVars); err == nil {
		t.Fatal("fetching a missing snapshot succeeded")
	} else {
		var se *remote.ServerError
		if !errors.As(err, &se) || se.Code != remote.CodeNotFound {
			t.Fatalf("missing file: %v, want CodeNotFound", err)
		}
	}
	// The retired one-file fetch op is an unknown op like any other.
	var se *remote.ServerError
	if err := c.RPC(0x03); !errors.As(err, &se) || se.Code != remote.CodeBadRequest ||
		!strings.Contains(se.Msg, "unknown op") {
		t.Fatalf("op 0x03 = %v, want CodeBadRequest (unknown op)", err)
	}
	// None of those should have burned retries: they are permanent errors.
	if rs := c.Stats(); rs.Retries != 0 {
		t.Fatalf("permanent errors consumed %d retries", rs.Retries)
	}
}

// A closed client must fail fast and never panic.
func TestClientClosed(t *testing.T) {
	spec := testSpec()
	srv := startServer(t, writeDataset(t, spec))
	c := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchFile(genx.SnapshotFile("", 0, 0), testVars); !errors.Is(err, remote.ErrClientClosed) {
		t.Fatalf("fetch on closed client: %v, want ErrClientClosed", err)
	}
	if err := c.Close(); !errors.Is(err, remote.ErrClientClosed) {
		t.Fatalf("double close: %v, want ErrClientClosed", err)
	}
}

// waitUntil polls cond until it holds, failing the test after 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// closeWakes closes c and checks that the call blocked in it, which reports
// on blocked, returns ErrClientClosed within a second.
func closeWakes(t *testing.T, c *remote.Client, blocked <-chan error) {
	t.Helper()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-blocked:
		if !errors.Is(err, remote.ErrClientClosed) {
			t.Fatalf("blocked call returned %v, want ErrClientClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("the blocked call was still blocked 1 s after Close")
	}
}

// Close wakes a fetch waiting for a pooled connection: the pool's one slot
// is held by a fetch the relay delays 5 s, and the waiter must return
// ErrClientClosed at Close, not when the slot frees.
func TestClientCloseWakesPoolWaiter(t *testing.T) {
	spec := testSpec()
	srv := startServer(t, writeDataset(t, spec))
	relay := remote.StartRelay(t, srv, nil, remote.OnFetch(remote.DelayBy(5*time.Second)))
	c := remote.NewClient(remote.ClientOptions{Addr: relay.Addr(), PoolSize: 1})

	held := make(chan error, 1)
	go func() {
		_, err := c.FetchFile(genx.SnapshotFile("", 0, 0), testVars)
		held <- err
	}()
	waitUntil(t, "the first fetch is held", func() bool { return relay.Stats().Delayed == 1 })
	waiter := make(chan error, 1)
	go func() {
		_, err := c.FetchFile(genx.SnapshotFile("", 1, 0), testVars)
		waiter <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter reach the pool slot
	closeWakes(t, c, waiter)
	relay.Close() // ends the held fetch's delay
	<-held
}

// Close wakes a fetch sleeping in retry backoff: the relay answers every
// fetch CodeUnavailable and the backoff is 5–10 s, but the caller must
// return ErrClientClosed at Close.
func TestClientCloseWakesBackoff(t *testing.T) {
	spec := testSpec()
	srv := startServer(t, writeDataset(t, spec))
	relay := remote.StartRelay(t, srv, nil, remote.OnFetch(remote.Unavailable))
	c := remote.NewClient(remote.ClientOptions{
		Addr:      relay.Addr(),
		RetryBase: 10 * time.Second,
		RetryMax:  10 * time.Second,
	})

	blocked := make(chan error, 1)
	go func() {
		_, err := c.FetchFile(genx.SnapshotFile("", 0, 0), testVars)
		blocked <- err
	}()
	waitUntil(t, "the fetch backs off", func() bool { return c.Stats().Retries == 1 })
	closeWakes(t, c, blocked)
}
