package main

import (
	"fmt"
	"time"

	"godiva/internal/remote"
)

// scanRemote drives the scanner (scan.go) against an in-process godivad
// over loopback: closed loop, one client, two I/O workers, whole-snapshot
// units, default batching and server caches.
//
// Cold operation: a unit of a pass over every step — 97 MB cycling through
// a 64 MiB payload cache and 128 files through 8 cached readers, so nearly
// every fetch opens, reads and encodes. Warm operation: a unit of a pass
// over the first hotSteps steps (38 MB), which fit, so after the first pass
// every fetch is served from cached encoded segments. A sample is one pass,
// in ms per unit. The seed rotates which step each pass starts from.
type scanRemote struct {
	sz     sizes
	rec    *recorder
	seed   int64
	srv    *remote.Server
	cli    *remote.Client
	scan   *scanner
	golden []uint64 // sparse checksum per step, from the local reader path
	unit   int64    // payload bytes of one unit
	disk   int64
}

func (w *scanRemote) setup(env *env, sz sizes, rec *recorder) error {
	w.sz, w.rec, w.seed = sz, rec, env.seed
	dir, disk, err := writeDataset(env, "d1", sz.spec)
	if err != nil {
		return err
	}
	w.disk = disk
	w.golden = make([]uint64, sz.spec.Snapshots)
	for step := range w.golden {
		if w.golden[step], err = sumStepLocal(sz.spec, dir, step, false); err != nil {
			return err
		}
	}
	w.srv, err = remote.Serve(remote.ServerOptions{Dir: dir})
	if err != nil {
		return err
	}
	w.cli = remote.NewClient(remote.ClientOptions{Addr: w.srv.Addr(), PoolSize: 2})
	if err := w.cli.Ping(); err != nil {
		return err
	}
	w.scan, err = newScanner(w.cli, sz.spec, rec)
	return err
}

// steps lists n steps starting from a seeded rotation.
func (w *scanRemote) steps(pass, n int) []int {
	first := int((w.seed%int64(n)+int64(n))%int64(n)) + pass
	out := make([]int, n)
	for i := range out {
		out[i] = (first + i) % n
	}
	return out
}

func (w *scanRemote) measure() (*outcome, error) {
	out := &outcome{layer: map[string]float64{}, exact: map[string]uint64{}}
	all, hot := w.sz.spec.Snapshots, min(w.sz.hotSteps, w.sz.spec.Snapshots)
	var sum, want uint64
	var queries int
	phase := func(passes, n int, trace int64, samples *[]float64) error {
		for p := 0; p < passes; p++ {
			steps := w.steps(p, n)
			t0 := time.Now()
			s, q, err := w.scan.pass(steps, false, trace+int64(p))
			if err != nil {
				return err
			}
			*samples = append(*samples, ms(time.Since(t0))/float64(n))
			sum += s
			queries += q
			for _, step := range steps {
				want += w.golden[step]
			}
		}
		return nil
	}

	var coldSrv remote.ServerStats
	cli0 := w.cli.Stats()
	wall, alloc, err := timed(func() error {
		if err := phase(w.sz.coldPasses, all, 0, &out.cold); err != nil {
			return err
		}
		coldSrv = w.srv.Stats()
		// One untimed pass brings the hot set into the server's caches; the
		// hot phase measures the steady state after it.
		if _, _, err := w.scan.pass(w.steps(0, hot), false, 1e6-1); err != nil {
			return err
		}
		return phase(w.sz.hotPasses, hot, 1e6, &out.warm)
	})
	if err != nil {
		return nil, err
	}
	units := w.sz.coldPasses*all + w.sz.hotPasses*hot
	out.wall, out.allocBytes, out.ops, out.diskBytes = wall, alloc, units, w.disk

	db := w.scan.db.Stats()
	coreLayer(out, db, db.UnitsAdded)
	srv, cli := w.srv.Stats(), w.cli.Stats()
	remoteLayer(out, cli0, cli, srv, db.UnitsRead)
	out.layer["remote.payload_cache_hit_ratio_cold"] = hitRatio(coldSrv.PayloadCacheHits, coldSrv.PayloadCacheMisses)
	out.layer["remote.payload_cache_hit_ratio_hot"] = hitRatio(
		srv.PayloadCacheHits-coldSrv.PayloadCacheHits, srv.PayloadCacheMisses-coldSrv.PayloadCacheMisses)
	out.exact["remote.rpcs"] = uint64(cli.RPCs - cli0.RPCs)
	out.exact["remote.bytes_in"] = uint64(cli.BytesIn - cli0.BytesIn)
	out.exact["scan.sparse_checksum"] = sum
	out.exact["scan.key_queries"] = uint64(queries)

	if sum != want {
		out.failed++
		out.check = fmt.Errorf("scan-remote sparse checksum %#x, golden %#x", sum, want)
	}
	if cli.Errors+srv.Errors+cli.Retries != 0 {
		out.failed += int(cli.Errors + srv.Errors + cli.Retries)
		out.check = fmt.Errorf("scan-remote saw %d client errors, %d server errors, %d retries on a fault-free loopback",
			cli.Errors, srv.Errors, cli.Retries)
	}
	return out, nil
}

func hitRatio(hits, misses int64) float64 { return ratio(float64(hits), float64(hits+misses)) }

// remoteLayer fills the remote layer's workload-derived numbers from the
// client's Stats since before (set-up's RPCs are not the workload's) and the
// server's, per unit read.
func remoteLayer(out *outcome, before, cli remote.RemoteStats, srv remote.ServerStats, unitsRead int64) {
	reads := float64(unitsRead)
	rpcs := float64(cli.RPCs - before.RPCs)
	out.layer["remote.rtt_ms_avg"] = ratio(ms(cli.Latency-before.Latency), rpcs)
	out.layer["remote.rpcs_per_unit"] = ratio(rpcs, reads)
	out.layer["remote.bytes_in_per_unit"] = ratio(float64(cli.BytesIn-before.BytesIn), reads)
	out.layer["remote.client_bytes_copied_per_unit"] = ratio(float64(cli.BytesCopied), reads)
	out.layer["remote.server_bytes_copied_per_unit"] = ratio(float64(srv.BytesCopied), reads)
	out.layer["remote.payload_cache_evictions"] = float64(srv.PayloadCacheEvictions)
	out.layer["remote.reader_hit_ratio"] = hitRatio(srv.ReaderHits, srv.ReaderOpens)
	out.layer["remote.retries"] = float64(cli.Retries)
	out.layer["remote.errors"] = float64(cli.Errors + srv.Errors)
}

func (w *scanRemote) teardown() error {
	var err error
	if w.scan != nil {
		err = w.scan.close()
	}
	if w.cli != nil {
		err = closeAfter(err, w.cli.Close)
	}
	if w.srv != nil {
		err = closeAfter(err, w.srv.Close)
	}
	w.scan, w.cli, w.srv = nil, nil, nil
	return err
}
