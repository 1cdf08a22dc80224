package remote_test

import (
	"errors"
	"testing"
	"time"

	"godiva/internal/genx"
	"godiva/internal/push"
	"godiva/internal/remote"
)

// startIngestServer serves an initially empty directory with ingest enabled
// and a fast heartbeat, for streaming tests.
func startIngestServer(t *testing.T, faults remote.Faults) *remote.Server {
	t.Helper()
	srv, err := remote.Serve(remote.ServerOptions{
		Dir:       t.TempDir(),
		Ingest:    true,
		Heartbeat: 50 * time.Millisecond,
		Faults:    faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
	})
	return srv
}

// filePayload assembles the FilePayload a streaming producer ingests for one
// (step, file) of the dataset.
func filePayload(blocks []*genx.BlockData) *remote.FilePayload {
	return &remote.FilePayload{
		Time:   blocks[0].Time,
		StepID: blocks[0].StepID,
		Blocks: blocks,
	}
}

// drain consumes a subscription's events until want events have arrived, the
// channel closes, or the timeout expires.
func drain(t *testing.T, sub *remote.Subscription, want int, timeout time.Duration) []push.Event {
	t.Helper()
	var got []push.Event
	deadline := time.After(timeout)
	for len(got) < want {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return got
			}
			got = append(got, ev)
		case <-deadline:
			t.Fatalf("timed out with %d/%d events", len(got), want)
		}
	}
	return got
}

// TestStreamingE2E runs the full push path on the wire: one streaming
// producer ingests a small dataset into an empty server while four
// mixed-policy subscribers listen. Lossless (Block) subscribers must see
// every matched step in order; drop-oldest subscribers must see a monotone
// recent subsequence ending at the final event; the ingested files must then
// serve fetches like generated ones.
func TestStreamingE2E(t *testing.T) {
	srv := startIngestServer(t, remote.Faults{})
	cli := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer cli.Close()

	spec := genx.Scaled(32)
	spec.Snapshots = 6
	total := spec.Snapshots * spec.FilesPerSnapshot

	type subCase struct {
		name   string
		spec   push.Spec
		opts   push.Options
		expect int // events a lossless stream must deliver (total matches)
	}
	cases := []subCase{
		{"lossless-all", push.Spec{ToStep: -1}, push.Options{Policy: push.Block}, total},
		{"lossless-early", push.Spec{ToStep: 2}, push.Options{Policy: push.Block}, 3 * spec.FilesPerSnapshot},
		{"drop-all", push.Spec{ToStep: -1}, push.Options{Policy: push.DropOldest, Queue: 2}, 0},
		{"drop-wide", push.Spec{ToStep: -1}, push.Options{Policy: push.DropOldest}, 0},
	}
	subs := make([]*remote.Subscription, len(cases))
	for i, c := range cases {
		sub, err := cli.Subscribe(c.spec, c.opts)
		if err != nil {
			t.Fatalf("subscribe %s: %v", c.name, err)
		}
		defer sub.Close()
		subs[i] = sub
	}

	var lastPath string
	err := genx.StreamDataset(spec, func(step, file int, blocks []*genx.BlockData) error {
		lastPath = genx.SnapshotFile("", step, file)
		return cli.Ingest(lastPath, filePayload(blocks))
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}

	for i, c := range cases {
		sub := subs[i]
		if c.opts.Policy == push.Block {
			got := drain(t, sub, c.expect, 10*time.Second)
			prev := -1
			for _, ev := range got {
				if !c.spec.Matches(ev) {
					t.Errorf("%s: event (step %d, file %d) does not match %+v", c.name, ev.Step, ev.File, c.spec)
				}
				if int(ev.Seq) <= prev {
					t.Errorf("%s: out-of-order seq %d after %d", c.name, ev.Seq, prev)
				}
				prev = int(ev.Seq)
			}
			continue
		}
		// Drop-oldest streams deliver a suffix of what they matched: every
		// event in order, ending at the newest matched event. Wait for that
		// final event, then check monotonicity.
		final := spec.Snapshots - 1
		var got []push.Event
		deadline := time.After(10 * time.Second)
		for len(got) == 0 || got[len(got)-1].Step != final ||
			got[len(got)-1].File != spec.FilesPerSnapshot-1 {
			select {
			case ev, ok := <-sub.Events():
				if !ok {
					t.Fatalf("%s: stream ended early: %v", c.name, sub.Err())
				}
				got = append(got, ev)
			case <-deadline:
				t.Fatalf("%s: timed out waiting for the final event (have %d)", c.name, len(got))
			}
		}
		prev := uint64(0)
		for _, ev := range got {
			if !c.spec.Matches(ev) {
				t.Errorf("%s: event (step %d, file %d) does not match %+v", c.name, ev.Step, ev.File, c.spec)
			}
			if ev.Seq <= prev {
				t.Errorf("%s: out-of-order seq %d after %d", c.name, ev.Seq, prev)
			}
			prev = ev.Seq
		}
	}

	// The ingested dataset now serves the pull path: the spec grew to cover
	// it and the last landed file fetches cleanly.
	if got := srv.Spec(); got.Snapshots != spec.Snapshots ||
		got.FilesPerSnapshot != spec.FilesPerSnapshot || got.Blocks != spec.Blocks {
		t.Errorf("served spec %+v, want counts from %+v", got, spec)
	}
	fp, err := cli.FetchFile(lastPath, testVars)
	if err != nil {
		t.Fatalf("fetch after ingest: %v", err)
	}
	if len(fp.Blocks) == 0 {
		t.Error("fetched ingested file has no blocks")
	}
	fp.Recycle()

	st := srv.Stats()
	if st.Ingests != int64(total) {
		t.Errorf("Ingests = %d, want %d", st.Ingests, total)
	}
	ps := srv.PushStats()
	if ps.Published != int64(total) {
		t.Errorf("Published = %d, want %d", ps.Published, total)
	}
}

// TestServerCloseSeversSubscriptions checks shutdown ordering: closing the
// server while a subscription is live must unblock its fan-out writer and
// end the client's stream with a typed error.
func TestServerCloseSeversSubscriptions(t *testing.T) {
	srv := startIngestServer(t, remote.Faults{})
	cli := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer cli.Close()

	sub, err := cli.Subscribe(push.Spec{ToStep: -1}, push.Options{Policy: push.Block})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Prove the stream is live, then pull the server out from under it.
	spec := genx.Scaled(32)
	spec.Snapshots = 1
	err = genx.StreamDataset(spec, func(step, file int, blocks []*genx.BlockData) error {
		return cli.Ingest(genx.SnapshotFile("", step, file), filePayload(blocks))
	})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, sub, spec.FilesPerSnapshot, 5*time.Second)

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("server close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server Close hung behind an active subscription")
	}

	select {
	case _, ok := <-sub.Events():
		if ok {
			t.Error("event after server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event channel did not close after server shutdown")
	}
	if err := sub.Err(); !errors.Is(err, remote.ErrSubscriptionLost) {
		t.Errorf("Err() = %v, want ErrSubscriptionLost", err)
	}
}

// TestClientCloseSeversSubscriptions checks the other direction: Client.Close
// ends every subscription it owns, and the typed error reports a deliberate
// local close rather than a lost stream.
func TestClientCloseSeversSubscriptions(t *testing.T) {
	srv := startIngestServer(t, remote.Faults{})
	cli := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})

	sub, err := cli.Subscribe(push.Spec{ToStep: -1}, push.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-sub.Events():
		if ok {
			t.Error("event after client close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event channel did not close after client shutdown")
	}
	if err := sub.Err(); !errors.Is(err, remote.ErrSubscriptionClosed) {
		t.Errorf("Err() = %v, want ErrSubscriptionClosed", err)
	}
	if _, err := cli.Subscribe(push.Spec{}, push.Options{}); !errors.Is(err, remote.ErrClientClosed) {
		t.Errorf("Subscribe after close = %v, want ErrClientClosed", err)
	}
}

// TestStalledSubscriberDropsNotBlocks injects StallFrac faults so every
// event write to one drop-oldest subscriber sleeps, and checks the
// contract for visual streams: the producer is never stalled (ingests stay
// fast), overflow is shed as counted drops, and a concurrent lossless
// subscriber still receives every event in order.
func TestStalledSubscriberDropsNotBlocks(t *testing.T) {
	srv := startIngestServer(t, remote.Faults{
		Seed:      7,
		StallFrac: 1.0,
		Delay:     30 * time.Millisecond,
	})
	cli := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer cli.Close()

	slow, err := cli.Subscribe(push.Spec{ToStep: -1}, push.Options{Policy: push.DropOldest, Queue: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	lossless, err := cli.Subscribe(push.Spec{ToStep: -1}, push.Options{Policy: push.Block, Queue: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer lossless.Close()

	spec := genx.Scaled(32)
	spec.Snapshots = 8
	total := spec.Snapshots * spec.FilesPerSnapshot

	start := time.Now()
	err = genx.StreamDataset(spec, func(step, file int, blocks []*genx.BlockData) error {
		return cli.Ingest(genx.SnapshotFile("", step, file), filePayload(blocks))
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// With every delivery to the slow stream stalled 30ms, a producer that
	// waited on it would need total*30ms (plus I/O); drop-oldest must keep
	// ingest far under that. The lossless writer is also stalled per write,
	// but its queue (64) absorbs the whole burst without backpressure.
	if budget := time.Duration(total) * 30 * time.Millisecond; elapsed >= budget {
		t.Errorf("producer took %v, stalled-subscriber budget %v — backpressure leaked", elapsed, budget)
	}

	got := drain(t, lossless, total, 30*time.Second)
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Errorf("lossless: out-of-order seq %d after %d", got[i].Seq, got[i-1].Seq)
		}
	}

	// The slow stream sheds load: wait for its final event, then check the
	// registry counted the overflow.
	deadline := time.After(30 * time.Second)
	var last push.Event
	for last.Step != spec.Snapshots-1 || last.File != spec.FilesPerSnapshot-1 {
		select {
		case ev, ok := <-slow.Events():
			if !ok {
				t.Fatalf("slow stream ended early: %v", slow.Err())
			}
			if ev.Seq <= last.Seq {
				t.Errorf("slow: out-of-order seq %d after %d", ev.Seq, last.Seq)
			}
			last = ev
		case <-deadline:
			t.Fatalf("timed out waiting for the slow stream's final event (at step %d file %d)", last.Step, last.File)
		}
	}
	if ps := srv.PushStats(); ps.Dropped == 0 {
		t.Errorf("PushStats = %+v, want nonzero Dropped for the stalled stream", ps)
	}
	if st := srv.Stats(); st.FaultsInjected == 0 {
		t.Errorf("Stats = %+v, want injected stall faults", st)
	}
}
