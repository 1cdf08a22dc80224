package remote

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"godiva/internal/locktest"
	"godiva/internal/push"
)

// pollFor fails t unless cond holds within 5 s.
func pollFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after 5s waiting until %s", what)
		}
	}
}

// A closed Client leaves no connection open at the server: not the idle
// ones Close finds in its pool, and not the ones a transport error flushed
// from the pool (dropIdle) before that. Two fetches at once fill a
// two-connection pool, a severed exchange then makes the client drop its
// idle connections and redial, and after Close the server must see every
// connection go.
func TestClientCloseLeavesNoServerConn(t *testing.T) {
	dir, paths := ledgerDataset(t, 1)
	srv, err := Serve(ServerOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	relay := startRelay(t, srv, nil, atSeqs(map[int]fault{0: delayBy(200 * time.Millisecond)}))
	c := NewClient(ClientOptions{Addr: relay.Addr(), PoolSize: 2, RetryBase: time.Millisecond, RetryMax: time.Millisecond})
	fetch := func(path string) error {
		fp, err := c.FetchFile(path, ledgerVars)
		if err == nil {
			fp.Recycle()
		}
		return err
	}

	// The first fetch is held at the relay, so the second dials a
	// connection of its own.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := fetch(paths[0]); err != nil {
			t.Error(err)
		}
	}()
	pollFor(t, "the first fetch is held", func() bool { return relay.Stats().Delayed == 1 })
	if err := fetch(paths[1]); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n := srv.openConns(); n != 2 {
		t.Fatalf("server holds %d connections after two concurrent fetches, want 2", n)
	}

	// The third exchange is severed: that connection closes, the idle one
	// is flushed with it, and the retry dials afresh.
	relay.SetDecide(atSeqs(map[int]fault{2: severAfter(16)}))
	if err := fetch(paths[0]); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Retries != 1 || relay.Stats().Severed != 1 {
		t.Fatalf("client stats %+v, relay stats %+v: want one severed exchange, retried once", st, relay.Stats())
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	pollFor(t, "the server holds no connection", func() bool { return srv.openConns() == 0 })
}

// Client.Subscribe dials and waits for the server's answer without the
// client's mutex: while a subscribe waits on a server that never answers,
// Stats and every other call on the client go on.
func TestSubscribeHandshakeLeavesClientFree(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn
		}
	}()
	c := NewClient(ClientOptions{Addr: ln.Addr().String(), RequestTimeout: 10 * time.Second})
	subscribed := make(chan error, 1)
	go func() {
		sub, err := c.Subscribe(push.Spec{ToStep: -1}, push.Options{})
		if err == nil {
			sub.Close()
		}
		subscribed <- err
	}()
	conn := <-accepted // the subscribe now waits for an answer that never comes
	defer conn.Close()

	stats := make(chan struct{})
	go func() {
		c.Stats()
		close(stats)
	}()
	select {
	case <-stats:
	case <-time.After(2 * time.Second):
		t.Fatal("Stats waited for a subscribe handshake: the handshake holds the client's mutex")
	}
	conn.Close()
	if err := <-subscribed; err == nil {
		t.Error("a subscribe the server hung up on succeeded")
	}
	if err := c.Close(); err != nil {
		t.Error(err)
	}
}

// TestMethodsReleaseRemoteLocks calls each method that takes a server,
// client, subscription or frame-pool mutex and gives it back with a deferred Unlock
// twice, then takes the same mutex through another method. A method that
// returns holding its mutex hangs the second call, and locktest.Released
// fails the subtest within seconds.
func TestMethodsReleaseRemoteLocks(t *testing.T) {
	dir, _ := ledgerDataset(t, 1)
	srv, err := Serve(ServerOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(ClientOptions{Addr: srv.Addr()})
	sub, err := c.Subscribe(push.Spec{ToStep: -1}, push.Options{})
	if err != nil {
		t.Fatal(err)
	}

	calls := []struct {
		name        string
		call, after func()
	}{
		{"Server.Spec", func() { srv.Spec() }, func() { srv.Stats() }},
		{"Server.Stats", func() { srv.Stats() }, func() { srv.Spec() }},
		{"Client.Stats", func() { c.Stats() }, func() { c.Stats() }},
		{"putArena", func() { putArena(&frameArena{buf: alignedFrameBuf(8)}) }, func() { takeIdleArena(8) }},
		{"takeIdleArena", func() { takeIdleArena(8) }, func() { putArena(&frameArena{buf: alignedFrameBuf(8)}) }},
		{"Subscription.Err", func() {
			if err := sub.Err(); err != nil {
				t.Errorf("live subscription: Err = %v", err)
			}
		}, func() { sub.Err() }},
		{"Subscription.fail", func() { sub.fail(errors.New("test")) }, func() {
			if err := sub.Err(); !errors.Is(err, ErrSubscriptionLost) {
				t.Errorf("after fail: Err = %v, want ErrSubscriptionLost", err)
			}
		}},
	}
	for _, tc := range calls {
		if !t.Run(tc.name, func(t *testing.T) {
			locktest.Released(t, tc.call, tc.call, tc.after)
		}) {
			return // the rows share one server, client and subscription, now locked
		}
	}
	locktest.Released(t, func() {
		sub.Close()
		if err := errors.Join(c.Close(), srv.Close()); err != nil {
			t.Error(err)
		}
	})
}
