//go:build race

package remote

import (
	"net"
	"testing"
	"time"

	"godiva/internal/genx"
	"godiva/internal/locktest"
	"godiva/internal/push"
)

// The tests in this file run only under -race: they make the race detector
// see an access to a field a client, server or subscription mutex guards
// that a method makes outside the lock, however briefly, by running the
// methods under locktest.Probe (see its doc comment).

func (c *Client) touchLocked() {
	for sub := range c.subs {
		c.subs[sub] = struct{}{}
	}
	c.idle = locktest.Keep(c.idle)
	c.subs = locktest.Keep(c.subs)
	c.rng = locktest.Keep(c.rng)
	c.stats = locktest.Keep(c.stats)
	c.closed = locktest.Keep(c.closed)
}

func (s *Server) touchLocked() {
	for conn := range s.conns {
		s.conns[conn] = struct{}{}
	}
	s.spec = locktest.Keep(s.spec)
	s.conns = locktest.Keep(s.conns)
	s.stats = locktest.Keep(s.stats)
	s.closed = locktest.Keep(s.closed)
}

func touchFramePoolLocked() {
	framePool.idle = locktest.Keep(framePool.idle)
	framePool.bytes = locktest.Keep(framePool.bytes)
}

func (s *Subscription) touchLocked() {
	s.err = locktest.Keep(s.err)
	s.closed = locktest.Keep(s.closed)
}

// TestLockWindows runs a client's and an ingest server's methods — fetch,
// ingest, a subscription delivering an event, retries against a dead
// address, stats and close — under locktest.Probe on every mutex involved,
// the frame pool's included.
// Each round makes its own client and server, so the one-shot windows of
// their Close open once a round.
func TestLockWindows(t *testing.T) {
	dir, paths := ledgerDataset(t, 1)
	payload := LocalPayload(t, dir, paths[0], ledgerVars)
	for round := 0; round < 5; round++ {
		lockWindowsRound(t, dir, paths, payload)
	}
}

func lockWindowsRound(t *testing.T, dir string, paths []string, payload *FilePayload) {
	srv, err := Serve(ServerOptions{Dir: dir, Ingest: true, Heartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(ClientOptions{Addr: srv.Addr()})
	locktest.Probe(func() {
		if err := cli.Ping(); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Spec(); err != nil {
			t.Fatal(err)
		}
		fps, err := cli.FetchFiles(paths, ledgerVars)
		if err != nil {
			t.Fatal(err)
		}
		for _, fp := range fps {
			fp.Recycle()
		}
		sub, err := cli.Subscribe(push.Spec{ToStep: -1}, push.Options{})
		if err != nil {
			t.Fatal(err)
		}
		locktest.Probe(func() {
			if err := cli.Ingest(genx.SnapshotFile("", 1, 0), payload); err != nil {
				t.Fatal(err)
			}
			select {
			case <-sub.Events():
			case <-time.After(10 * time.Second):
				t.Fatal("no event for the ingested file")
			}
			if err := sub.Err(); err != nil {
				t.Fatal(err)
			}
			sub.Close()
			if err := sub.Err(); err == nil {
				t.Fatal("Err after Close = nil")
			}
		}, locktest.Guard{Mu: &sub.mu, Touch: sub.touchLocked})
		cli.Stats()
		srv.Stats()
		srv.Spec()
		if err := cli.Close(); err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}, locktest.Guard{Mu: &cli.mu, Touch: cli.touchLocked}, locktest.Guard{Mu: &srv.mu, Touch: srv.touchLocked},
		locktest.Guard{Mu: &framePool.mu, Touch: touchFramePoolLocked})

	// Retries: every attempt against a closed listener fails, and each
	// retry takes the client's lock for its backoff.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	dead := NewClient(ClientOptions{Addr: addr, MaxRetries: 3, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond})
	locktest.Probe(func() {
		if err := dead.Ping(); err == nil {
			t.Fatal("Ping of a closed listener succeeded")
		}
		dead.Stats()
		if err := dead.Close(); err != nil {
			t.Fatal(err)
		}
	}, locktest.Guard{Mu: &dead.mu, Touch: dead.touchLocked})
}
