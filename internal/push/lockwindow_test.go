//go:build race

package push

import (
	"testing"
	"time"

	"godiva/internal/locktest"
)

// touchLocked writes every field r.mu guards, each subscriber's included,
// with the value each already holds. Caller holds r.mu. Under -race it
// makes locktest.Probe see an access a method makes outside the lock,
// however briefly.
func (r *Registry) touchLocked() {
	for s := range r.subs {
		r.subs[s] = struct{}{}
		s.touchLocked()
	}
	r.subs = locktest.Keep(r.subs)
	r.seq = locktest.Keep(r.seq)
	r.closed = locktest.Keep(r.closed)
	r.publishing = locktest.Keep(r.publishing)
	r.idle = locktest.Keep(r.idle)
	r.published = locktest.Keep(r.published)
	r.delivered = locktest.Keep(r.delivered)
	r.dropped = locktest.Keep(r.dropped)
}

// touchLocked is Registry.touchLocked for one subscriber, registered or
// closed. Caller holds s.reg.mu.
func (s *Subscriber) touchLocked() {
	s.queue = locktest.Keep(s.queue)
	s.changed = locktest.Keep(s.changed)
	s.closed = locktest.Keep(s.closed)
	s.matched = locktest.Keep(s.matched)
	s.consumed = locktest.Keep(s.consumed)
	s.dropped = locktest.Keep(s.dropped)
	s.maxDepth = locktest.Keep(s.maxDepth)
	s.latency = locktest.Keep(s.latency)
}

// TestLockWindows publishes to a drop-oldest and a blocking subscriber
// with one-slot queues, so producers wait for space and consumers for
// events, reads stats, closes a subscriber under a waiting producer and
// closes the registry, all under locktest.Probe on the registry's mutex.
func TestLockWindows(t *testing.T) {
	r := NewRegistry()
	locktest.Probe(func() {
		drop, err := r.Subscribe(Spec{ToStep: -1}, Options{Queue: 1, Policy: DropOldest})
		if err != nil {
			t.Fatal(err)
		}
		block, err := r.Subscribe(Spec{ToStep: -1}, Options{Queue: 1, Policy: Block})
		if err != nil {
			t.Fatal(err)
		}
		consumed := make(chan struct{})
		go func() {
			defer close(consumed)
			for got := 0; got < 6; {
				if _, ok, closed := block.NextTimeout(time.Millisecond); ok {
					got++
				} else if closed {
					t.Error("blocking subscriber closed early")
					return
				}
			}
		}()
		for step := 0; step < 6; step++ {
			if _, err := r.Publish(Event{Step: step}); err != nil {
				t.Error(err)
			}
			drop.Stats()
			r.Stats()
		}
		<-consumed
		drop.NextTimeout(time.Millisecond)
		drop.Close()
		block.Stats()
		r.Close()
		block.Next()
		r.Stats()
	}, locktest.Guard{Mu: &r.mu, Touch: r.touchLocked})

	// A producer waiting for space gives up its place when the subscriber
	// closes under it. The probers touch the subscriber after it has left
	// the registry, too.
	r = NewRegistry()
	full, err := r.Subscribe(Spec{ToStep: -1}, Options{Queue: 1, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	touch := func() {
		r.touchLocked()
		full.touchLocked()
	}
	locktest.Probe(func() {
		published := make(chan struct{})
		go func() {
			defer close(published)
			for step := 0; step < 2; step++ {
				if _, err := r.Publish(Event{Step: step}); err != nil {
					t.Error(err)
				}
			}
		}()
		for r.Stats().Published < 2 {
			time.Sleep(time.Millisecond)
		}
		full.Close()
		<-published
		r.Close()
	}, locktest.Guard{Mu: &r.mu, Touch: touch})
}
