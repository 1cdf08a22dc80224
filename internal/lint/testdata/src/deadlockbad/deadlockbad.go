// Package deadlockbad seeds deliberate §3.3 deadlock hazards for the
// deadlockcheck analyzer: a two-lock order cycle, direct blocking
// operations under a mutex, a blocking call reached interprocedurally
// while a lock is held, and functions that return holding a lock they
// took. The conforming shapes (unlock-before-block, deferred releases)
// appear too and must stay silent.
package deadlockbad

import (
	"io"
	"sync"
	"time"
)

type pair struct {
	a  sync.Mutex
	b  sync.Mutex
	ch chan int
}

// lockAB establishes the order a -> b ...
func (p *pair) lockAB() {
	p.a.Lock()
	p.b.Lock() // want deadlockcheck `completes a lock-order cycle`
	p.b.Unlock()
	p.a.Unlock()
}

// ... while lockBA establishes b -> a, closing the cycle.
func (p *pair) lockBA() {
	p.b.Lock()
	p.a.Lock() // want deadlockcheck `completes a lock-order cycle`
	p.a.Unlock()
	p.b.Unlock()
}

func (p *pair) sleepUnderLock() {
	p.a.Lock()
	time.Sleep(time.Millisecond) // want deadlockcheck `time.Sleep while holding`
	p.a.Unlock()
}

func (p *pair) recvUnderLock() {
	p.a.Lock()
	<-p.ch // want deadlockcheck `channel receive while holding`
	p.a.Unlock()
}

// slowHelper blocks but takes no lock itself: silent here ...
func (p *pair) slowHelper() {
	time.Sleep(time.Millisecond)
}

// ... and flagged at the call site that reaches it with a lock held.
func (p *pair) callsHelperUnderLock() {
	p.a.Lock()
	p.slowHelper() // want deadlockcheck `may block`
	p.a.Unlock()
}

// unlockBeforeBlock is the conforming idiom (reserveLocked's shape): the
// lock is dropped before the wait, so nothing is reported.
func (p *pair) unlockBeforeBlock() {
	p.a.Lock()
	p.a.Unlock()
	<-p.ch
	p.a.Lock()
	p.a.Unlock()
}

// The cases below pin down how the held set flows through each control-flow
// shape. Lines without a want must stay silent.

func (p *pair) unlockInOneArm(drop bool) {
	p.a.Lock()
	if drop {
		p.a.Unlock()
	} else {
		<-p.ch // want deadlockcheck `channel receive while holding pair.a`
		p.a.Unlock()
	}
	<-p.ch // released on both arms
}

// heldOnOneArm keeps a on the path that skips the branch, so the receive
// can wait under it.
func (p *pair) heldOnOneArm(drop bool) {
	p.a.Lock()
	if drop {
		p.a.Unlock()
	}
	<-p.ch // want deadlockcheck `channel receive while holding pair.a`
} // want deadlockcheck `returns holding pair.a`

func (p *pair) earlyReturn(skip bool) {
	p.a.Lock()
	if skip {
		p.a.Unlock()
		return
	}
	<-p.ch // want deadlockcheck `channel receive while holding pair.a`
	p.a.Unlock()
}

func (p *pair) lockInEveryCase(k int) {
	switch k {
	case 0:
		p.a.Lock()
	default:
		p.a.Lock()
	}
	p.ch <- k // want deadlockcheck `channel send while holding pair.a`
	p.a.Unlock()
}

// lockInSomeCases takes a in two of the three paths through the switch,
// so the send can wait under it.
func (p *pair) lockInSomeCases(k int) {
	switch k {
	case 0:
		p.a.Lock()
	case 1:
		p.a.Lock()
	}
	p.ch <- k // want deadlockcheck `channel send while holding pair.a`
} // want deadlockcheck `returns holding pair.a`

func (p *pair) switchWithoutDefault(k int) {
	p.a.Lock()
	switch k {
	case 0:
		<-p.ch // want deadlockcheck `channel receive while holding pair.a`
	case 1:
		p.a.Unlock()
		return
	}
	p.a.Unlock()
}

func (p *pair) selectWithoutDefault() {
	p.a.Lock()
	select { // want deadlockcheck `select without default while holding pair.a`
	case v := <-p.ch: // the comm is the select's own wait, not a second one
		use(v)
	case p.ch <- 1:
	}
	p.a.Unlock()
}

func (p *pair) selectWithDefault() {
	p.a.Lock()
	select {
	case <-p.ch: // a select with a default never waits
		p.slowHelper() // want deadlockcheck `call to pair.slowHelper may block (time.Sleep) while holding pair.a`
	default:
	}
	p.a.Unlock()
}

func (p *pair) breakOutOfLockedLoop(xs []int) {
	p.a.Lock()
loop:
	for _, x := range xs {
		switch x {
		case 0:
			break loop
		}
	}
	<-p.ch // want deadlockcheck `channel receive while holding pair.a`
	p.a.Unlock()
}

// firstIterationHolds enters the loop holding a and drops it in the body:
// the first receive waits under the lock, later ones do not.
func (p *pair) firstIterationHolds(n int) {
	p.a.Lock()
	for i := 0; i < n; i++ {
		<-p.ch // want deadlockcheck `channel receive while holding pair.a`
		p.a.Unlock()
	}
} // want deadlockcheck `returns holding pair.a`

func (p *pair) literalsStartUnheld() func() {
	p.a.Lock()
	defer p.a.Unlock()
	go func() {
		<-p.ch // a goroutine starts with no locks held
	}()
	return func() {
		<-p.ch // a stored literal runs later, with no locks held
	}
}

func (p *pair) invokedLiteralRunsInPlace() {
	p.a.Lock()
	func() {
		<-p.ch // want deadlockcheck `channel receive while holding pair.a`
	}()
	p.a.Unlock()
}

func (p *pair) deferredLiteralRunsInPlace() {
	p.a.Lock()
	defer p.a.Unlock()
	defer func() {
		time.Sleep(time.Millisecond) // want deadlockcheck `time.Sleep while holding pair.a`
	}()
}

func (p *pair) rangeOverChannelLocked() {
	p.a.Lock()
	for v := range p.ch { // want deadlockcheck `range over channel while holding pair.a`
		use(v)
	}
	p.a.Unlock()
}

// store reads through an io.ReaderAt, which may be a file.
type store struct {
	mu sync.Mutex
	r  io.ReaderAt
}

func (s *store) readUnderLock(buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.r.ReadAt(buf, 0) // want deadlockcheck `I/O (io.ReaderAt.ReadAt) while holding store.mu`
	return err
}

// The cases below pin down the leak rule: a function not named *Locked
// must not return holding a lock it took.

func (s *store) leaksOnEmpty(buf []byte) error {
	s.mu.Lock()
	if len(buf) == 0 {
		return io.ErrUnexpectedEOF // want deadlockcheck `returns holding store.mu, which store.leaksOnEmpty did not hold on entry`
	}
	s.mu.Unlock()
	return nil
}

// deferredHelperReleases is ReadUnit's shape: the deferred *Locked helper
// releases the lock on every path, so the return is balanced.
func (s *store) deferredHelperReleases() {
	s.mu.Lock()
	defer s.endLocked()
}

func (s *store) endLocked() {
	s.mu.Unlock()
}

func (s *store) deferredLiteralReleases() {
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
	}()
}

func use(int) {}
