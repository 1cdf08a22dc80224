// Package lockbad seeds lockcheck violations: "guarded by" fields touched
// without the mutex and *Locked helpers called from unlocked contexts.
// Every offending line carries a // want comment consumed by lint_test.go.
package lockbad

import "sync"

type table struct {
	mu    sync.RWMutex
	count int    // guarded by mu
	name  string // unguarded: free to access anywhere
}

func (t *table) unlockedRead() int {
	return t.count // want lockcheck `field "count" is guarded by mu but accessed without holding it`
}

func (t *table) writeUnderReadLock() {
	t.mu.RLock()
	t.count++ // want lockcheck `write to field "count" (guarded by mu) while holding only the read lock`
	t.mu.RUnlock()
}

func (t *table) resetLocked() {
	t.count = 0 // fine: *Locked functions start in the locked state
}

func (t *table) sizeRLocked() int {
	return t.count // fine: *RLocked functions start in the read-locked state
}

func (t *table) unlockedHelperCall() {
	t.resetLocked() // want lockcheck `call to resetLocked requires holding the lock`
}

func (t *table) unlockedReadHelperCall() int {
	return t.sizeRLocked() // want lockcheck `call to sizeRLocked requires holding at least the read lock`
}

func (t *table) balanced() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count++
	return t.count
}

func (t *table) snapshot() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.count
}

func (t *table) freeField() string {
	return t.name
}

// The cases below pin down how lock state flows through each control-flow
// shape. Lines without a want must stay silent.

func (t *table) unlockInOneArm(drop bool) int {
	t.mu.Lock()
	if drop {
		t.mu.Unlock()
	} else {
		t.count++ // held on this arm
	}
	return t.count // want lockcheck `field "count" is guarded by mu but accessed without holding it`
}

func (t *table) earlyReturn(skip bool) int {
	t.mu.Lock()
	if skip {
		n := t.count
		t.mu.Unlock()
		return n
	}
	t.count++ // the early return does not merge back: still held
	t.mu.Unlock()
	return 0
}

func (t *table) lockInEveryCase(k int) int {
	switch k {
	case 0:
		t.mu.Lock()
	default:
		t.mu.Lock()
	}
	n := t.count // the default makes every path take the lock
	t.mu.Unlock()
	return n
}

func (t *table) lockInSomeCases(k int) int {
	switch k {
	case 0:
		t.mu.Lock()
	case 1:
		t.mu.Lock()
	}
	n := t.count // want lockcheck `field "count" is guarded by mu but accessed without holding it`
	t.mu.Unlock()
	return n
}

func (t *table) selectUnlocksInOneClause(ch chan int) int {
	t.mu.Lock()
	select {
	case v := <-ch:
		t.mu.Unlock()
		return v
	default:
	}
	n := t.count // only the default clause falls through, still held
	t.mu.Unlock()
	return n
}

func (t *table) selectUnlocksInEveryClause(ch chan int) int {
	t.mu.Lock()
	select {
	case <-ch:
		t.mu.Unlock()
	default:
		t.mu.Unlock()
	}
	return t.count // want lockcheck `field "count" is guarded by mu but accessed without holding it`
}

func (t *table) breakOutOfLockedLoop(xs []int) int {
	t.mu.Lock()
outer:
	for _, x := range xs {
		for {
			if x > 0 {
				break outer
			}
			t.count++ // held on every iteration
			break
		}
	}
	n := t.count // every path out of both loops holds the lock
	t.mu.Unlock()
	return n
}

func (t *table) relockEachIteration(xs []int) {
	t.mu.Lock()
	for range xs {
		t.mu.Unlock()
		t.count++ // want lockcheck `field "count" is guarded by mu but accessed without holding it`
		t.mu.Lock()
	}
	t.count = 0 // the loop body is balanced: still held
	t.mu.Unlock()
}

func (t *table) literalsStartUnheld(done chan struct{}) func() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	go func() {
		use(t.count) // want lockcheck `field "count" is guarded by mu but accessed without holding it`
		close(done)
	}()
	return func() int {
		return t.count // want lockcheck `field "count" is guarded by mu but accessed without holding it`
	}
}

func (t *table) invokedLiteralRunsInPlace() int {
	t.mu.Lock()
	n := func() int { return t.count }() // invoked here, under the lock
	t.mu.Unlock()
	return n + func() int { return t.count }() // want lockcheck `field "count" is guarded by mu but accessed without holding it`
}

func (t *table) rangeOverChannelLocked(ch chan int) {
	t.mu.Lock()
	for v := range ch {
		t.count += v // held on every iteration
	}
	t.mu.Unlock()
}

func use(int) {}

// loopUnlocks drops the lock in the loop body and never takes it back, so
// after any iteration the lock is no longer held.
func (t *table) loopUnlocks(n int) int {
	t.mu.Lock()
	for i := 0; i < n; i++ {
		t.mu.Unlock()
		work()
	}
	return t.count // want lockcheck `field "count" is guarded by mu but accessed without holding it`
}

func work() {}
