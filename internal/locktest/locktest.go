// Package locktest checks lock discipline at run time. A method whose
// deferred Unlock is lost returns with the lock held, and the next call that
// wants the lock waits for ever: without a check, the only failure is the go
// test timeout, minutes later and far from the method at fault. Released
// turns that hang into a failure within seconds. A method that touches a
// guarded field outside its lock races, but often in a window too narrow
// for a race test to hit; Probe makes the race detector see it.
package locktest

import (
	"sync"
	"testing"
	"time"
)

// Timeout bounds the calls Released makes. It is far above what any of the
// in-memory accessors it is used on takes, so only a held lock reaches it.
const Timeout = 5 * time.Second

// Released makes calls in order and fails t unless they all return within
// Timeout. A test passes a method that takes a mutex twice and then another
// that takes the same mutex: a method that returns holding the mutex hangs
// the second call. The calls run on a goroutine of their own, which a hang
// leaves behind, so they report with t.Error, not t.Fatal.
func Released(t testing.TB, calls ...func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, call := range calls {
			call()
		}
	}()
	select {
	case <-done:
	case <-time.After(Timeout):
		t.Fatalf("calls did not return within %v: a mutex is held past a return", Timeout)
	}
}

// Guard is a mutex and a function that writes, with the value each already
// holds, every field the mutex guards. Touch runs with Mu held.
type Guard struct {
	Mu    sync.Locker
	Touch func()
}

// hold is how long a prober keeps its mutex: longer than sync.Mutex's 1 ms
// starvation threshold.
const hold = 1100 * time.Microsecond

// Probe runs script while, for each guard, three goroutines take its mutex
// in turn, call Touch, and hold the mutex for hold, until script returns.
//
// A method that drops a lock around one statement, or calls a function that
// expects the lock without it, leaves a window of a few instructions, and
// two goroutines merely contending for the lock seldom line up with it. The
// probers' long holds put the mutex in starvation mode, where Unlock hands
// the lock straight to the goroutine at the head of its wait queue; with
// three probers one is always queued, so the mode never lapses. A method
// that unlocks therefore lets a prober write every guarded field while the
// method's unlocked statement runs, and the race detector reports the two
// as unordered. Without -race the probers only slow script down.
func Probe(script func(), guards ...Guard) {
	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	for _, g := range guards {
		for range 3 {
			wg.Add(1)
			started.Add(1)
			go func() {
				defer wg.Done()
				for first := true; ; first = false {
					select {
					case <-stop:
						return
					default:
					}
					g.Mu.Lock()
					if first {
						started.Done()
					}
					g.Touch()
					time.Sleep(hold)
					g.Mu.Unlock()
				}
			}()
		}
	}
	// script starts once every prober has had its mutex, so its first lock
	// already queues behind them.
	started.Wait()
	script()
	close(stop)
	wg.Wait()
}

// Keep returns v through a call the compiler does not inline, so that a
// Touch's x = Keep(x) is a store the race detector sees.
//
//go:noinline
func Keep[T any](v T) T { return v }
