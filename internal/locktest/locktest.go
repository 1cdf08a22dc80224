// Package locktest checks at run time that a method gives back the mutex it
// takes. A method whose deferred Unlock is lost returns with the lock held,
// and the next call that wants the lock waits for ever: without a check,
// the only failure is the go test timeout, minutes later and far from the
// method at fault. Released turns that hang into a failure within seconds.
package locktest

import (
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
