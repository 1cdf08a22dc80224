package platform

import (
	"testing"

	"godiva/internal/locktest"
)

// TestAccessorsReleaseMachineLock calls each accessor that takes m.mu and
// gives it back with a deferred Unlock twice, then takes m.mu through Now.
// An accessor that returns holding m.mu hangs the second call, and
// locktest.Released fails the subtest within seconds.
func TestAccessorsReleaseMachineLock(t *testing.T) {
	calls := []struct {
		name string
		call func(m *Machine)
	}{
		{"Now", func(m *Machine) { m.Now() }},
		{"Disk", func(m *Machine) { m.Disk() }},
		{"CPUBusy", func(m *Machine) { m.CPUBusy() }},
	}
	for _, c := range calls {
		t.Run(c.name, func(t *testing.T) {
			m := New(testSpec(1))
			call := func() { c.call(m) }
			locktest.Released(t, call, call, func() { m.Now() })
		})
	}
}
