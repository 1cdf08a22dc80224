//go:build race

package platform

import (
	"strings"
	"testing"
	"time"

	"godiva/internal/locktest"
)

// touchLocked writes every field m.mu guards, each simulated goroutine's
// included, with the value each already holds. Caller holds m.mu. Under
// -race it makes locktest.Probe see an access a method makes outside the
// lock, however briefly.
func (m *Machine) touchLocked() {
	for _, p := range m.procs {
		p.parked = locktest.Keep(p.parked)
		p.at = locktest.Keep(p.at)
		p.ch = locktest.Keep(p.ch)
	}
	for i := range m.cpuFree {
		m.cpuFree[i] = locktest.Keep(m.cpuFree[i])
	}
	m.now = locktest.Keep(m.now)
	m.cpuFree = locktest.Keep(m.cpuFree)
	m.diskFree = locktest.Keep(m.diskFree)
	m.procs = locktest.Keep(m.procs)
	m.spawned = locktest.Keep(m.spawned)
	m.running = locktest.Keep(m.running)
	m.done = locktest.Keep(m.done)
	m.disk = locktest.Keep(m.disk)
	m.cpuBusy = locktest.Keep(m.cpuBusy)
}

// TestLockWindows runs simulated goroutines through every charge, a Wait,
// a Load spinner and the counters, on one CPU and on two, and then into a
// stall, under locktest.Probe on the machine's mutex. The probers run outside the
// simulation: they only delay the baton holder's next lock.
func TestLockWindows(t *testing.T) {
	for _, spec := range []Spec{Engle, Turing} {
		m := New(spec)
		locktest.Probe(func() {
			m.Run(func() {
				stop := m.Load()
				gate := make(chan struct{})
				done := make(chan struct{})
				m.Go(func() {
					defer close(done)
					m.Wait(gate)
					m.Compute(time.Millisecond)
					m.DiskOpen()
				})
				for i := 0; i < 3; i++ {
					m.Compute(100 * time.Microsecond)
					m.ComputeRender(100 * time.Microsecond)
					m.Decode(1000)
					m.DecodeRaw(1000)
					m.DiskRead(4096, 1)
					m.Now()
					m.Disk()
					m.CPUBusy()
				}
				close(gate)
				m.Wait(done)
				stop()
			})
		}, locktest.Guard{Mu: &m.mu, Touch: m.touchLocked})
	}

	// A stall names the parked goroutines under the lock before Run panics
	// (the shape of TestStalledSimulationPanics).
	m := New(Engle)
	locktest.Probe(func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "stalled") {
				t.Errorf("recovered %q, want a stall report", msg)
			}
		}()
		m.Run(func() {
			m.Go(func() { m.Wait(make(chan struct{})) })
			m.Compute(time.Millisecond)
			m.Wait(make(chan struct{}))
		})
	}, locktest.Guard{Mu: &m.mu, Touch: m.touchLocked})
}
