package platform

import (
	"testing"
	"time"
)

// TestConcurrentMachineCounters drives the machine from many simulated
// goroutines at once — disk reads and opens queueing on the one disk,
// compute and decode queueing behind a Load spinner on Engle's one CPU, and
// the Disk/CPUBusy snapshots read between charges — and checks that no
// update was lost and that the run ends where the disk says it must. Under
// -race (verify.sh race-core) it also checks the baton hand-off orders every
// counter access.
func TestConcurrentMachineCounters(t *testing.T) {
	const (
		workers   = 8
		iters     = 25
		readBytes = 512
		ops       = workers * iters
	)
	m := New(Engle)
	var end time.Duration
	m.Run(func() {
		stop := m.Load()
		left := workers
		finished := make(chan struct{})
		for w := 0; w < workers; w++ {
			m.Go(func() {
				for i := 0; i < iters; i++ {
					m.Compute(50 * time.Microsecond)
					m.Decode(1000)
					m.DiskRead(readBytes, 1)
					m.DiskOpen()
					if ds := m.Disk(); ds.Bytes < 0 {
						t.Error("negative disk bytes")
					}
					if m.CPUBusy() < 0 {
						t.Error("negative cpu busy")
					}
				}
				if left--; left == 0 {
					close(finished)
				}
			})
		}
		m.Wait(finished)
		end = m.Now().Sub(New(Engle).Now())
		stop()
	})

	ds := m.Disk()
	if got, want := ds.Bytes, int64(ops*readBytes); got != want {
		t.Errorf("disk bytes = %d, want %d", got, want)
	}
	if got, want := ds.Seeks, int64(ops); got != want {
		t.Errorf("disk seeks = %d, want %d", got, want)
	}
	if got, want := ds.Opens, int64(ops); got != want {
		t.Errorf("disk opens = %d, want %d", got, want)
	}
	perRead := time.Duration(float64(readBytes)/Engle.DiskBandwidth*float64(time.Second)) + Engle.DiskSeek
	if got, want := ds.Busy, ops*(perRead+Engle.DiskOpen); got != want {
		t.Errorf("disk busy = %v, want %v", got, want)
	}
	// 200 x (50µs compute + 50µs decode), plus whole quanta of the spinner.
	work := ops * 100 * time.Microsecond
	if got := m.CPUBusy(); got <= work || (got-work)%Engle.Quantum != 0 {
		t.Errorf("cpu busy = %v, want %v plus a positive number of %v quanta", got, work, Engle.Quantum)
	}
	// The spinner takes the CPU first; every worker's first compute then
	// queues behind it and behind the computes granted before it (each
	// paying a context switch), and worker 0's decode after all of them.
	// From there the disk never idles, and each worker ends on a disk op.
	firstRead := Engle.Quantum + (workers+1)*(50*time.Microsecond+Engle.CtxSwitch)
	if want := firstRead + ds.Busy; end != want {
		t.Errorf("workers finished at %v, want %v", end, want)
	}
}
