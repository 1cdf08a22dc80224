package platform

import (
	"strings"
	"testing"
	"time"
)

// testSpec is a small spec for unit tests: a 5 ms quantum and no
// context-switch charge unless a test sets one.
func testSpec(ncpu int) Spec {
	return Spec{
		Name:          "test",
		NumCPU:        ncpu,
		CPUSpeed:      1.0,
		RenderSpeed:   2.0,
		DiskBandwidth: 100e6,
		DiskSeek:      10 * time.Millisecond,
		DiskOpen:      5 * time.Millisecond,
		DecodeRate:    50e6,
		Quantum:       5 * time.Millisecond,
		CtxSwitch:     0,
	}
}

// run runs fns as simulated goroutines on m, in order, and returns the
// virtual time each one finished at.
func run(m *Machine, fns ...func()) []time.Duration {
	start := m.Now()
	ends := make([]time.Duration, len(fns))
	m.Run(func() {
		for i, fn := range fns {
			m.Go(func() {
				fn()
				ends[i] = m.Now().Sub(start)
			})
		}
	})
	return ends
}

func wantEnds(t *testing.T, what string, got []time.Duration, want ...time.Duration) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: goroutines ended at %v, want %v", what, got, want)
		}
	}
}

func TestComputeDuration(t *testing.T) {
	m := New(testSpec(1))
	wantEnds(t, "Compute(60ms)", run(m, func() { m.Compute(60 * time.Millisecond) }), 60*time.Millisecond)
	if got := m.CPUBusy(); got != 60*time.Millisecond {
		t.Fatalf("CPUBusy = %v, want 60ms", got)
	}
}

func TestComputeSpeedScaling(t *testing.T) {
	spec := testSpec(1)
	spec.CPUSpeed = 2.0 // twice as fast: 80ms of work takes 40ms
	m := New(spec)
	wantEnds(t, "Compute at 2x speed", run(m, func() { m.Compute(80 * time.Millisecond) }), 40*time.Millisecond)
}

func TestRenderSpeedSeparate(t *testing.T) {
	m := New(testSpec(1)) // RenderSpeed 2.0
	wantEnds(t, "ComputeRender at 2x", run(m, func() { m.ComputeRender(80 * time.Millisecond) }), 40*time.Millisecond)
}

// Virtual time costs no wall time: ten seconds of compute, two thousand
// quanta, finish at once.
func TestTimeScale(t *testing.T) {
	m := New(testSpec(1))
	t0 := time.Now()
	wantEnds(t, "Compute(10s)", run(m, func() { m.Compute(10 * time.Second) }), 10*time.Second)
	if wall := time.Since(t0); wall >= 100*time.Millisecond {
		t.Fatalf("10s of virtual compute took %v of wall time", wall)
	}
}

// Two goroutines on one CPU alternate quanta: after the first, every slice
// had to wait and pays a context switch, so two 60ms computes (12 quanta
// each) end at 120ms plus 23 switches. On two CPUs they run in parallel.
func TestCPUContention(t *testing.T) {
	contend := func(ncpu int) []time.Duration {
		spec := testSpec(ncpu)
		spec.CtxSwitch = time.Millisecond
		m := New(spec)
		work := func() { m.Compute(60 * time.Millisecond) }
		return run(m, work, work)
	}
	wantEnds(t, "2 goroutines on 1 CPU", contend(1), 137*time.Millisecond, 143*time.Millisecond)
	wantEnds(t, "2 goroutines on 2 CPUs", contend(2), 60*time.Millisecond, 60*time.Millisecond)
}

// Disk transfers must not occupy a CPU: a compute and a disk read on a
// one-CPU machine overlap fully.
func TestDiskOverlapsCompute(t *testing.T) {
	m := New(testSpec(1))
	ends := run(m,
		func() { m.Compute(80 * time.Millisecond) },
		func() { m.DiskRead(8_000_000, 0) }, // 80ms at 100MB/s
	)
	wantEnds(t, "compute||disk on 1 CPU", ends, 80*time.Millisecond, 80*time.Millisecond)
}

// Two disk readers serialize on the single spindle, in request order.
func TestDiskSerializes(t *testing.T) {
	m := New(testSpec(2))
	read := func() { m.DiskRead(5_000_000, 0) } // 50ms each
	wantEnds(t, "2 disk reads", run(m, read, read), 50*time.Millisecond, 100*time.Millisecond)
	stats := m.Disk()
	if stats.Bytes != 10_000_000 {
		t.Fatalf("Disk.Bytes = %d, want 10000000", stats.Bytes)
	}
	if stats.Busy != 100*time.Millisecond {
		t.Fatalf("Disk.Busy = %v, want 100ms", stats.Busy)
	}
}

func TestDiskSeekAndOpenAccounting(t *testing.T) {
	m := New(testSpec(1))
	ends := run(m, func() {
		m.DiskRead(1_000_000, 3)
		m.DiskOpen()
	})
	s := m.Disk()
	if s.Seeks != 3 || s.Opens != 1 || s.Bytes != 1_000_000 {
		t.Fatalf("disk stats = %+v", s)
	}
	wantBusy := 10*time.Millisecond + 3*10*time.Millisecond + 5*time.Millisecond
	if s.Busy != wantBusy {
		t.Fatalf("Disk.Busy = %v, want %v", s.Busy, wantBusy)
	}
	wantEnds(t, "read+open", ends, wantBusy)
}

func TestDecodeChargesCPU(t *testing.T) {
	m := New(testSpec(1))
	ends := run(m, func() {
		m.Decode(2_500_000) // 50ms at 50MB/s
		m.Decode(0)
	})
	wantEnds(t, "Decode(2.5MB)", ends, 50*time.Millisecond)
	if m.CPUBusy() != 50*time.Millisecond {
		t.Fatalf("CPUBusy = %v after decode", m.CPUBusy())
	}
}

// The paper's key effect: on one CPU a background decode steals cycles from
// computation (they serialize); on two CPUs the decode hides behind it.
func TestDecodeContentionMatchesPaperEffect(t *testing.T) {
	contend := func(ncpu int) []time.Duration {
		m := New(testSpec(ncpu))
		return run(m,
			func() { m.Compute(70 * time.Millisecond) },
			func() { m.Decode(3_500_000) }, // 70ms of CPU
		)
	}
	wantEnds(t, "compute||decode on 1 CPU", contend(1), 135*time.Millisecond, 140*time.Millisecond)
	wantEnds(t, "compute||decode on 2 CPUs", contend(2), 70*time.Millisecond, 70*time.Millisecond)
}

// The competing process runs one quantum on, half a quantum off, and exits
// at its first pause after stop: Run returning is the proof it left.
func TestLoadStops(t *testing.T) {
	m := New(testSpec(2))
	m.Run(func() {
		stop := m.Load()
		m.DiskRead(2_000_000, 0) // 20ms off-CPU: the load's quanta at 0, 7.5 and 15ms
		stop()
	})
	if got := m.CPUBusy(); got != 15*time.Millisecond {
		t.Fatalf("load consumed %v of CPU, want 15ms", got)
	}
	if got := m.Now().Sub(New(testSpec(2)).Now()); got != 22500*time.Microsecond {
		t.Fatalf("load exited at %v, want its pause ending at 22.5ms", got)
	}
}

// Now is the same fixed epoch on every new machine and moves only by what is
// charged.
func TestElapsedUsesScale(t *testing.T) {
	m := New(testSpec(1))
	epoch := New(Turing).Now()
	if got := m.Now(); !got.Equal(epoch) {
		t.Fatalf("new machine reads %v, another %v", got, epoch)
	}
	var inside time.Time
	m.Run(func() {
		m.DiskOpen()
		inside = m.Now()
	})
	if got := inside.Sub(epoch); got != 5*time.Millisecond {
		t.Fatalf("Now after one open = epoch + %v, want + 5ms", got)
	}
	if got := m.Now(); !got.Equal(inside) {
		t.Fatalf("Now outside the run %v, inside %v", got, inside)
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with no CPU did not panic")
		}
	}()
	New(testSpec(0))
}

// A simulation in which every goroutine waits on a channel nobody will close
// panics, naming the parked goroutines, instead of hanging.
func TestStalledSimulationPanics(t *testing.T) {
	m := New(testSpec(1))
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "stalled at 1ms") || !strings.Contains(msg, "goroutine 0 goroutine 1") {
			t.Fatalf("recovered %q, want a stall report at 1ms naming goroutines 0 and 1", msg)
		}
	}()
	m.Run(func() {
		m.Go(func() { m.Wait(make(chan struct{})) })
		m.Compute(time.Millisecond)
		m.Wait(make(chan struct{}))
	})
	t.Fatal("stalled Run returned")
}
