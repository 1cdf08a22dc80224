// Package platform is a discrete-event model of the paper's two testbeds,
// used to run its experiments deterministically on any host. The paper
// evaluated GODIVA on Engle, a single-processor 2.0 GHz Pentium 4 workstation
// with an IDE disk, and on a Turing cluster node with dual 1 GHz Pentium IIIs,
// and its headline contrast (25–38 % of I/O hidden on one CPU vs 81–91 % on
// two) is a scheduling effect: on one processor the I/O thread's CPU-side
// work steals cycles from computation, on two it runs on the idle processor.
//
// A Machine runs simulated goroutines (Run, Go) one at a time. The running
// goroutine holds the baton until it parks: in a charge (Compute, Decode,
// DiskRead, …), which occupies a CPU or the disk for a span of virtual time,
// or in Wait, which blocks on a channel. Parking passes the baton to the
// runnable goroutine first in (virtual time, spawn order); the clock jumps to
// the earliest pending event only when nothing can run at the current time.
// CPUs are N slots shared round-robin in Spec.Quantum slices, the disk one
// FIFO server. Virtual time is therefore a pure function of the charges —
// real Go computation costs none — and the order of events depends neither
// on GOMAXPROCS nor on the host scheduler. GODIVA itself is ordinary
// concurrent Go code; it blocks through core.Options.Clock, which a Machine
// implements, and only the experiment's read callbacks and compute phases
// charge time here.
package platform

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// Spec describes a simulated platform.
type Spec struct {
	Name   string
	NumCPU int

	// CPUSpeed scales general computation: 1.0 is Engle's 2.0 GHz P4. A
	// task charging d of compute occupies a CPU for d/CPUSpeed.
	CPUSpeed float64

	// RenderSpeed scales the graphics pipeline separately. The paper notes
	// Turing's graphics software made its computation times "impressive
	// given its slower CPUs".
	RenderSpeed float64

	// DiskBandwidth is the sustained transfer rate in bytes per second.
	DiskBandwidth float64

	// DiskSeek is the cost of one seek (repositioning within or across
	// files); DiskOpen is the per-file open overhead.
	DiskSeek time.Duration
	DiskOpen time.Duration

	// DecodeRate is the CPU-side throughput of decoding scientific-format
	// files (bytes per second at CPUSpeed 1.0). The paper observed
	// "relatively low data transfer rates in accessing files written using
	// scientific data libraries such as HDF": much of the input cost is
	// this CPU work, which is exactly the part that cannot be hidden on a
	// single processor.
	DecodeRate float64

	// RawDecodeRate is the CPU-side throughput of reading plain binary
	// files (bytes per second at CPUSpeed 1.0): mostly memory copies, far
	// faster than scientific-format decoding. The paper: files written
	// with scientific data libraries "have at visualization time a higher
	// input cost than do plain binary files".
	RawDecodeRate float64

	// Quantum is the scheduler time slice for round-robin CPU sharing.
	Quantum time.Duration

	// CtxSwitch is charged each time a task had to wait for a CPU token,
	// modeling the context-switch cost the paper blames for the "medium"
	// test's noisier times.
	CtxSwitch time.Duration
}

// Engle models the paper's single-processor Dell Precision 340 workstation:
// 2.0 GHz Pentium 4, 1 GB RDRAM, 80 GB ATA-100 IDE 7200 RPM disk, ext2.
var Engle = Spec{
	Name:          "Engle",
	NumCPU:        1,
	CPUSpeed:      1.0,
	RenderSpeed:   1.0,
	DiskBandwidth: 38e6,
	DiskSeek:      3 * time.Millisecond,
	DiskOpen:      4 * time.Millisecond,
	DecodeRate:    20e6,
	RawDecodeRate: 150e6,
	Quantum:       20 * time.Millisecond,
	CtxSwitch:     60 * time.Microsecond,
}

// Turing models one node of the paper's Turing cluster: dual 1 GHz Pentium
// III, 2 GB memory, REISERFS, Myrinet. General compute is slower than Engle
// but the graphics path is faster (the node has graphics software Engle
// lacks).
var Turing = Spec{
	Name:          "Turing",
	NumCPU:        2,
	CPUSpeed:      0.55,
	RenderSpeed:   1.45,
	DiskBandwidth: 44e6,
	DiskSeek:      2500 * time.Microsecond,
	DiskOpen:      3 * time.Millisecond,
	DecodeRate:    20e6,
	RawDecodeRate: 150e6,
	Quantum:       20 * time.Millisecond,
	CtxSwitch:     50 * time.Microsecond,
}

// DiskStats aggregates the simulated disk's activity; the experiments use
// Bytes to report the paper's I/O-volume reductions.
type DiskStats struct {
	Bytes int64
	Seeks int64
	Opens int64
	Busy  time.Duration // virtual time the disk spent transferring/seeking
}

// epoch is the wall-clock reading of virtual time zero.
var epoch = time.Date(2004, time.March, 30, 0, 0, 0, 0, time.UTC)

// Machine is one simulated platform instance. Its simulated goroutines — the
// function given to Run and every goroutine started with Go — contend for
// the machine's CPUs and disk exactly as the paper's threads contended for
// Engle's and Turing's. Spec, Now, Disk and CPUBusy may be called from any
// goroutine; Go, Wait, Load and the charges only from a simulated one.
type Machine struct {
	spec Spec

	// mu guards everything below. It is never held across a park: the
	// baton, not the mutex, serializes the simulated goroutines.
	mu       sync.Mutex
	now      time.Duration   // virtual time since epoch
	cpuFree  []time.Duration // per CPU: when the last slice granted on it ends
	diskFree time.Duration   // when the last disk request granted ends
	procs    []*proc         // live simulated goroutines, in spawn order
	spawned  int             // simulated goroutines ever started: the next id
	running  *proc           // the baton holder; nil outside Run
	done     chan struct{}   // closed when the current Run's last goroutine exits
	disk     DiskStats
	cpuBusy  time.Duration // virtual CPU time charged (all CPUs)
}

// proc is one simulated goroutine.
type proc struct {
	id     int           // spawn order: the tie-break between equal times
	baton  chan struct{} // the baton arrives here (capacity 1)
	parked bool
	at     time.Duration   // parked in a charge: runnable from this time
	ch     <-chan struct{} // parked in Wait: runnable once ch is closed
}

// New creates a machine for the given spec at virtual time zero. The spec
// needs at least one CPU and a positive quantum.
func New(spec Spec) *Machine {
	if spec.NumCPU < 1 {
		panic("platform: spec needs at least one CPU")
	}
	if spec.Quantum <= 0 {
		panic("platform: spec needs a positive quantum")
	}
	return &Machine{spec: spec, cpuFree: make([]time.Duration, spec.NumCPU)}
}

// Spec returns the machine's platform description.
func (m *Machine) Spec() Spec { return m.spec }

// Now reads the virtual clock: a fixed epoch plus the virtual time elapsed
// on this machine.
func (m *Machine) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return epoch.Add(m.now)
}

// Run runs fn as a simulated goroutine on the calling goroutine and returns
// once fn and every goroutine it started with Go have returned. Runs on one
// machine follow each other, and virtual time carries over between them.
// Rather than hang, Run panics when the simulation stalls: no goroutine can
// run and no charge is pending, so every live goroutine waits on a channel
// that none of them will close.
func (m *Machine) Run(fn func()) {
	m.mu.Lock()
	if m.done != nil {
		m.mu.Unlock()
		panic("platform: Run while the machine is running")
	}
	done := make(chan struct{})
	m.done = done
	p := m.spawnLocked()
	m.wakeLocked(p)
	m.mu.Unlock()
	m.runProc(p, fn)
	<-done
}

// Go starts fn as a simulated goroutine, runnable at the current virtual
// time after every goroutine started before it. The caller keeps the baton.
func (m *Machine) Go(fn func()) {
	m.mu.Lock()
	if m.running == nil {
		m.mu.Unlock()
		panic("platform: Go outside Run")
	}
	p := m.spawnLocked()
	m.mu.Unlock()
	go func() {
		<-p.baton
		m.runProc(p, fn)
	}()
}

// runProc runs fn as p and retires p once fn returns or calls
// runtime.Goexit. A panic leaves p live: the simulation is over.
func (m *Machine) runProc(p *proc, fn func()) {
	defer func() {
		if r := recover(); r != nil {
			panic(r)
		}
		m.exit(p)
	}()
	fn()
}

// Wait blocks the calling simulated goroutine until ch is closed. Only this
// machine's simulated goroutines may close ch, and nothing may be sent on
// it: the machine learns of the wake-up by polling the channel.
func (m *Machine) Wait(ch <-chan struct{}) {
	select {
	case <-ch:
		return
	default:
	}
	m.mu.Lock()
	p := m.running
	p.ch = ch
	m.parkLocked(p)
	m.mu.Unlock()
}

func (m *Machine) spawnLocked() *proc {
	p := &proc{id: m.spawned, baton: make(chan struct{}, 1), parked: true, at: m.now}
	m.spawned++
	m.procs = append(m.procs, p)
	return p
}

// parkLocked parks p, the baton holder, until the event in p.at or p.ch,
// passes the baton on, and returns — with m.mu held again — once the baton
// is back.
func (m *Machine) parkLocked(p *proc) {
	p.parked = true
	next := m.nextLocked()
	if next == p {
		return
	}
	m.mu.Unlock()
	next.baton <- struct{}{}
	<-p.baton
	m.mu.Lock()
}

// exit retires p, the baton holder, and passes the baton on; the last
// goroutine to exit ends the Run.
func (m *Machine) exit(p *proc) {
	m.mu.Lock()
	m.procs = slices.DeleteFunc(m.procs, func(q *proc) bool { return q == p })
	if len(m.procs) == 0 {
		m.running = nil
		close(m.done)
		m.done = nil
		m.mu.Unlock()
		return
	}
	next := m.nextLocked()
	m.mu.Unlock()
	next.baton <- struct{}{}
}

// nextLocked picks the next baton holder: the first parked goroutine in
// spawn order that can run at the current time, after advancing the clock
// to the earliest pending charge if none can. It panics with the parked set
// when nothing will ever run again.
func (m *Machine) nextLocked() *proc {
	for {
		var soonest *proc
		for _, p := range m.procs {
			switch {
			case !p.parked:
			case p.ch != nil:
				select {
				case <-p.ch:
					return m.wakeLocked(p)
				default:
				}
			case p.at <= m.now:
				return m.wakeLocked(p)
			case soonest == nil || p.at < soonest.at:
				soonest = p
			}
		}
		if soonest == nil {
			msg := m.stallLocked()
			m.mu.Unlock()
			panic(msg)
		}
		m.now = soonest.at
	}
}

func (m *Machine) wakeLocked(p *proc) *proc {
	p.parked, p.ch = false, nil
	m.running = p
	return p
}

func (m *Machine) stallLocked() string {
	var b strings.Builder
	fmt.Fprintf(&b, "platform: simulation stalled at %v with no charge pending; parked in Wait:", m.now)
	for _, p := range m.procs {
		fmt.Fprintf(&b, " goroutine %d", p.id)
	}
	return b.String()
}

// sleepLocked parks the baton holder until virtual time t.
func (m *Machine) sleepLocked(t time.Duration) {
	if t <= m.now {
		return
	}
	p := m.running
	p.at = t
	m.parkLocked(p)
}

// Compute occupies one CPU for d of virtual time at CPUSpeed 1.0, scaled by
// the machine's CPU speed, in round-robin quanta. With more runnable
// goroutines than CPUs, each takes proportionally longer, as on a real
// timesharing kernel.
func (m *Machine) Compute(d time.Duration) {
	m.compute(d, m.spec.CPUSpeed)
}

// ComputeRender is Compute on the graphics path (scaled by RenderSpeed).
func (m *Machine) ComputeRender(d time.Duration) {
	m.compute(d, m.spec.RenderSpeed)
}

// Decode charges the CPU-side cost of decoding n bytes of scientific-format
// file data (the paper's HDF overhead). It runs on a CPU like any compute.
func (m *Machine) Decode(n int64) {
	m.decode(n, m.spec.DecodeRate)
}

// DecodeRaw charges the (much smaller) CPU cost of reading n bytes of plain
// binary data: essentially memory copies.
func (m *Machine) DecodeRaw(n int64) {
	rate := m.spec.RawDecodeRate
	if rate <= 0 {
		rate = m.spec.DecodeRate
	}
	m.decode(n, rate)
}

func (m *Machine) decode(n int64, rate float64) {
	if n <= 0 {
		return
	}
	m.compute(time.Duration(float64(n)/rate*float64(time.Second)), m.spec.CPUSpeed)
}

func (m *Machine) compute(d time.Duration, speed float64) {
	if d <= 0 {
		return
	}
	remaining := time.Duration(float64(d) / speed)
	m.mu.Lock()
	m.cpuBusy += remaining
	for remaining > 0 {
		slice := min(remaining, m.spec.Quantum)
		m.onCPULocked(slice)
		remaining -= slice
	}
	m.mu.Unlock()
}

// onCPULocked runs one slice on the CPU that frees first and parks the
// caller until the slice ends. Slices are granted in request order, so a
// request that finds every CPU taken queues behind the slices granted before
// it — round-robin at quantum granularity — and pays CtxSwitch on top.
func (m *Machine) onCPULocked(slice time.Duration) {
	cpu := 0
	for i, free := range m.cpuFree {
		if free < m.cpuFree[cpu] {
			cpu = i
		}
	}
	start := max(m.now, m.cpuFree[cpu])
	if start > m.now {
		slice += m.spec.CtxSwitch
	}
	m.cpuFree[cpu] = start + slice
	m.sleepLocked(start + slice)
}

// DiskRead occupies the disk for the transfer of n bytes plus the given
// number of seeks. The disk is a single FIFO server: concurrent readers
// queue, as on the paper's single-spindle testbeds. Disk transfers do not
// occupy a CPU (DMA); callers charge Decode separately for the CPU-side
// share of input cost.
func (m *Machine) DiskRead(n int64, seeks int) {
	d := time.Duration(float64(n) / m.spec.DiskBandwidth * float64(time.Second))
	d += time.Duration(seeks) * m.spec.DiskSeek
	m.mu.Lock()
	m.disk.Bytes += n
	m.disk.Seeks += int64(seeks)
	m.onDiskLocked(d)
	m.mu.Unlock()
}

// DiskOpen occupies the disk for one file-open overhead.
func (m *Machine) DiskOpen() {
	m.mu.Lock()
	m.disk.Opens++
	m.onDiskLocked(m.spec.DiskOpen)
	m.mu.Unlock()
}

// onDiskLocked serves a request of d after the requests granted before it
// and parks the caller until it completes.
func (m *Machine) onDiskLocked(d time.Duration) {
	m.disk.Busy += d
	m.diskFree = max(m.now, m.diskFree) + d
	m.sleepLocked(m.diskFree)
}

// Disk returns a snapshot of the disk counters.
//
//godiva:noalloc
func (m *Machine) Disk() DiskStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.disk
}

// CPUBusy returns the total virtual CPU time charged so far.
//
//godiva:noalloc
func (m *Machine) CPUBusy() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cpuBusy
}

// Load starts a compute-intensive competing process (the paper's TG1
// configuration ran one alongside Voyager to occupy the second processor).
// It queues for a CPU like any goroutine but runs at a duty cycle below
// 100% — one quantum on a CPU, half a quantum off — the effective share a
// pure spinner gets from a timesharing kernel once the scheduler's dynamic
// priorities boost the sleep-heavy threads (the main thread between waits,
// the I/O thread after disk transfers). The result is the paper's TG1
// behavior: Voyager's computation visibly slows, while the I/O thread still
// keeps up and hiding survives. The process exits at its first pause after
// stop is called; until then the Run it belongs to cannot end.
func (m *Machine) Load() (stop func()) {
	done := make(chan struct{})
	m.Go(func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			m.mu.Lock()
			m.cpuBusy += m.spec.Quantum
			m.onCPULocked(m.spec.Quantum)
			m.sleepLocked(m.now + m.spec.Quantum/2)
			m.mu.Unlock()
		}
	})
	return func() { close(done) }
}
