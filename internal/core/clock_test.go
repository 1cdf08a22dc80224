package core

import (
	"fmt"
	"testing"
	"time"

	"godiva/internal/platform"
)

// TestClockRunsDatabaseOnMachine runs the paper's batch pattern on a
// simulated Engle with memory for two and a half units: the I/O worker idles
// before the first AddUnit, blocks on memory once it has read two units
// ahead, and exits at Close — every blocking point goes through Options.Clock,
// or the machine would stall or hang. Virtual time is exact: the first wait
// is the first unit's read, and the visible wait core reports is the wait the
// machine measured.
func TestClockRunsDatabaseOnMachine(t *testing.T) {
	const (
		units = 6
		size  = 1 << 20
	)
	m := platform.New(platform.Engle)
	read := func(u *Unit) error {
		m.DiskRead(size, 1)
		m.Decode(size)
		return blobReader(size, nil)(u)
	}
	var (
		waits []time.Duration
		st    Stats
		ws    []IOWorkerStats
	)
	m.Run(func() {
		db := Open(Options{MemoryLimit: 5 * size / 2, BackgroundIO: true, Clock: m})
		defineBlobSchema(t, db)
		m.Compute(time.Millisecond) // the worker finds no work and parks
		for i := 0; i < units; i++ {
			if err := db.AddUnit(fmt.Sprint(i), read); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < units; i++ {
			t0 := m.Now()
			if err := db.WaitUnit(fmt.Sprint(i)); err != nil {
				t.Error(err)
				return
			}
			waits = append(waits, m.Now().Sub(t0))
			m.Compute(200 * time.Millisecond)
			if err := db.DeleteUnit(fmt.Sprint(i)); err != nil {
				t.Error(err)
				return
			}
		}
		st, ws = db.Stats(), db.IOWorkerStats()
		if err := db.Close(); err != nil {
			t.Error(err)
		}
	})
	if len(waits) != units {
		t.Fatalf("run ended after %d waits", len(waits))
	}
	readTime := time.Duration(float64(size)/platform.Engle.DiskBandwidth*float64(time.Second)) +
		platform.Engle.DiskSeek +
		time.Duration(float64(size)/platform.Engle.DecodeRate*float64(time.Second))
	if waits[0] != readTime {
		t.Errorf("first wait %v, want one unit's read %v", waits[0], readTime)
	}
	var total time.Duration
	for _, w := range waits {
		total += w
	}
	if st.VisibleWait != total {
		t.Errorf("Stats.VisibleWait %v, machine measured %v (%v)", st.VisibleWait, total, waits)
	}
	if st.UnitsPrefetched != units || st.Deadlocks != 0 {
		t.Errorf("prefetched %d units with %d deadlocks, want %d and 0", st.UnitsPrefetched, st.Deadlocks, units)
	}
	if ws[0].BlockedTime <= 0 {
		t.Errorf("worker never blocked on memory: %+v", ws[0])
	}
}
