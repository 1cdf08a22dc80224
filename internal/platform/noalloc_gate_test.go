// AllocsPerRun gates for this package's //godiva:noalloc functions (see
// internal/noalloctest). Excluded under -race, whose instrumented runtime
// makes allocation counts meaningless.

//go:build !race

package platform

import (
	"testing"
	"time"

	"godiva/internal/noalloctest"
)

func TestNoAllocGates(t *testing.T) {
	m := New(Engle)
	var (
		ds DiskStats
		d  time.Duration
	)
	noalloctest.Check(t, ".", map[string]func(){
		"Machine.Disk": func() {
			ds = m.Disk()
		},
		"Machine.CPUBusy": func() {
			d = m.CPUBusy()
		},
	})
	if ds.Bytes != 0 || ds.Opens != 0 || d != 0 {
		t.Errorf("idle machine reported activity: disk %+v, cpu %v", ds, d)
	}
}
