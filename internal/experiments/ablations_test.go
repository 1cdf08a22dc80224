package experiments

import (
	"bytes"
	"strings"
	"testing"

	"godiva/internal/rocketeer"
)

func TestRunGranularity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	s := testSetup(t)
	test, _ := rocketeer.TestByName("simple")
	rows, err := RunGranularity(s, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	snap, file := rows[0], rows[1]
	if snap.Unit != "snapshot" || file.Unit != "file" {
		t.Fatalf("rows = %q, %q", snap.Unit, file.Unit)
	}
	// File units are finer: there must be FilesPerSnapshot times as many.
	if file.UnitsRead != snap.UnitsRead*int64(s.Spec.FilesPerSnapshot) {
		t.Fatalf("file units %d, snapshot units %d (x%d files)",
			file.UnitsRead, snap.UnitsRead, s.Spec.FilesPerSnapshot)
	}
	if snap.Total <= 0 || file.Total <= 0 {
		t.Fatal("empty totals")
	}
	var buf bytes.Buffer
	PrintGranularity(&buf, rows)
	if !strings.Contains(buf.String(), "snapshot") || !strings.Contains(buf.String(), "file") {
		t.Fatalf("table: %s", buf.String())
	}
}

func TestRunMemorySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	s := testSetup(t)
	test, _ := rocketeer.TestByName("simple")
	rows, err := RunMemorySweep(s, test, []float64{1.7, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	tight, roomy := rows[0], rows[1]
	if tight.Deadlocks != 0 || roomy.Deadlocks != 0 {
		t.Fatalf("deadlocks in sweep: %+v %+v", tight, roomy)
	}
	// A tight cap cannot beat a roomy one: prefetch depth is bounded by
	// memory (paper §3.2).
	if tight.VisibleIO < roomy.VisibleIO {
		t.Fatalf("tight cap visible I/O %v below roomy %v", tight.VisibleIO, roomy.VisibleIO)
	}
	var buf bytes.Buffer
	PrintMemorySweep(&buf, rows)
	if !strings.Contains(buf.String(), "cap") {
		t.Fatalf("table: %s", buf.String())
	}
}

func TestRunFormatComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	s := testSetup(t)
	rows, err := RunFormatComparison(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	shdfRow, plain := rows[0], rows[1]
	// The paper's claim: the scientific format costs more to read.
	if shdfRow.Read <= plain.Read {
		t.Fatalf("SHDF read %v <= plain %v", shdfRow.Read, plain.Read)
	}
	// Same payload order of magnitude (plain lacks per-object overheads).
	ratio := shdfRow.MBRead / plain.MBRead
	if ratio < 0.8 || ratio > 1.6 {
		t.Fatalf("byte ratio SHDF/plain = %.2f", ratio)
	}
	var buf bytes.Buffer
	PrintFormatComparison(&buf, rows)
	if !strings.Contains(buf.String(), "plain binary") {
		t.Fatalf("table: %s", buf.String())
	}
}
