package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"godiva/internal/shdf"
)

// TestDumpStats dumps a file of two datasets, an attribute and a group with
// -stats and -verify, and checks every object is listed with the range and
// mean its values have: dump reads each dataset once, summarizes the view
// it got, and keeps its file open until every object is read.
func TestDumpStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.shdf")
	w, err := shdf.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.WriteSDS("pressure", []int{2, 3}, []float64{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.WriteSDS("conn", []int{4}, []int32{7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAttr("units", "pascal"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteVGroup("block_0001", []shdf.Ref{p, c}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = wr
	dumpErr := dump(path, true, true)
	os.Stdout = stdout
	wr.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if dumpErr != nil {
		t.Fatalf("dump: %v\n%s", dumpErr, out)
	}
	for _, want := range []string{
		"4 objects",
		"pressure", "min 1  max 6  mean 3.5",
		"conn", "min 7  max 10  mean 8.5",
		`units                              16 bytes  = "pascal"`,
		"block_0001", "2 members",
		"all 4 objects verified OK",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("dump output lacks %q:\n%s", want, out)
		}
	}
}
