package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"godiva/internal/shdf"
)

// mainEnv, when set, makes the test binary run as shdfinfo itself, so a
// test drives the real command — its flags, its output and its exit status —
// in a child process.
const mainEnv = "SHDFINFO_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeSample writes a file of two datasets, an attribute and a group.
func writeSample(t *testing.T, path string) {
	t.Helper()
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
}

// TestDumpStats dumps a file of two datasets, an attribute and a group with
// -stats and -verify, and checks every object is listed with the range and
// mean its values have: dump reads each dataset once, summarizes the view
// it got, and keeps its file open until every object is read.
func TestDumpStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.shdf")
	writeSample(t, path)

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

// shdfinfo runs the command with args and returns its exit status, stdout
// and stderr. The child is killed if it runs longer than 30 s.
func shdfinfo(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	kill := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer kill.Stop()
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatalf("shdfinfo %s: %v", strings.Join(args, " "), err)
	return -1, "", ""
}

// The README's command line runs as a command: -stats -verify on a good
// file exits 0 with a stats line, no file is a usage error (exit 2), and a
// truncated file exits 1 naming the file on stderr.
func TestShdfinfoCommand(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.shdf")
	writeSample(t, good)
	code, out, stderr := shdfinfo(t, "-stats", "-verify", good)
	if code != 0 {
		t.Fatalf("shdfinfo -stats -verify exited %d; stderr:\n%s", code, stderr)
	}
	if !regexp.MustCompile(`(?m)^ +float64 dims \[2 3\] +min 1 +max 6 +mean 3\.5$`).MatchString(out) {
		t.Errorf("no stats line for pressure in:\n%s", out)
	}

	code, _, stderr = shdfinfo(t)
	if code != 2 || !strings.Contains(stderr, "usage: shdfinfo [-stats] [-verify] file.shdf...") {
		t.Errorf("shdfinfo with no file exited %d, want 2 with the usage line; stderr:\n%s", code, stderr)
	}

	img, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "truncated.shdf")
	if err := os.WriteFile(bad, img[:len(img)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = shdfinfo(t, "-stats", "-verify", bad)
	if code != 1 || !strings.HasPrefix(stderr, "shdfinfo: "+bad+": ") {
		t.Errorf("shdfinfo on a truncated file exited %d, want 1 with \"shdfinfo: %s: \" on stderr; got:\n%s", code, bad, stderr)
	}
}
