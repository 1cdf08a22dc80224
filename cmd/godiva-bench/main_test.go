package main

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"testing"
	"time"
)

// mainEnv, when set, makes the test binary run as godiva-bench itself, so
// the test drives the real command — its flags, its output and its exit
// status — in a child process.
const mainEnv = "GODIVA_BENCH_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The smoke pass of Figure 3(a) exits 0 and prints the figure's table,
// generating its dataset on demand. The child is killed if it runs longer
// than 60 s.
func TestQuickFigure3a(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-quick", "-fig", "3a", "-data", t.TempDir())
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	kill := time.AfterFunc(60*time.Second, func() { cmd.Process.Kill() })
	defer kill.Stop()
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("godiva-bench -quick -fig 3a: %v; stderr:\n%s", err, &stderr)
	}
	row := regexp.MustCompile(`(?m)^Engle\s+medium\s+TG\s+[\d.]+\s+[\d.]+\s+[\d.]+\s+[\d.]+\s+\d+$`)
	if !row.Match(out) {
		t.Fatalf("no Engle medium TG row in:\n%s", out)
	}
}
