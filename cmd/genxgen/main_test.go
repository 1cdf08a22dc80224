package main

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"godiva/internal/genx"
	"godiva/internal/remote"
)

// mainEnv, when set, makes the test binary run as genxgen itself, so the
// tests drive the real command — its flags, its output and its exit status —
// in a child process.
const mainEnv = "GENXGEN_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// genxgen runs the command with args, requires exit status 0 and a stdout
// line matching pattern, and returns the match's submatches. The child is
// killed if it runs longer than 30 s.
func genxgen(t *testing.T, pattern string, args ...string) []string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	kill := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer kill.Stop()
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("genxgen %s: %v; stderr:\n%s", strings.Join(args, " "), err, &stderr)
	}
	m := regexp.MustCompile("(?m)" + pattern).FindStringSubmatch(string(out))
	if m == nil {
		t.Fatalf("genxgen %s: no line matches %q in:\n%s", strings.Join(args, " "), pattern, out)
	}
	return m
}

// genxgen -out writes a dataset that genx.Discover reads back with the
// requested shape.
func TestGenxgenWritesDataset(t *testing.T) {
	dir := t.TempDir()
	genxgen(t, `^wrote .*: \d+ block meshes, \d+ nodes total`, "-out", dir, "-scale", "32", "-snapshots", "2")
	spec, err := genx.Discover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := genx.Scaled(32); spec.Snapshots != 2 || spec.FilesPerSnapshot != want.FilesPerSnapshot {
		t.Errorf("discovered %d snapshots x %d files, want 2 x %d", spec.Snapshots, spec.FilesPerSnapshot, want.FilesPerSnapshot)
	}
}

// genxgen -stream pushes every snapshot file to an ingest server, one
// ingest each.
func TestGenxgenStreams(t *testing.T) {
	srv, err := remote.Serve(remote.ServerOptions{Dir: t.TempDir(), Ingest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m := genxgen(t, `^streamed (\d+) files to `, "-stream", srv.Addr(), "-scale", "32", "-snapshots", "2")
	sent, _ := strconv.Atoi(m[1])
	if want := 2 * genx.Scaled(32).FilesPerSnapshot; sent != want {
		t.Errorf("streamed %d files, want %d", sent, want)
	}
	if got := srv.Stats().Ingests; got != int64(sent) {
		t.Errorf("the server took %d ingests for %d files streamed", got, sent)
	}
}
