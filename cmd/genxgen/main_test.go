package main

import (
	"bytes"
	"errors"
	"net"
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

// streamFails runs genxgen -stream addr to completion, requires exit
// status 1 with a genxgen: error on stderr and no file reported pushed, and
// returns the error.
func streamFails(t *testing.T, addr string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-stream", addr, "-scale", "32", "-snapshots", "2")
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	kill := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer kill.Stop()
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.HasPrefix(stderr.String(), "genxgen: ") ||
		strings.Contains(stdout.String(), "pushed") {
		t.Fatalf("genxgen -stream %s: %v, want exit status 1 with a genxgen: error and nothing pushed; stdout:\n%s\nstderr:\n%s",
			addr, err, &stdout, &stderr)
	}
	return stderr.String()
}

// A server that takes no ingest refuses the first file, and one that is
// not there fails the ping before any file is generated: either way
// genxgen -stream stops with an error.
func TestGenxgenStreamRefused(t *testing.T) {
	dir := t.TempDir()
	if _, err := genx.WriteDataset(genx.Scaled(32), dir); err != nil {
		t.Fatal(err)
	}
	srv, err := remote.Serve(remote.ServerOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	streamFails(t, srv.Addr())
	if got := srv.Stats().Ingests; got != 0 {
		t.Errorf("a fetch-only server took %d ingests", got)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if msg := streamFails(t, addr); strings.Contains(msg, "ingest") {
		t.Errorf("genxgen -stream to nobody tried an ingest; it must stop at the ping: %s", msg)
	}
}
