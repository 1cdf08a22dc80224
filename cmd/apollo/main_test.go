package main

import (
	"bytes"
	"errors"
	"net"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"

	"godiva/internal/genx"
	"godiva/internal/remote"
)

// mainEnv, when set, makes the test binary run as apollo itself, so the
// tests drive the real command — its flags, its output and its exit status —
// in a child process.
const mainEnv = "APOLLO_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// apollo runs the command with args, requires exit status 0 and a stdout
// line matching pattern, and returns the match's submatches. The child is
// killed if it runs longer than 30 s.
func apollo(t *testing.T, pattern string, args ...string) []string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	kill := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer kill.Stop()
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("apollo %s: %v; stderr:\n%s", strings.Join(args, " "), err, &stderr)
	}
	m := regexp.MustCompile("(?m)" + pattern).FindStringSubmatch(string(out))
	if m == nil {
		t.Fatalf("apollo %s: no line matches %q in:\n%s", strings.Join(args, " "), pattern, out)
	}
	return m
}

// writeToy writes the smoke tests' dataset: 2 snapshots of the 1/32-scale
// mesh.
func writeToy(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	spec := genx.Scaled(32)
	spec.Snapshots = 2
	if _, err := genx.WriteDataset(spec, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// The built-in demo over a local dataset revisits steps it has viewed, so
// its closing stats report cache hits.
func TestApolloDemo(t *testing.T) {
	m := apollo(t, `^stats: (\d+) units read, (\d+) cache hits, `,
		"-data", writeToy(t), "-out", t.TempDir(), "-width", "64", "-height", "48")
	if m[1] != "2" || m[2] == "0" {
		t.Errorf("demo read %s units with %s cache hits, want 2 units and some hits", m[1], m[2])
	}
}

// The demo over a godivad fetches its units over the wire.
func TestApolloRemote(t *testing.T) {
	srv, err := remote.Serve(remote.ServerOptions{Dir: writeToy(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m := apollo(t, `^remote: (\d+) fetches, `,
		"-remote", srv.Addr(), "-out", t.TempDir(), "-width", "64", "-height", "48")
	if m[1] == "0" {
		t.Error("the remote session fetched nothing")
	}
}

// A godivad that is not there: apollo -remote reports the failed spec
// request and exits 1 before it opens a session.
func TestApolloRemoteUnreachable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(os.Args[0], "-remote", addr, "-out", t.TempDir())
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	kill := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer kill.Stop()
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.HasPrefix(stderr.String(), "apollo: ") || stdout.Len() != 0 {
		t.Fatalf("apollo -remote %s: %v, want exit status 1 with an apollo: error and no output; stdout:\n%s\nstderr:\n%s",
			addr, err, &stdout, &stderr)
	}
}
