package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"godiva/internal/genx"
	"godiva/internal/remote"
	"godiva/internal/rocketeer"
)

// mainEnv, when set, makes the test binary run as voyager itself, so the
// tests drive the real command — its flags, its output and its exit status —
// in a child process.
const mainEnv = "VOYAGER_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// start starts voyager with args; its stdout and stderr collect in the
// returned buffers. The child is killed if it runs longer than 30 s.
func start(t *testing.T, args ...string) (*exec.Cmd, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	kill := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	t.Cleanup(func() { kill.Stop() })
	return cmd, &stdout, &stderr
}

// voyager runs the command to completion, requires exit status 0 and a
// stdout line matching pattern, and returns the match's submatches.
func voyager(t *testing.T, pattern string, args ...string) []string {
	t.Helper()
	cmd, stdout, stderr := start(t, args...)
	return finish(t, cmd, stdout, stderr, pattern)
}

func finish(t *testing.T, cmd *exec.Cmd, stdout, stderr *bytes.Buffer, pattern string) []string {
	t.Helper()
	if err := cmd.Wait(); err != nil {
		t.Fatalf("voyager %s: %v; stderr:\n%s", strings.Join(cmd.Args[1:], " "), err, stderr)
	}
	m := regexp.MustCompile("(?m)" + pattern).FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("voyager %s: no line matches %q in:\n%s", strings.Join(cmd.Args[1:], " "), pattern, stdout)
	}
	return m
}

// toy is the smoke tests' dataset: 2 snapshots of the 1/32-scale mesh.
func toy() genx.Spec {
	spec := genx.Scaled(32)
	spec.Snapshots = 2
	return spec
}

func writeToy(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := genx.WriteDataset(toy(), dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func serve(t *testing.T, opts remote.ServerOptions) *remote.Server {
	t.Helper()
	srv, err := remote.Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	})
	return srv
}

// The README's local runs: the TG build over a dataset directory writes one
// image per pass per snapshot, and -trace adds the unit timeline.
func TestVoyagerLocal(t *testing.T) {
	data := writeToy(t)
	simple, _ := rocketeer.TestByName("simple")
	want := fmt.Sprint(toy().Snapshots * len(simple.Ops))
	m := voyager(t, `^simple/TG: (\d+) images$`,
		"-data", data, "-out", t.TempDir(), "-version", "TG", "-width", "64", "-height", "48")
	if m[1] != want {
		t.Errorf("wrote %s images, want %s (every pass over every snapshot)", m[1], want)
	}
	voyager(t, `^\s+[\d.]+\s+snap_0001\s+\S+ -> ready$`,
		"-data", data, "-out", "", "-version", "TG", "-trace", "-width", "64", "-height", "48")
}

// The README's remote run: units come from a godivad over the wire, fetched
// by a pool of I/O workers.
func TestVoyagerRemote(t *testing.T) {
	srv := serve(t, remote.ServerOptions{Dir: writeToy(t)})
	m := voyager(t, `^  remote: (\d+) fetches, `,
		"-remote", srv.Addr(), "-out", "", "-version", "TG", "-io-workers", "2", "-width", "64", "-height", "48")
	if m[1] == "0" {
		t.Error("the remote run fetched nothing")
	}
}

// subscribed waits until the server holds a subscription, the follower's.
func subscribed(t *testing.T, srv *remote.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Subscriptions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the follower never subscribed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The README's live run: voyager -follow renders a step a producer streams
// into an ingest server, and stops after -max-steps.
func TestVoyagerFollow(t *testing.T) {
	srv := serve(t, remote.ServerOptions{Dir: t.TempDir(), Ingest: true})
	cmd, stdout, stderr := start(t, "-follow", "-remote", srv.Addr(), "-out", "", "-policy", "drop",
		"-max-steps", "1", "-width", "64", "-height", "48")
	subscribed(t, srv)
	producer := remote.NewClient(remote.ClientOptions{Addr: srv.Addr()})
	defer producer.Close()
	err := genx.StreamDataset(toy(), func(step, file int, blocks []*genx.BlockData) error {
		return producer.Ingest(genx.SnapshotFile("", step, file), &remote.FilePayload{
			Time:   blocks[0].Time,
			StepID: blocks[0].StepID,
			Blocks: blocks,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	finish(t, cmd, stdout, stderr, `^followed 1 steps \(\d+ skipped, \d+ events\): \d+ images$`)
}

// SIGINT ends a follow that is still waiting for its first step: voyager
// closes its client, which ends the stream, and exits 0 with its report
// instead of waiting for the stream forever.
func TestVoyagerFollowInterrupted(t *testing.T) {
	srv := serve(t, remote.ServerOptions{Dir: t.TempDir(), Ingest: true})
	cmd, stdout, stderr := start(t, "-follow", "-remote", srv.Addr(), "-out", "")
	subscribed(t, srv)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	finish(t, cmd, stdout, stderr, `^followed 0 steps \(0 skipped, 0 events\): 0 images$`)
}

// fails runs voyager with args to completion and requires exit status 1
// with a voyager: error on stderr; it returns the command's stdout.
func fails(t *testing.T, args ...string) string {
	t.Helper()
	cmd, stdout, stderr := start(t, args...)
	err := cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.HasPrefix(stderr.String(), "voyager: ") {
		t.Fatalf("voyager %s: %v, want exit status 1 with a voyager: error; stdout:\n%s\nstderr:\n%s",
			strings.Join(args, " "), err, stdout, stderr)
	}
	return stdout.String()
}

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// A godivad that is not there: voyager -remote reports the failed spec
// request and -follow the failed ping, each before announcing the dataset
// or the stream.
func TestVoyagerRemoteUnreachable(t *testing.T) {
	addr := deadAddr(t)
	if out := fails(t, "-remote", addr, "-version", "TG", "-out", t.TempDir()); out != "" {
		t.Errorf("voyager -remote printed before failing:\n%s", out)
	}
	if out := fails(t, "-follow", "-remote", addr, "-out", t.TempDir()); out != "" {
		t.Errorf("voyager -follow printed before failing:\n%s", out)
	}
}
