package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"godiva/internal/genx"
	"godiva/internal/remote"
)

// mainEnv, when set, makes the test binary run as godivad itself, so the
// tests drive the real command — its flags, its signal handling and its
// shutdown report — in a child process.
const mainEnv = "GODIVAD_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// godivad starts the command with args and returns it with a scanner over
// its stdout; its stderr collects in the returned buffer. The child is
// killed if it outlives the test by more than 30 s.
func godivad(t *testing.T, args ...string) (*exec.Cmd, *bufio.Scanner, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	kill := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	t.Cleanup(func() { kill.Stop() })
	return cmd, bufio.NewScanner(stdout), &stderr
}

// announced reads godivad's stdout up to the line announcing the server and
// returns the address it serves on.
func announced(t *testing.T, cmd *exec.Cmd, out *bufio.Scanner, stderr *bytes.Buffer) string {
	t.Helper()
	serving := regexp.MustCompile(`^godivad: serving .* on (\S+) \(`)
	for out.Scan() {
		if m := serving.FindStringSubmatch(out.Text()); m != nil {
			return m[1]
		}
	}
	cmd.Wait()
	t.Fatalf("godivad never announced its address; stderr:\n%s", stderr)
	return ""
}

// godivad serves a generated dataset, answers a fetch, and on SIGTERM exits
// 0 with a report whose mapped-file table closed every file it opened.
func TestGodivadServesAndShutsDown(t *testing.T) {
	dir := t.TempDir()
	spec := genx.Scaled(32)
	spec.Snapshots = 1
	if _, err := genx.WriteDataset(spec, dir); err != nil {
		t.Fatal(err)
	}
	cmd, out, stderr := godivad(t, "-data", dir, "-addr", "127.0.0.1:0", "-quiet")

	addr := announced(t, cmd, out, stderr)

	c := remote.NewClient(remote.ClientOptions{Addr: addr})
	fps, err := c.FetchFiles([]string{genx.SnapshotFile("", 0, 0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fp := fps[0]
	if len(fp.Blocks) == 0 {
		t.Fatal("fetch returned no blocks")
	}
	fp.Recycle()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var report []string
	for out.Scan() {
		report = append(report, out.Text())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("godivad exited with %v; stderr:\n%s", err, stderr)
	}
	var opened, closed, hits int
	for _, line := range report {
		if _, err := fmt.Sscanf(line, "godivad: mapped files: %d opened, %d closed, %d hits", &opened, &closed, &hits); err == nil {
			if opened == 0 || closed != opened {
				t.Fatalf("shutdown report %q: want every opened file closed", line)
			}
			return
		}
	}
	t.Fatalf("no mapped-files line in the shutdown report:\n%s", strings.Join(report, "\n"))
}

// The fault-injection flags are gone: godivad refuses them as undefined.
func TestGodivadRejectsFaultFlags(t *testing.T) {
	cmd, out, stderr := godivad(t, "-fault-err", "0.05")
	for out.Scan() {
	}
	err := cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("godivad -fault-err exited with %v, want exit status 2", err)
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -fault-err") {
		t.Fatalf("stderr does not name the undefined flag:\n%s", stderr)
	}
}

// godivad -ingest starts on a missing directory, takes a pushed snapshot
// file, and on SIGTERM exits 0 reporting the ingest.
func TestGodivadIngest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "live-data")
	cmd, out, stderr := godivad(t, "-data", dir, "-addr", "127.0.0.1:0", "-quiet", "-ingest")

	addr := announced(t, cmd, out, stderr)

	c := remote.NewClient(remote.ClientOptions{Addr: addr})
	spec := genx.Scaled(32)
	spec.Snapshots, spec.FilesPerSnapshot = 1, 1
	err := genx.StreamDataset(spec, func(step, file int, blocks []*genx.BlockData) error {
		return c.Ingest(genx.SnapshotFile("", step, file), &remote.FilePayload{
			Time:   blocks[0].Time,
			StepID: blocks[0].StepID,
			Blocks: blocks,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var report []string
	for out.Scan() {
		report = append(report, out.Text())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("godivad exited with %v; stderr:\n%s", err, stderr)
	}
	for _, line := range report {
		if strings.HasPrefix(line, "godivad: push: 1 ingests, ") {
			return
		}
	}
	t.Fatalf("no push line reporting 1 ingest in the shutdown report:\n%s", strings.Join(report, "\n"))
}

// A data directory that does not exist, with ingest off, leaves nothing to
// serve: godivad reports it and exits 1 without announcing a server.
func TestGodivadMissingData(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing")
	cmd, out, stderr := godivad(t, "-data", dir, "-addr", "127.0.0.1:0")
	for out.Scan() {
		t.Errorf("godivad printed %q", out.Text())
	}
	err := cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.HasPrefix(stderr.String(), "godivad: ") {
		t.Fatalf("godivad -data %s: %v, want exit status 1 with a godivad: error; stderr:\n%s", dir, err, stderr)
	}
}
