package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// mainEnv, when set, makes the test binary run as godiva-lint itself, so
// the tests drive the real command — its flags, its output formats and its
// exit status — in a child process, without a go-command build per run.
const mainEnv = "GODIVA_LINT_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// godivaLint runs the command with args from the module root and returns its exit
// status, stdout and stderr. The child is killed if it runs longer than
// 60 s.
func godivaLint(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	kill := time.AfterFunc(60*time.Second, func() { cmd.Process.Kill() })
	defer kill.Stop()
	err = cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatalf("godiva-lint %s: %v\n%s", strings.Join(args, " "), err, &stderr)
	return -1, "", ""
}

// TestCLIExitCodes runs the real binary: non-zero on a seeded-violation
// fixture, zero on the clean one, and a usage error for an analyzer that is
// no longer in the suite and for the retired -tags flag (the loader builds
// what go build builds for the host).
func TestCLIExitCodes(t *testing.T) {
	if code, _, _ := godivaLint(t, "./internal/lint/testdata/src/lockbad"); code != 1 {
		t.Errorf("lint on lockbad fixture exited %d, want 1", code)
	}
	if code, _, _ := godivaLint(t, "./internal/lint/testdata/src/clean"); code != 0 {
		t.Errorf("lint on clean fixture exited %d, want 0", code)
	}
	for _, gone := range []string{"paircheck", "racecheck", "releasecheck", "wirecheck", "leakcheck", "atomiccheck", "deadlockcheck", "borrowcheck", "alloccheck"} {
		if code, _, stderr := godivaLint(t, "-only", gone, "./internal/lint/testdata/src/clean"); code != 2 || !strings.Contains(stderr, `unknown analyzer "`+gone+`"`) {
			t.Errorf("lint -only %s exited %d, want a usage error naming it:\n%s", gone, code, stderr)
		}
	}
	if code, _, stderr := godivaLint(t, "-tags", "unix", "./internal/lint/testdata/src/clean"); code != 2 || !strings.Contains(stderr, "-tags") {
		t.Errorf("lint -tags exited %d, want a usage error naming the flag:\n%s", code, stderr)
	}
}

// TestCLIJSON runs the binary in -json mode over a seeded fixture and
// checks the one-finding-per-line contract: every line parses, carries the
// analyzer/pos/message/suppressed fields, and the exit code still signals
// the findings.
func TestCLIJSON(t *testing.T) {
	code, out, stderr := godivaLint(t, "-json", "./internal/lint/testdata/src/lockbad")
	if code != 1 {
		t.Fatalf("want exit 1 with findings, got %d\n%s%s", code, out, stderr)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) == 0 {
		t.Fatal("no JSON lines emitted")
	}
	sawLockcheck := false
	for _, line := range lines {
		var f struct {
			Analyzer   string `json:"analyzer"`
			File       string `json:"file"`
			Line       int    `json:"line"`
			Col        int    `json:"col"`
			Message    string `json:"message"`
			Suppressed bool   `json:"suppressed"`
		}
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if f.Analyzer == "" || f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("incomplete finding: %q", line)
		}
		if f.Suppressed {
			t.Errorf("unexpected suppressed finding in fixture: %q", line)
		}
		if f.Analyzer == "lockcheck" {
			sawLockcheck = true
		}
	}
	if !sawLockcheck {
		t.Errorf("no lockcheck finding among %d JSON lines", len(lines))
	}
}

// TestCLISARIF runs the binary in -sarif mode over a seeded fixture and
// checks the log parses as SARIF 2.1.0 with a lockcheck rule and results
// carrying physical locations.
func TestCLISARIF(t *testing.T) {
	code, out, stderr := godivaLint(t, "-sarif", "./internal/lint/testdata/src/lockbad")
	if code != 1 {
		t.Fatalf("want exit 1 with findings, got %d\n%s%s", code, out, stderr)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("SARIF does not parse: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected log shape: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "godiva-lint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	sawRule := false
	for _, r := range run.Tool.Driver.Rules {
		if r.ID == "lockcheck" {
			sawRule = true
		}
	}
	if !sawRule {
		t.Error("no lockcheck rule in driver metadata")
	}
	if len(run.Results) == 0 {
		t.Fatal("no results")
	}
	for _, res := range run.Results {
		if len(res.Locations) != 1 {
			t.Fatalf("result without location: %+v", res)
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" || loc.Region.StartLine == 0 {
			t.Errorf("incomplete location: %+v", loc)
		}
		if filepath.IsAbs(loc.ArtifactLocation.URI) {
			t.Errorf("artifact URI not module-relative: %s", loc.ArtifactLocation.URI)
		}
	}
}
