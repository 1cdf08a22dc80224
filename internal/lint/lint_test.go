package lint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture corpus under testdata/src seeds one package per analyzer with
// deliberate violations, marked by trailing comments of the form
//
//	// want <analyzer> `message substring`
//
// plus clean packages that must produce nothing. Fixtures live in testdata
// so repo-wide runs ("./...") never pick them up.

var (
	modOnce sync.Once
	mod     *Module
	modErr  error
)

// testModule loads the repository module once for every test; the memoized
// import cache makes the second and later fixtures cheap.
func testModule(t *testing.T) *Module {
	t.Helper()
	modOnce.Do(func() {
		mod, modErr = LoadModule("../..", []string{"godivainvariants"})
	})
	if modErr != nil {
		t.Fatalf("LoadModule: %v", modErr)
	}
	return mod
}

func lintFixture(t *testing.T, name string) []Finding {
	t.Helper()
	m := testModule(t)
	pkg, err := m.LintPackage(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("LintPackage(%s): %v", name, err)
	}
	return RunPackage(pkg)
}

type expectation struct {
	file     string // basename
	line     int
	analyzer string
	substr   string
}

var wantRe = regexp.MustCompile("// want ([a-z]+) `([^`]+)`")

func parseWants(t *testing.T, name string) []expectation {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []expectation
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				wants = append(wants, expectation{
					file:     e.Name(),
					line:     i + 1,
					analyzer: m[1],
					substr:   m[2],
				})
			}
		}
	}
	return wants
}

func (w expectation) matches(f Finding) bool {
	return filepath.Base(f.Pos.Filename) == w.file &&
		f.Pos.Line == w.line &&
		f.Analyzer == w.analyzer &&
		strings.Contains(f.Message, w.substr)
}

// TestSeededViolations asserts that each violation fixture produces exactly
// the findings its // want comments declare: every want is hit, and every
// finding is wanted (no false positives inside the fixture either).
func TestSeededViolations(t *testing.T) {
	for _, name := range []string{"lockbad", "pairbad", "errbad", "atomicbad", "deadlockbad", "leakbad", "allocbad", "flowbad", "borrowbad", "wirebad"} {
		t.Run(name, func(t *testing.T) {
			wants := parseWants(t, name)
			if len(wants) == 0 {
				t.Fatal("fixture has no // want comments")
			}
			findings := lintFixture(t, name)
			if len(findings) == 0 {
				t.Fatalf("expected findings in %s, got none", name)
			}
			for _, w := range wants {
				hit := false
				for _, f := range findings {
					if w.matches(f) {
						hit = true
						break
					}
				}
				if !hit {
					t.Errorf("missing finding: %s:%d [%s] containing %q", w.file, w.line, w.analyzer, w.substr)
				}
			}
			for _, f := range findings {
				wanted := false
				for _, w := range wants {
					if w.matches(f) {
						wanted = true
						break
					}
				}
				if !wanted {
					t.Errorf("unexpected finding: %s", f)
				}
			}
		})
	}
}

// TestSuiteDeterminism loads the module twice from scratch, runs the full
// suite (per-package and module analyzers) over every violation fixture,
// and requires the two rendered finding lists to be byte-identical: map
// iteration anywhere in an analyzer or the fixpoint drivers must not leak
// into output order or content.
func TestSuiteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("double module load in -short mode")
	}
	fixtures := []string{
		"lockbad", "pairbad", "errbad", "atomicbad", "deadlockbad",
		"leakbad", "allocbad", "flowbad", "borrowbad", "wirebad",
	}
	render := func() string {
		m, err := LoadModule("../..", []string{"godivainvariants"})
		if err != nil {
			t.Fatalf("LoadModule: %v", err)
		}
		var pkgs []*Package
		for _, name := range fixtures {
			pkg, err := m.LintPackage(filepath.Join("testdata", "src", name))
			if err != nil {
				t.Fatalf("LintPackage(%s): %v", name, err)
			}
			pkgs = append(pkgs, pkg)
		}
		var sb strings.Builder
		for _, f := range runPackages(pkgs, nil) {
			fmt.Fprintf(&sb, "%s\n", f)
		}
		return sb.String()
	}
	first := render()
	second := render()
	if first != second {
		t.Errorf("suite output differs between identical runs:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	if first == "" {
		t.Fatal("determinism check ran against empty output")
	}
}

// TestCleanFixtures asserts the conforming package and the fully
// lint:ignore-annotated package both come back empty.
func TestCleanFixtures(t *testing.T) {
	for _, name := range []string{"clean", "ignored"} {
		t.Run(name, func(t *testing.T) {
			for _, f := range lintFixture(t, name) {
				t.Errorf("unexpected finding: %s", f)
			}
		})
	}
}

// TestMalformedDirective asserts a lint:ignore without a reason is itself
// reported, on the directive's own line.
func TestMalformedDirective(t *testing.T) {
	findings := lintFixture(t, "badignore")
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "directive" || !strings.Contains(f.Message, "malformed lint:ignore") {
		t.Errorf("unexpected finding: %s", f)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "src", "badignore", "badignore.go"))
	if err != nil {
		t.Fatal(err)
	}
	directiveLine := 0
	for i, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, "lint:ignore lockcheck") {
			directiveLine = i + 1
		}
	}
	if f.Pos.Line != directiveLine {
		t.Errorf("finding on line %d, want directive line %d", f.Pos.Line, directiveLine)
	}
}

// TestRepoIsClean runs the full suite over the whole module (with the
// godivainvariants files compiled in) and requires zero findings — the same
// bar verify.sh enforces — and no stale directive: every lint:ignore in the
// module must suppress at least one finding.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint run in -short mode")
	}
	m := testModule(t)
	dirs, err := m.ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := m.LintPackage(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	used := make(map[string]bool) // "file:line:analyzer" of each suppressed finding
	for _, f := range runPackages(pkgs, nil) {
		if !f.Suppressed {
			t.Errorf("repo finding: %s", f)
			continue
		}
		used[fmt.Sprintf("%s:%d:%s", f.Pos.Filename, f.Pos.Line, f.Analyzer)] = true
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.AST.Comments {
				for _, c := range cg.List {
					fields := strings.Fields(c.Text)
					if len(fields) < 3 || fields[0] != "//lint:ignore" {
						continue
					}
					// A directive covers the last line of its comment group
					// and the line after it (see collectIgnores).
					end := p.Fset.Position(cg.End()).Line
					hit := false
					for _, name := range strings.Split(fields[1], ",") {
						for _, line := range []int{end, end + 1} {
							hit = hit || used[fmt.Sprintf("%s:%d:%s", f.Path, line, name)]
						}
					}
					if !hit {
						t.Errorf("%s: stale directive suppresses no finding: %s", p.Fset.Position(c.Pos()), c.Text)
					}
				}
			}
		}
	}
}

// TestCLIExitCodes runs the real binary: non-zero on a seeded-violation
// fixture, zero on the clean one, and a usage error for an analyzer that is
// not (or, like paircheck and racecheck, no longer) in the suite.
func TestCLIExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run in -short mode")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) (int, string) {
		t.Helper()
		cmd := exec.Command("go", append([]string{"run", "./cmd/godiva-lint"}, args...)...)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		if err == nil {
			return 0, string(out)
		}
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode(), string(out)
		}
		t.Fatalf("go run: %v\n%s", err, out)
		return -1, ""
	}
	if code, _ := run("./internal/lint/testdata/src/lockbad"); code != 1 {
		t.Errorf("lint on lockbad fixture exited %d, want 1", code)
	}
	if code, _ := run("./internal/lint/testdata/src/clean"); code != 0 {
		t.Errorf("lint on clean fixture exited %d, want 0", code)
	}
	for _, gone := range []string{"paircheck", "racecheck"} {
		if code, out := run("-only", gone, "./internal/lint/testdata/src/clean"); code == 0 || !strings.Contains(out, `unknown analyzer "`+gone+`"`) {
			t.Errorf("lint -only %s exited %d, want a usage error naming it:\n%s", gone, code, out)
		}
	}
}

// TestCLIJSON runs the binary in -json mode over a seeded fixture and
// checks the one-finding-per-line contract: every line parses, carries the
// analyzer/pos/message/suppressed fields, and the exit code still signals
// the findings.
func TestCLIJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run in -short mode")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./cmd/godiva-lint", "-json", "./internal/lint/testdata/src/deadlockbad")
	cmd.Dir = root
	out, err := cmd.Output()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1 with findings, got err=%v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) == 0 {
		t.Fatal("no JSON lines emitted")
	}
	sawDeadlock := false
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
		if f.Analyzer == "deadlockcheck" {
			sawDeadlock = true
		}
	}
	if !sawDeadlock {
		t.Errorf("no deadlockcheck finding among %d JSON lines", len(lines))
	}
}

// TestCLISARIF runs the binary in -sarif mode over a seeded fixture and
// checks the log parses as SARIF 2.1.0 with a deadlockcheck rule and results
// carrying physical locations.
func TestCLISARIF(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run in -short mode")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./cmd/godiva-lint", "-sarif", "./internal/lint/testdata/src/deadlockbad")
	cmd.Dir = root
	out, err := cmd.Output()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1 with findings, got err=%v\n%s", err, out)
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
	if err := json.Unmarshal(out, &log); err != nil {
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
		if r.ID == "deadlockcheck" {
			sawRule = true
		}
	}
	if !sawRule {
		t.Error("no deadlockcheck rule in driver metadata")
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
