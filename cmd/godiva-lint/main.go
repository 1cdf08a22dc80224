// Command godiva-lint runs the repository's purpose-built static analyzers
// (internal/lint) over godiva packages:
//
//	go run ./cmd/godiva-lint ./...
//	go run ./cmd/godiva-lint -tags godivainvariants ./internal/core
//	go run ./cmd/godiva-lint -only releasecheck,borrowcheck,wirecheck ./...
//
// -only restricts a run to the named analyzers; -help lists every
// selectable name.
//
// It prints findings as file:line:col: [analyzer] message and exits with
// status 1 when there are findings, 2 on usage or load errors. With -json,
// each finding is emitted as one JSON object per line (analyzer, file,
// line, col, message, suppressed) for CI and editor consumption —
// suppressed findings are included there, marked, and do not affect the
// exit code. With -sarif, the findings are rendered as one SARIF 2.1.0 log
// for code-scanning upload (suppressed findings carry an inSource
// suppression). Findings can be suppressed with a //lint:ignore <analyzer>
// <reason> directive on or directly above the offending line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"godiva/internal/lint"
)

// jsonFinding is the -json wire form of one finding, one object per line.
type jsonFinding struct {
	Analyzer   string `json:"analyzer"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func main() {
	tags := flag.String("tags", "", "comma-separated build tags to enable (as in go build -tags)")
	jsonOut := flag.Bool("json", false, "emit one JSON finding per line (including suppressed findings, marked)")
	sarifOut := flag.Bool("sarif", false, "emit a SARIF 2.1.0 log (including suppressed findings, marked with an inSource suppression)")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: the full suite)")
	verbose := flag.Bool("v", false, "also print type-check diagnostics the analyzers tolerated")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: godiva-lint [-tags taglist] [-only analyzer,...] [packages]\n\nanalyzers (each selectable with -only):\n")
		for _, d := range lint.AnalyzerDocs() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %s\n", d)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "godiva-lint: %v\n", err)
		os.Exit(2)
	}
	var tagList []string
	if *tags != "" {
		tagList = strings.Split(*tags, ",")
	}
	m, err := lint.LoadModule(root, tagList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "godiva-lint: %v\n", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var onlyList []string
	if *only != "" {
		onlyList = strings.Split(*only, ",")
	}
	run := lint.RunOnly
	if *jsonOut || *sarifOut {
		run = lint.RunAllOnly
	}
	findings, err := run(m, patterns, onlyList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "godiva-lint: %v\n", err)
		os.Exit(2)
	}
	if *verbose {
		// Reload package-by-package to surface tolerated type errors.
		dirs, _ := m.ExpandPatterns(patterns)
		for _, dir := range dirs {
			if pkg, err := m.LintPackage(dir); err == nil {
				for _, terr := range pkg.TypeErrors {
					fmt.Fprintf(os.Stderr, "godiva-lint: note: %v\n", terr)
				}
			}
		}
	}
	live := 0
	for _, f := range findings {
		if !f.Suppressed {
			live++
		}
	}
	if *sarifOut {
		if err := writeSARIF(os.Stdout, root, findings); err != nil {
			fmt.Fprintf(os.Stderr, "godiva-lint: %v\n", err)
			os.Exit(2)
		}
		if live > 0 {
			fmt.Fprintf(os.Stderr, "godiva-lint: %d finding(s)\n", live)
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	for _, f := range findings {
		if *jsonOut {
			rel := relpath(root, f.Pos.Filename)
			enc.Encode(jsonFinding{
				Analyzer:   f.Analyzer,
				File:       rel,
				Line:       f.Pos.Line,
				Col:        f.Pos.Column,
				Message:    f.Message,
				Suppressed: f.Suppressed,
			})
			continue
		}
		fmt.Println(relativize(root, f))
	}
	if live > 0 {
		fmt.Fprintf(os.Stderr, "godiva-lint: %d finding(s)\n", live)
		os.Exit(1)
	}
}

// relpath maps an absolute file path to its module-relative form when
// possible.
func relpath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// relativize prints a finding with the module-relative path when possible.
func relativize(root string, f lint.Finding) string {
	f.Pos.Filename = relpath(root, f.Pos.Filename)
	return f.String()
}
