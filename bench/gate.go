package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"godiva/internal/genx"
	"godiva/internal/remote"
	"godiva/internal/rocketeer"
)

// runGate is the correctness gate, run untimed before anything is measured:
// the four ways this repository can turn snapshot files into images — the
// original Voyager (O), the single-thread library (G), the multi-thread
// library over local files (TG) and over godivad (TG-remote) — must produce
// byte-identical PNG sets over the first two steps of D1, and every element
// of every buffer of one unit must be the same whether it came through the
// local genx.Reader or through the scan-remote path. It returns how many
// comparisons it made and the first mismatch.
func runGate(env *env, spec genx.Spec) (checks int, err error) {
	spec.Snapshots = min(2, spec.Snapshots)
	dir, _, err := writeDataset(env, "gate", spec)
	if err != nil {
		return 0, err
	}
	defer func() { err = closeAfter(err, func() error { return os.RemoveAll(dir) }) }()

	srv, err := remote.Serve(remote.ServerOptions{Dir: dir})
	if err != nil {
		return 0, err
	}
	defer func() { err = closeAfter(err, srv.Close) }()
	cli := remote.NewClient(remote.ClientOptions{Addr: srv.Addr(), PoolSize: 2})
	defer func() { err = closeAfter(err, cli.Close) }()

	test, _ := rocketeer.TestByName("simple")
	builds := []struct {
		name    string
		version rocketeer.Version
		remote  *remote.Client
	}{
		{"O", rocketeer.VersionO, nil},
		{"G", rocketeer.VersionG, nil},
		{"TG", rocketeer.VersionTG, nil},
		{"TG-remote", rocketeer.VersionTG, cli},
	}
	var reference map[string][]byte
	for _, b := range builds {
		imgDir := filepath.Join(dir, "img-"+b.name)
		_, err := rocketeer.Run(b.version, rocketeer.Config{
			Test: test, Spec: spec, Dir: dir, Remote: b.remote,
			MemoryLimit: 48 << 20, ImageDir: imgDir,
		})
		if err != nil {
			return checks, fmt.Errorf("gate: build %s: %w", b.name, err)
		}
		images, err := readImages(imgDir)
		if err != nil {
			return checks, err
		}
		if reference == nil {
			reference = images
			if want := spec.Snapshots * len(test.Ops); len(images) != want {
				return checks, fmt.Errorf("gate: build %s wrote %d images, want %d", b.name, len(images), want)
			}
			continue
		}
		checks++
		if len(images) != len(reference) {
			return checks, fmt.Errorf("gate: build %s wrote %d images, O wrote %d", b.name, len(images), len(reference))
		}
		for name, data := range reference {
			if !bytes.Equal(images[name], data) {
				return checks, fmt.Errorf("gate: image %s of build %s differs from O's", name, b.name)
			}
		}
	}

	checks++
	local, err := sumStepLocal(spec, dir, 0, true)
	if err != nil {
		return checks, err
	}
	scan, err := newScanner(cli, spec, nil)
	if err != nil {
		return checks, err
	}
	viaRemote, _, err := scan.pass([]int{0}, true, 0)
	if err = closeAfter(err, scan.close); err != nil {
		return checks, err
	}
	if viaRemote != local {
		return checks, fmt.Errorf("gate: unit 0 sums to %#x through scan-remote, %#x through genx.Reader", viaRemote, local)
	}
	return checks, nil
}

func readImages(dir string) (map[string][]byte, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = data
	}
	return out, nil
}
