package remote

import (
	"crypto/sha256"
	"encoding/hex"
	"net"
	"os"
	"runtime"
	"testing"

	"godiva/internal/genx"
)

// pinnedFetchFrame is the sha256 of the OpFetch response payload that
// TestFetchFrameGolden requests.
const pinnedFetchFrame = "dcf7bcab354a8ff937bb439d1a3ade5a1a05e6a9355599d5f2112916c766641b"

// The OpFetch response is pinned byte for byte: two snapshot files of a
// fixed small dataset, one missing file and a var list out of sorted order
// (with a repeat) must answer the payload whose hash is pinned above, so an
// encoder change that moves a pad, reorders a field or rewords an error
// item fails here.
func TestFetchFrameGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest pinned on amd64; %s may fuse multiply-adds in the dataset generator", runtime.GOARCH)
	}
	spec := genx.Scaled(16)
	spec.Snapshots = 1
	dir := t.TempDir()
	if _, err := genx.WriteDataset(spec, dir); err != nil {
		t.Fatal(err)
	}
	// The missing file's error item carries the server's path to it, so the
	// server runs in the dataset directory and serves ".".
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
	srv, err := Serve(ServerOptions{Dir: "."})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	files := spec.SnapshotFiles("", 0)
	vars := []string{"velocity", "s22", "displacement", "stress_avg", "energy", "velocity", "acceleration", "s11"}
	var items []*fetchItem
	for _, p := range []string{files[1], genx.SnapshotFile("", 7, 0), files[0]} {
		items = append(items, &fetchItem{path: p, vars: vars})
	}
	if err := writeFrame(conn, OpFetch, encodeFetchReq(items)); err != nil {
		t.Fatal(err)
	}
	op, body, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if op != RespOK {
		t.Fatalf("response op %#02x, want RespOK: %v", op, decodeErr(body))
	}
	results, _, err := decodeFetchResp(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[0].fp == nil || results[1].err == nil ||
		results[1].err.Code != CodeNotFound || results[2].fp == nil {
		t.Fatalf("response items %+v, want ok, not found, ok", results)
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != pinnedFetchFrame {
		t.Fatalf("fetch response (%d bytes) hashes to %s, want %s: the wire bytes changed", len(body), got, pinnedFetchFrame)
	}
}
