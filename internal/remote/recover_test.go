package remote

import (
	"strings"
	"testing"

	"godiva/internal/genx"
	"godiva/internal/mesh"
)

// A panic while handling a request is answered CodeInternal and counted
// among the server's error responses. The server here is deliberately
// broken: it accepts ingests but has no push registry, so announcing the
// landed file dereferences a nil registry.
func TestRecoveredPanicCountsAsError(t *testing.T) {
	s := &Server{opts: ServerOptions{Dir: t.TempDir(), Ingest: true}}
	var f frameEnc
	f.reset()
	f.str(genx.SnapshotFile("", 0, 0))
	f.filePayload(&FilePayload{StepID: "s", Blocks: []*genx.BlockData{{
		Mesh: &mesh.TetMesh{Coords: make([]float64, 12), Tets: []int32{0, 1, 2, 3}, GlobalNode: make([]int64, 4)},
	}}})
	body := flattenSegments(f.payload())

	cs := new(connState)
	cs.out.reset()
	before := s.Stats().Errors
	rop := s.handleRequest(OpIngest, body, cs)
	if rop != RespErr {
		t.Fatalf("response op %#02x, want RespErr", rop)
	}
	serr := decodeErr(flattenSegments(cs.out.payload()))
	if serr.Code != CodeInternal || !strings.HasPrefix(serr.Msg, "panic: ") {
		t.Fatalf("answer %v, want a CodeInternal panic", serr)
	}
	if got := s.Stats().Errors - before; got != 1 {
		t.Fatalf("Errors rose by %d, want 1", got)
	}
}
