package remote

import (
	"path/filepath"
	"testing"

	"godiva/internal/genx"
)

// LocalPayload reads path's blocks and vars straight from the dataset in
// dir into heap-backed arrays, bypassing the server: the bytes a fetch must
// reproduce (and, since nothing aliases the file, a payload that may be
// ingested over it).
func LocalPayload(t testing.TB, dir, path string, vars []string) *FilePayload {
	t.Helper()
	h, err := (&genx.Reader{}).Open(filepath.Join(dir, path))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	fp := &FilePayload{Path: path, Time: h.Time, StepID: h.StepID}
	for _, e := range h.Blocks() {
		bd, err := h.ReadBlock(e, vars)
		if err != nil {
			t.Fatal(err)
		}
		fp.Blocks = append(fp.Blocks, bd)
	}
	return fp
}

// RPC exposes the client's retrying round trip to the external tests, which
// need it to send ops no Client method sends.
func (c *Client) RPC(op byte) error {
	_, frame, err := c.rpc(op)
	putArena(frame)
	return err
}

// The frame relay (relay_test.go), for the external tests.
type Fault = fault

var (
	StartRelay   = startRelay
	SeverAfter   = severAfter
	Unavailable  = unavailable
	DelayBy      = delayBy
	OnFetch      = onFetch
	AtSeqs       = atSeqs
	SeededFaults = seededFaults
)

// SetEventHook makes every subscription stream of s run hook before each
// event write: a slow subscriber, which a relay cannot play because socket
// buffers absorb small event frames. Set it before the first subscription.
func (s *Server) SetEventHook(hook func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onEvent = hook
}

// openConns reports how many connections s holds open: the ones its accept
// loop registered that their handlers have not yet closed.
func (s *Server) openConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}
