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
func (c *Client) RPC(op byte, body []byte) error {
	_, buf, err := c.rpc(op, body)
	putFrameBuf(buf)
	return err
}
