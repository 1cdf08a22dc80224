package remote

import (
	"fmt"

	"godiva/internal/core"
	"godiva/internal/genx"
)

// Resolver maps a processing-unit name to the snapshot files holding its
// data, as paths in the server's namespace (relative to godivad's -data
// directory). The paper passes the unit name back to the read function for
// exactly this kind of name-to-dataset mapping.
type Resolver func(unit string) ([]string, error)

// CommitFunc stores one fetched block into the database through the unit
// handle, the remote counterpart of the commit step inside a local read
// function. It must copy field data into database buffers: the BlockData's
// arrays alias a pooled response buffer that NewReadFunc recycles once the
// file is committed — long before the unit is released. (A local read
// function can instead borrow, Record.BorrowFieldBuffer, because the file it
// read stays open until the unit's OnRelease hooks run.) Arrays the
// CommitFunc derives itself are its own and may be borrowed. The copies live
// as long as the unit: once it is dropped, the database may give their
// memory to a later unit's buffers (AllocFieldBuffer), as a borrowed
// mapping dies then too.
type CommitFunc func(u *core.Unit, bd *genx.BlockData) error

// NewReadFunc manufactures a developer-supplied read function (paper §3.3)
// backed by a godivad server: it resolves the unit name to snapshot files,
// fetches their blocks with the given variables fetchChunk files per round
// trip, and commits them strictly in paths order. The returned function plugs
// into AddUnit/ReadUnit like any local read function — background workers
// prefetch remote units, workers fetching different units concurrently, and
// failures after retry exhaustion land the unit in the failed state exactly
// like a local read error.
func NewReadFunc(c *Client, resolve Resolver, vars []string, commit CommitFunc) core.ReadFunc {
	return func(u *core.Unit) error {
		paths, err := resolve(u.Name())
		if err != nil {
			return err
		}
		for len(paths) > 0 {
			n := min(len(paths), fetchChunk)
			fps, err := c.FetchFiles(paths[:n], vars)
			if err != nil {
				return err
			}
			for i, fp := range fps {
				if err := commitPayload(u, fp, commit); err != nil {
					for _, rest := range fps[i+1:] {
						rest.Recycle()
					}
					return err
				}
			}
			paths = paths[n:]
		}
		return nil
	}
}

// commitPayload commits every block of one payload and recycles it.
// Committed buffers are copies; the payload's backing frame can go back to
// the pool for the next fetch.
func commitPayload(u *core.Unit, fp *FilePayload, commit CommitFunc) error {
	for _, bd := range fp.Blocks {
		if err := commit(u, bd); err != nil {
			fp.Recycle()
			return fmt.Errorf("remote: commit %s block %s: %w", fp.Path, bd.Name, err)
		}
	}
	fp.Recycle()
	return nil
}
