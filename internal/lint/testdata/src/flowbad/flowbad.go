// Package flowbad seeds pin leaks only a flow-sensitive check can see:
// every offending function contains a release call, just not on every
// path to return. releasecheck must flag the leaking paths; the balanced
// functions at the bottom (deferred release, interprocedural hand-off)
// must stay clean.
package flowbad

import "godiva/internal/core"

// earlyReturnLeak releases the unit on the happy path only: the probe's
// error return leaks the pin. A FinishUnit somewhere in the function is
// not enough.
func earlyReturnLeak(db *core.DB, unit string) error {
	if err := db.WaitUnit(unit); err != nil { // want releasecheck `unit unit acquired with WaitUnit leaks on the return at line 18`
		return err
	}
	if _, err := db.GetFieldBufferSize("particles", "position"); err != nil {
		return err
	}
	return db.FinishUnit(unit)
}

type FilePayload struct{ Data []byte }

func (fp *FilePayload) Recycle() {}

type Client struct{}

func (c *Client) FetchFile(path string) (*FilePayload, error) { return nil, nil }

// branchLeak recycles the payload on one branch only; falling off the end
// with fast unset leaks it. The error return is not a leak: a failed fetch
// pins nothing.
func branchLeak(c *Client, path string, fast bool) {
	fp, err := c.FetchFile(path) // want releasecheck `fetched payload acquired with FetchFile leaks on the end of the function`
	if err != nil {
		return
	}
	if fast {
		fp.Recycle()
	}
}

// fetchLeak recycles large payloads only: the small-payload return leaks
// the arena ref.
func fetchLeak(c *Client, path string) (int, error) {
	fp, err := c.FetchFile(path) // want releasecheck `fetched payload acquired with FetchFile leaks on the return at line 55`
	if err != nil {
		return 0, err
	}
	n := len(fp.Data)
	if n > 1024 {
		fp.Recycle()
	}
	return n, nil
}

// consume always recycles its payload, so releasecheck's summary pass
// learns it releases parameter 0 on every path.
func consume(fp *FilePayload) int {
	n := len(fp.Data)
	fp.Recycle()
	return n
}

// handOff is clean: every path ends in a Recycle or a releasing callee.
func handOff(c *Client, path string) (int, error) {
	fp, err := c.FetchFile(path)
	if err != nil {
		return 0, err
	}
	if len(fp.Data) == 0 {
		fp.Recycle()
		return 0, nil
	}
	return consume(fp), nil
}

// deferredRelease is clean: the deferred Recycle runs at every exit.
func deferredRelease(c *Client, path string) (int, error) {
	fp, err := c.FetchFile(path)
	if err != nil {
		return 0, err
	}
	defer fp.Recycle()
	if len(fp.Data) == 0 {
		return 0, nil
	}
	return len(fp.Data), nil
}

// drainAll is clean: the range body recycles every element, which also
// covers the zero-iteration path.
func drainAll(fps []*FilePayload) int {
	total := 0
	for _, fp := range fps {
		total += len(fp.Data)
		fp.Recycle()
	}
	return total
}

func (c *Client) push(path string) error { return nil }

// reusedErrLeak reassigns err after the acquire: the second err != nil
// return says nothing about whether the fetch succeeded, so the payload
// leaks there. Before the severing fix the stale error refinement killed
// the pin on that edge and masked the leak.
func reusedErrLeak(c *Client, path string) error {
	fp, err := c.FetchFile(path) // want releasecheck `fetched payload acquired with FetchFile leaks on the return at line 116`
	if err != nil {
		return err
	}
	err = c.push(path)
	if err != nil {
		return err
	}
	fp.Recycle()
	return nil
}

// reusedErrClean is the conforming reuse shape: deferred release first,
// then err reassigned — the severed refinement must not produce a false
// positive.
func reusedErrClean(c *Client, path string) error {
	fp, err := c.FetchFile(path)
	if err != nil {
		return err
	}
	defer fp.Recycle()
	err = c.push(path)
	if err != nil {
		return err
	}
	return nil
}

func (c *Client) FetchFiles(paths []string) ([]*FilePayload, error) { return nil, nil }

// firstOf is clean: returning an element of the fetched slice hands the
// payloads to the caller, like returning the slice itself.
func firstOf(c *Client, path string) (*FilePayload, error) {
	fps, err := c.FetchFiles([]string{path})
	if err != nil {
		return nil, err
	}
	return fps[0], nil
}

// enqueue is clean: sending the payload on a channel hands it to the
// receiver.
func enqueue(c *Client, ch chan<- *FilePayload, path string) error {
	fp, err := c.FetchFile(path)
	if err != nil {
		return err
	}
	ch <- fp
	return nil
}
