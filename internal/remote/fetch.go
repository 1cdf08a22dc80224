package remote

import (
	"encoding/binary"
	"fmt"
)

// OpFetch carries k (path, vars) fetches in one RPC and the server answers
// with one multi-file RespOK frame, so a k-file unit costs one round trip.
// It is the only fetch op: one file is a request of one item.
//
// Request payload:
//
//	u16 count | per item: str path | u16 nvars | str vars...
//
// Response payload (RespOK):
//
//	u32 count
//	per item: u8 status
//	          status 1 (error): u16 code | str msg
//	          status 0 (ok):    pad to 4 | u32 bodyLen | pad to 8 |
//	                            bodyLen bytes of FilePayload body
//
// Every ok item's body starts at an 8-byte payload offset, so the body's
// internal alignment pads, computed from the running payload offset, are
// those of the body encoded on its own, and both sides keep aliasing array
// data in place.

// fetchChunk caps the files one OpFetch RPC carries: the paper's
// files-per-snapshot, so a snapshot unit is one round trip, and the bound on
// the response frame a single pooled arena pins.
const fetchChunk = 8

// fetchReq is one decoded request item.
type fetchReq struct {
	path string
	vars []string
}

// fetchReq appends an OpFetch request.
func (e *enc) fetchReq(items []*fetchItem) {
	e.u16(uint16(len(items)))
	for _, it := range items {
		e.str(it.path)
		e.u16(uint16(len(it.vars)))
		for _, v := range it.vars {
			e.str(v)
		}
	}
}

// decodeFetchReq parses an OpFetch request.
func decodeFetchReq(body []byte) ([]fetchReq, error) {
	d := dec{b: body}
	n := int(d.u16())
	// Every item costs at least 4 body bytes (path length prefix plus
	// variable count), so a count beyond that is a corrupt or hostile
	// frame; reject it before it sizes the allocation below. A fetch of
	// nothing is as malformed.
	if n == 0 || n > (len(body)-2)/4 {
		return nil, fmt.Errorf("%w: fetch count %d does not fit the frame", ErrProtocol, n)
	}
	reqs := make([]fetchReq, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		var r fetchReq
		r.path = d.str()
		// Each var costs at least its 2-byte length prefix.
		nv := int(d.u16())
		r.vars = make([]string, 0, min(nv, (len(body)-d.off)/2))
		for j := 0; j < nv && d.err == nil; j++ {
			r.vars = append(r.vars, d.fieldName())
		}
		reqs = append(reqs, r)
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: fetch request: %v", ErrProtocol, d.err)
	}
	return reqs, nil
}

// fetchResult is one decoded response item: a payload, or a server-side
// per-item error (responses fail file by file, so one missing snapshot does
// not poison its whole unit).
type fetchResult struct {
	fp  *FilePayload
	err *ServerError
}

// errItem appends an error item to the response frame under construction.
func (f *frameEnc) errItem(code uint16, msg string) {
	f.b = append(f.b, 1)
	f.errBody(code, msg)
}

// okItem is an ok item under construction: where the frame stood before
// it, and where its body length goes and its body starts.
type okItem struct {
	at    frameMark
	start int // payload offset of the item
	lenAt int // arena offset of the body length
	body  int // payload offset of the body
}

// beginOK starts an ok item — status, pad to 4, body length (written by
// endOK), pad to 8 — whose body the caller appends next. The body starts at
// a payload offset of 0 mod 8, so its own alignment pads, computed from the
// frame offset, are those of the body encoded on its own.
func (f *frameEnc) beginOK() okItem {
	it := okItem{at: f.mark(), start: f.off()}
	f.b = append(f.b, 0)
	f.alignTo(4)
	it.lenAt = len(f.b)
	f.u32(0)
	f.alignTo(8)
	it.body = f.off()
	return it
}

// endOK closes an ok item, writing its body length, and returns it.
func (f *frameEnc) endOK(it okItem) int {
	n := f.off() - it.body
	binary.LittleEndian.PutUint32(f.b[it.lenAt:], uint32(n))
	return n
}

// decodeFetchResp parses an OpFetch response into per-item results. Ok
// bodies are decoded in place: their arrays alias body's backing buffer.
// Their blocks come from stock, refilled from its first block (nil: fresh
// ones). copied reports array bytes that could not be aliased.
func decodeFetchResp(body []byte, stock *blockStock) (results []fetchResult, copied int64, err error) {
	if stock != nil {
		stock.used = 0
	}
	d := dec{b: body}
	n := int(d.u32())
	for i := 0; i < n && d.err == nil; i++ {
		st := d.need(1)
		if st == nil {
			break
		}
		if st[0] != 0 {
			code := d.u16()
			msg := d.str()
			if d.err != nil {
				break
			}
			results = append(results, fetchResult{err: &ServerError{Code: code, Msg: msg}})
			continue
		}
		d.align(4)
		blen := int(d.u32())
		d.align(8)
		raw := d.need(blen)
		if raw == nil {
			break
		}
		sub := dec{b: raw, stock: stock}
		fp := sub.filePayload(nil)
		if sub.err != nil {
			return nil, 0, fmt.Errorf("%w: fetch item %d: %v", ErrProtocol, i, sub.err)
		}
		copied += sub.copied
		results = append(results, fetchResult{fp: fp})
	}
	if d.err != nil {
		return nil, 0, fmt.Errorf("%w: fetch response: %v", ErrProtocol, d.err)
	}
	return results, copied, nil
}

// --- client ---

// fetchItem is one client-side fetch: the request plus the caller's result
// slot it fills.
type fetchItem struct {
	path string
	vars []string
	out  **FilePayload
	err  *error
}

// FetchFiles fetches several snapshot files' unit payloads — every block
// with its mesh arrays plus the named variable fields — fetchChunk files per
// OpFetch round trip, returning payloads in paths order. Payloads of one
// round trip share the response frame's pooled arena, which their arrays
// alias — call each payload's Recycle when done with it so the buffer is
// reused (and do not touch the payload afterwards). On error every
// already-fetched payload is recycled and nil is returned.
func (c *Client) FetchFiles(paths []string, vars []string) ([]*FilePayload, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	out := make([]*FilePayload, len(paths))
	if err := c.fetchInto(out, paths, vars); err != nil {
		recycleAll(out)
		return nil, err
	}
	return out, nil
}

// recycleAll recycles every non-nil payload in fps.
func recycleAll(fps []*FilePayload) {
	for _, fp := range fps {
		if fp != nil {
			fp.Recycle()
		}
	}
}

// fetchInto fetches paths[i] into out[i], chunk by chunk, and returns the
// first error. Items that failed leave their slot nil; the rest are filled
// even when another item failed.
func (c *Client) fetchInto(out []*FilePayload, paths []string, vars []string) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClientClosed
	}
	c.stats.Fetches += int64(len(paths))
	c.mu.Unlock()
	errs := make([]error, len(paths))
	items := make([]*fetchItem, len(paths))
	for i, path := range paths {
		items[i] = &fetchItem{path: path, vars: vars, out: &out[i], err: &errs[i]}
	}
	for len(items) > 0 {
		n := min(len(items), fetchChunk)
		c.fetchItems(items[:n])
		items = items[n:]
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fetchItems issues one OpFetch RPC for up to fetchChunk items and fills
// their result slots. Items the server could not fit into the response
// frame (answered CodeUnavailable beside items it did answer) go round again
// as a strictly smaller request, so the recursion ends; when every item came
// back that way there is no smaller request to make and they fail.
func (c *Client) fetchItems(items []*fetchItem) {
	fail := func(its []*fetchItem, err error) {
		c.mu.Lock()
		c.stats.Errors += int64(len(its))
		c.mu.Unlock()
		for _, it := range its {
			*it.err = fmt.Errorf("remote: fetch %q: %w", it.path, err)
		}
	}
	body, arena, err := c.call(OpFetch, &request{items: items})
	if err != nil {
		fail(items, err)
		return
	}
	results, copied, err := decodeFetchResp(body, &arena.blocks)
	if err == nil && len(results) != len(items) {
		err = fmt.Errorf("%w: fetch response has %d items, want %d", ErrProtocol, len(results), len(items))
	}
	if err != nil {
		putArena(arena)
		fail(items, err)
		return
	}
	c.mu.Lock()
	c.stats.BytesCopied += copied
	c.mu.Unlock()
	// The arena's first claim is this routine's own, dropped once every ok
	// item has taken one, so a frame with no ok item still goes back to the
	// pool.
	arena.refs.Store(1)
	var again []*fetchItem
	var full *ServerError
	for i, r := range results {
		it := items[i]
		switch {
		case r.fp != nil:
			r.fp.Path = it.path
			r.fp.arena = arena
			arena.refs.Add(1)
			*it.out = r.fp
		case r.err != nil && r.err.Retryable():
			again, full = append(again, it), r.err
		default:
			fail(items[i:i+1], r.err)
		}
	}
	arena.release()
	if len(again) == len(items) {
		fail(again, full)
	} else if len(again) > 0 {
		c.fetchItems(again)
	}
}
