package remote

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fetchRespBody builds an OpFetch response body with one item per argument:
// the sample payload for nil, an error item otherwise.
func fetchRespBody(items ...*ServerError) []byte {
	var out frameEnc
	out.reset()
	out.u32(uint32(len(items)))
	for _, serr := range items {
		if serr != nil {
			out.errItem(serr.Code, serr.Msg)
			continue
		}
		it := out.beginOK()
		out.filePayload(samplePayload())
		out.endOK(it)
	}
	return flattenSegments(out.payload())
}

// reqPaths lists a decoded request's paths.
func reqPaths(reqs []fetchReq) []string {
	paths := make([]string, len(reqs))
	for i, r := range reqs {
		paths[i] = r.path
	}
	return paths
}

var frameFull = &ServerError{Code: CodeUnavailable, Msg: "fetch frame full"}

// An item the server could not fit into the response frame is asked for
// again in a strictly smaller request and succeeds there; the caller sees
// every payload, in paths order, and no retry or error is counted.
func TestFrameFullItemRefetched(t *testing.T) {
	var mu sync.Mutex
	var seen [][]string
	addr := startRelay(t, nil, func(seq int, reqs []fetchReq) []byte {
		mu.Lock()
		seen = append(seen, reqPaths(reqs))
		mu.Unlock()
		if seq == 0 {
			return fetchRespBody(nil, frameFull, nil)
		}
		return fetchRespBody(make([]*ServerError, len(reqs))...)
	}, nil).Addr()
	c := NewClient(ClientOptions{Addr: addr})
	defer c.Close()

	paths := []string{"a.shdf", "b.shdf", "c.shdf"}
	fps, err := c.FetchFiles(paths, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, fp := range fps {
		if fp.Path != paths[i] {
			t.Fatalf("payload %d is %q, want %q", i, fp.Path, paths[i])
		}
		samePayload(t, fp, samplePayload())
		fp.Recycle()
	}
	mu.Lock()
	defer mu.Unlock()
	if want := [][]string{paths, {"b.shdf"}}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("server saw requests %v, want %v", seen, want)
	}
	if rs := c.Stats(); rs.RPCs != 2 || rs.Retries != 0 || rs.Errors != 0 {
		t.Fatalf("client stats = %+v, want 2 RPCs, no retries, no errors", rs)
	}
}

// When every item of a request comes back "frame full" there is no smaller
// request left to make — for a request of one in particular — so the fetch
// fails with that error after the one round trip instead of spinning.
func TestFrameFullEveryItemFails(t *testing.T) {
	for _, paths := range [][]string{{"a.shdf"}, {"a.shdf", "b.shdf"}} {
		addr := startRelay(t, nil, func(seq int, reqs []fetchReq) []byte {
			full := make([]*ServerError, len(reqs))
			for i := range full {
				full[i] = frameFull
			}
			return fetchRespBody(full...)
		}, nil).Addr()
		c := NewClient(ClientOptions{Addr: addr, RetryBase: time.Millisecond})
		_, err := c.FetchFiles(paths, nil)
		var se *ServerError
		if !errors.As(err, &se) || se.Code != CodeUnavailable {
			t.Fatalf("FetchFiles(%v) = %v, want the item's CodeUnavailable", paths, err)
		}
		if rs := c.Stats(); rs.RPCs != 1 || rs.Retries != 0 || rs.Errors != int64(len(paths)) {
			t.Fatalf("client stats = %+v, want 1 RPC, no retries, %d errors", rs, len(paths))
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A fetch that fails in a later chunk leaves the chunks already fetched
// holding exactly one arena claim per payload, and the recycle FetchFiles
// runs on failure drops every one of them: each earlier chunk's arena ends
// with no claim left on it (nothing leaked, nothing released twice).
func TestChunkFailureRecyclesEarlierChunks(t *testing.T) {
	addr := startRelay(t, nil, func(seq int, reqs []fetchReq) []byte {
		if seq == 2 { // the last chunk: its one file is missing
			return fetchRespBody(&ServerError{Code: CodeNotFound, Msg: "no such snapshot"})
		}
		return fetchRespBody(make([]*ServerError, len(reqs))...)
	}, nil).Addr()
	c := NewClient(ClientOptions{Addr: addr})
	defer c.Close()

	paths := make([]string, 2*fetchChunk+1)
	for i := range paths {
		paths[i] = string(rune('a'+i)) + ".shdf"
	}
	out := make([]*FilePayload, len(paths))
	var se *ServerError
	if err := c.fetchInto(out, paths, nil); !errors.As(err, &se) || se.Code != CodeNotFound {
		t.Fatalf("fetchInto = %v, want the last chunk's CodeNotFound", err)
	}
	if out[len(out)-1] != nil {
		t.Fatal("the failed item's slot is filled")
	}
	claims := make(map[*frameArena]int32)
	for _, fp := range out[:2*fetchChunk] {
		samePayload(t, fp, samplePayload())
		claims[fp.arena]++
	}
	if len(claims) != 2 {
		t.Fatalf("earlier chunks decoded into %d arenas, want 2", len(claims))
	}
	for arena, n := range claims {
		if got := arena.refs.Load(); got != n {
			t.Fatalf("arena holds %d claims for its %d payloads", got, n)
		}
	}

	recycleAll(out)
	recycleAll(out) // a second Recycle is a no-op
	for arena := range claims {
		if got := arena.refs.Load(); got != 0 {
			t.Fatalf("arena has %d claims after every payload recycled, want 0", got)
		}
	}
	if rs := c.Stats(); rs.RPCs != 3 || rs.Errors != 1 {
		t.Fatalf("client stats = %+v, want 3 RPCs and 1 error", rs)
	}
}

// An item that would overflow the server's response frame is rolled back
// out of it, leaving exactly the frame of the items before it plus a
// CodeUnavailable item, and its file's handle is closed at once; the items
// answered keep theirs until the frame has been written.
func TestServerFrameFullItemRolledBack(t *testing.T) {
	dir, paths := ledgerDataset(t, 2)
	srv, err := Serve(ServerOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	shrinkIdleBudget(t, srv, 1) // a file nothing references is unmapped at once
	want := LocalPayload(t, dir, paths[0], ledgerVars)
	segs, _, err := encodeFilePayloadSegments(want, maxFrame-2)
	if err != nil {
		t.Fatal(err)
	}
	body := len(flattenSegments(segs))
	// Room for the item count, the first item's worst-case preamble and
	// body, and not one byte more.
	srv.frameCap = 4 + 15 + body

	var cs connState
	cs.out.reset()
	reqs := []fetchReq{{paths[0], ledgerVars}, {paths[1], ledgerVars}, {paths[2], ledgerVars}}
	srv.serveFetch(&cs, reqs)
	if len(cs.held) != 1 {
		t.Fatalf("%d handles held for the frame, want the one answered item's", len(cs.held))
	}
	wantTable(t, srv, "after encoding", 3, 2, 0)

	var exp frameEnc
	exp.reset()
	exp.u32(3)
	it := exp.beginOK()
	exp.filePayload(want)
	exp.endOK(it)
	exp.errItem(CodeUnavailable, "fetch frame full")
	exp.errItem(CodeUnavailable, "fetch frame full")
	if got := flattenSegments(cs.out.payload()); !bytes.Equal(got, flattenSegments(exp.payload())) {
		t.Fatal("the frame is not the answered item plus two frame-full items")
	}
	cs.release()
	wantTable(t, srv, "after the write", 3, 3, 0)
	if st := srv.Stats(); st.Errors != 0 {
		t.Fatalf("frame-full items counted %d errors, want 0", st.Errors)
	}
}

// A client fetching from a server whose frames hold one file at a time gets
// every payload, in paths order, over as many round trips as files.
func TestServerFrameFullRefetched(t *testing.T) {
	dir, paths := ledgerDataset(t, 2)
	srv, err := Serve(ServerOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	frameCap := 0
	for _, p := range paths {
		segs, _, err := encodeFilePayloadSegments(LocalPayload(t, dir, p, ledgerVars), maxFrame-2)
		if err != nil {
			t.Fatal(err)
		}
		frameCap = max(frameCap, 4+15+len(flattenSegments(segs)))
	}
	srv.frameCap = frameCap
	publish(srv)
	c := NewClient(ClientOptions{Addr: srv.Addr()})
	defer c.Close()
	fps, err := c.FetchFiles(paths, ledgerVars)
	if err != nil {
		t.Fatal(err)
	}
	for i, fp := range fps {
		samePayload(t, fp, LocalPayload(t, dir, paths[i], ledgerVars))
		fp.Recycle()
	}
	if rs := c.Stats(); rs.RPCs != int64(len(paths)) || rs.Errors != 0 {
		t.Fatalf("client stats = %+v, want %d RPCs and no errors", rs, len(paths))
	}
}
