package remote

import (
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeServer answers OpFetch frames with whatever body respond scripts for
// the seq'th request (counted across connections), speaking the real framing
// through readFrame/writeFrame. It stages answers the real server gives only
// under conditions a test cannot afford — an item that overflows a 1 GiB
// frame — and answers it never gives at all.
func fakeServer(t *testing.T, respond func(seq int, reqs []fetchReq) []byte) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		seq   int
		conns []net.Conn
		wg    sync.WaitGroup
	)
	serve := func(conn net.Conn) {
		defer wg.Done()
		for {
			op, body, err := readFrame(conn)
			if err != nil {
				return
			}
			reqs, err := decodeFetchReq(body)
			if op != OpFetch || err != nil {
				t.Errorf("fake server got op %#02x (decode: %v), want a well-formed OpFetch", op, err)
				return
			}
			mu.Lock()
			n := seq
			seq++
			mu.Unlock()
			if err := writeFrame(conn, RespOK, respond(n, reqs)); err != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed by the cleanup below
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go serve(conn)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, conn := range conns {
			conn.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String()
}

// fetchRespBody builds an OpFetch response body with one item per argument:
// the sample payload for nil, an error item otherwise.
func fetchRespBody(items ...*ServerError) []byte {
	segs, _, err := encodeFilePayloadSegments(samplePayload(), maxFrame-2)
	if err != nil {
		panic(err)
	}
	size := 0
	for _, s := range segs {
		size += len(s)
	}
	var out segEnc
	out.e.u32(uint32(len(items)))
	for _, serr := range items {
		if serr != nil {
			out.appendFetchItem(nil, 0, serr)
		} else {
			out.appendFetchItem(segs, size, nil)
		}
	}
	out.flush()
	return flattenSegments(out.segs)
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
	addr := fakeServer(t, func(seq int, reqs []fetchReq) []byte {
		mu.Lock()
		seen = append(seen, reqPaths(reqs))
		mu.Unlock()
		if seq == 0 {
			return fetchRespBody(nil, frameFull, nil)
		}
		return fetchRespBody(make([]*ServerError, len(reqs))...)
	})
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
		addr := fakeServer(t, func(seq int, reqs []fetchReq) []byte {
			full := make([]*ServerError, len(reqs))
			for i := range full {
				full[i] = frameFull
			}
			return fetchRespBody(full...)
		})
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
	addr := fakeServer(t, func(seq int, reqs []fetchReq) []byte {
		if seq == 2 { // the last chunk: its one file is missing
			return fetchRespBody(&ServerError{Code: CodeNotFound, Msg: "no such snapshot"})
		}
		return fetchRespBody(make([]*ServerError, len(reqs))...)
	})
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
