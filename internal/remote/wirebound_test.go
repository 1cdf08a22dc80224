package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// encodeFetchReq serializes an OpFetch request as a contiguous body.
func encodeFetchReq(items []*fetchItem) []byte {
	var e enc
	e.fetchReq(items)
	return e.b
}

// TestBatchReqRoundTrip encodes and decodes a fetch request at a realistic
// size and checks every field survives.
func TestBatchReqRoundTrip(t *testing.T) {
	items := make([]*fetchItem, 0, 64)
	for i := 0; i < 64; i++ {
		items = append(items, &fetchItem{
			path: "snap" + strings.Repeat("x", i%7) + ".shdf",
			vars: []string{"density", "velocity"},
		})
	}
	reqs, err := decodeFetchReq(encodeFetchReq(items))
	if err != nil {
		t.Fatalf("decodeFetchReq: %v", err)
	}
	if len(reqs) != len(items) {
		t.Fatalf("decoded %d items, want %d", len(reqs), len(items))
	}
	for i, r := range reqs {
		if r.path != items[i].path || len(r.vars) != len(items[i].vars) {
			t.Fatalf("item %d: %q/%v, want %q/%v", i, r.path, r.vars, items[i].path, items[i].vars)
		}
	}
}

// TestBatchReqCountBound rejects a frame whose item count exceeds what the
// body could possibly encode — the allocation must never happen.
func TestBatchReqCountBound(t *testing.T) {
	// A hostile frame: count 65535, nothing behind it.
	body := binary.LittleEndian.AppendUint16(nil, 65535)
	if _, err := decodeFetchReq(body); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized count: got %v, want ErrProtocol", err)
	}
	// Same count with a non-empty but still far-too-small body.
	body = append(body, bytes.Repeat([]byte{0}, 64)...)
	if _, err := decodeFetchReq(body); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized count with padding: got %v, want ErrProtocol", err)
	}
	// A fetch of nothing is as malformed.
	if _, err := decodeFetchReq(binary.LittleEndian.AppendUint16(nil, 0)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("empty fetch: got %v, want ErrProtocol", err)
	}
	// The count is rejected before it sizes anything: a 6-byte body claiming
	// 65,535 items allocates nowhere near the 2.6 MB so many entries take.
	body = append(binary.LittleEndian.AppendUint16(nil, 65535), 0, 0, 0, 0)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			decodeFetchReq(body)
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 64<<10 {
		t.Fatalf("rejecting a 65,535-item count allocated %d bytes, want < 64 KiB", got)
	}
}

// TestBatchReqCountAtLimit accepts the densest legal encoding: items whose
// cost is exactly the 4-byte floor the bound assumes.
func TestBatchReqCountAtLimit(t *testing.T) {
	const n = 512
	items := make([]*fetchItem, n)
	for i := range items {
		items[i] = &fetchItem{path: "", vars: nil} // 4 bytes each: the floor
	}
	reqs, err := decodeFetchReq(encodeFetchReq(items))
	if err != nil {
		t.Fatalf("decode at the density limit: %v", err)
	}
	if len(reqs) != n {
		t.Fatalf("decoded %d items, want %d", len(reqs), n)
	}
}

// TestFrameLengthBound rejects frame headers past maxFrame before any body
// is read or buffered.
func TestFrameLengthBound(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrame+1)
	allocated := false
	_, _, _, err := readFrameBuf(bytes.NewReader(hdr[:]), func(n int) []byte {
		allocated = true
		return make([]byte, n)
	})
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized frame: got %v, want ErrProtocol", err)
	}
	if allocated {
		t.Fatal("oversized frame reached the allocator")
	}

	// At the limit the length passes the check and reaches the allocator
	// (handing back a short buffer keeps the test from materializing 1 GiB;
	// the truncated stream then fails the body read, which is fine — the
	// bound is the subject).
	binary.LittleEndian.PutUint32(hdr[:], maxFrame)
	requested := 0
	_, _, _, err = readFrameBuf(bytes.NewReader(hdr[:]), func(n int) []byte {
		requested = n
		return make([]byte, 2)
	})
	if errors.Is(err, ErrProtocol) {
		t.Fatalf("frame at the limit rejected: %v", err)
	}
	if requested != maxFrame {
		t.Fatalf("allocator asked for %d bytes, want %d", requested, maxFrame)
	}

	// A frame too short to carry its version and opcode bytes.
	binary.LittleEndian.PutUint32(hdr[:], 1)
	_, _, _, err = readFrameBuf(bytes.NewReader(append(hdr[:], protoVersion)), func(n int) []byte {
		return make([]byte, n)
	})
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("1-byte frame: got %v, want ErrProtocol", err)
	}
}
