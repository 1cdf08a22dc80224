package remote

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"godiva/internal/genx"
	"godiva/internal/mesh"
	"godiva/internal/zerocopy"
)

// samplePayload builds a small two-block payload with every array kind
// populated, usable without a testing.T (the fuzz seed corpus reuses it).
// Array lengths are deliberately odd/uneven so alignment pads are exercised.
func samplePayload() *FilePayload {
	mk := func(id int, name string, n int) *genx.BlockData {
		bd := &genx.BlockData{
			ID: id, Name: name,
			Mesh: &mesh.TetMesh{},
			Node: map[string][]float64{},
			Elem: map[string][]float64{},
			Time: 2.5e-5, StepID: "0.000025",
		}
		for i := 0; i < 3*n; i++ {
			bd.Mesh.Coords = append(bd.Mesh.Coords, float64(id)+float64(i)*0.25)
		}
		for i := 0; i < 4*n+1; i++ {
			bd.Mesh.Tets = append(bd.Mesh.Tets, int32(i-n))
		}
		for i := 0; i < n; i++ {
			bd.Mesh.GlobalNode = append(bd.Mesh.GlobalNode, int64(i)<<33)
		}
		for i := 0; i < n; i++ {
			bd.Node["velocity"] = append(bd.Node["velocity"], math.Sin(float64(i)))
		}
		for i := 0; i < n-1; i++ {
			bd.Elem["stress_avg"] = append(bd.Elem["stress_avg"], 2e6+float64(i))
		}
		return bd
	}
	return &FilePayload{
		Time:   2.5e-5,
		StepID: "0.000025",
		Blocks: []*genx.BlockData{mk(1, "block_0001", 5), mk(2, "block_0002", 7)},
	}
}

// sameF64s compares float64 slices bit for bit (fuzzed frames decode to
// NaNs, where == would lie).
func sameF64s(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameF64Maps(a, b map[string][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !sameF64s(v, w) {
			return false
		}
	}
	return true
}

// samePayload compares two payloads' decoded content (not backing storage).
func samePayload(t *testing.T, got, want *FilePayload) {
	t.Helper()
	if math.Float64bits(got.Time) != math.Float64bits(want.Time) || got.StepID != want.StepID {
		t.Fatalf("header: got (%v, %q), want (%v, %q)", got.Time, got.StepID, want.Time, want.StepID)
	}
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("blocks: got %d, want %d", len(got.Blocks), len(want.Blocks))
	}
	for i, g := range got.Blocks {
		w := want.Blocks[i]
		if g.ID != w.ID || g.Name != w.Name {
			t.Fatalf("block %d: got (%d, %q), want (%d, %q)", i, g.ID, g.Name, w.ID, w.Name)
		}
		if !sameF64s(g.Mesh.Coords, w.Mesh.Coords) ||
			!reflect.DeepEqual(g.Mesh.Tets, w.Mesh.Tets) ||
			!reflect.DeepEqual(g.Mesh.GlobalNode, w.Mesh.GlobalNode) {
			t.Fatalf("block %d: mesh arrays differ", i)
		}
		if !sameF64Maps(g.Node, w.Node) || !sameF64Maps(g.Elem, w.Elem) {
			t.Fatalf("block %d: field maps differ", i)
		}
	}
}

// The scattered encoding round-trips through flatten+decode and matches the
// original payload element for element.
func TestFilePayloadRoundTripSegments(t *testing.T) {
	fp := samplePayload()
	segs, copied, err := encodeFilePayloadSegments(fp, maxFrame-2)
	if err != nil {
		t.Fatal(err)
	}
	if zerocopy.LittleEndian && copied != 0 {
		t.Fatalf("encode copied %d array bytes on a little-endian host, want 0", copied)
	}
	got, _, err := decodeBody(flattenSegments(segs))
	if err != nil {
		t.Fatal(err)
	}
	samePayload(t, got, fp)
}

// On a little-endian host the encoder borrows array segments in place:
// segment base pointers equal the source slices' data pointers.
func TestEncodeBorrowsArraySegments(t *testing.T) {
	if !zerocopy.LittleEndian {
		t.Skip("borrowing requires a little-endian host")
	}
	fp := samplePayload()
	segs, _, err := encodeFilePayloadSegments(fp, maxFrame-2)
	if err != nil {
		t.Fatal(err)
	}
	coords := fp.Blocks[0].Mesh.Coords
	want := unsafe.Pointer(&coords[0])
	found := false
	for _, seg := range segs {
		if len(seg) > 0 && unsafe.Pointer(&seg[0]) == want {
			if len(seg) != 8*len(coords) {
				t.Fatalf("coords segment is %d bytes, want %d", len(seg), 8*len(coords))
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no segment aliases the first block's coords array")
	}
}

// Decoding from an 8-aligned buffer aliases every array in place: zero
// copied bytes, and the pads put each data section on an 8-byte offset.
func TestDecodeAliasesAlignedBody(t *testing.T) {
	if !zerocopy.LittleEndian {
		t.Skip("aliasing requires a little-endian host")
	}
	fp := samplePayload()
	segs, _, err := encodeFilePayloadSegments(fp, maxFrame-2)
	if err != nil {
		t.Fatal(err)
	}
	flat := flattenSegments(segs)
	// Stage the body the way readFrame does: frame buffer with the payload
	// at buf[2:], 8-byte aligned.
	buf := alignedFrameBuf(2 + len(flat))
	copy(buf[2:], flat)
	body := buf[2:]
	if !zerocopy.Aligned(body, 8) {
		t.Fatal("alignedFrameBuf payload region is not 8-aligned")
	}
	got, copied, err := decodeBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if copied != 0 {
		t.Fatalf("decode copied %d array bytes from an aligned body, want 0", copied)
	}
	samePayload(t, got, fp)
	start := uintptr(unsafe.Pointer(&body[0]))
	end := start + uintptr(len(body))
	for i, bd := range got.Blocks {
		for name, arr := range map[string]unsafe.Pointer{
			"coords": unsafe.Pointer(&bd.Mesh.Coords[0]),
			"tets":   unsafe.Pointer(&bd.Mesh.Tets[0]),
			"gids":   unsafe.Pointer(&bd.Mesh.GlobalNode[0]),
		} {
			if p := uintptr(arr); p < start || p >= end {
				t.Fatalf("block %d %s does not alias the frame body", i, name)
			}
		}
	}

	// The same body at a misaligned address still decodes correctly — by
	// copying, which the counter reports.
	misaligned := zerocopy.MakeOffsetAligned(len(flat), 8, 1)
	copy(misaligned, flat)
	got2, copied2, err := decodeBody(misaligned)
	if err != nil {
		t.Fatal(err)
	}
	if copied2 == 0 {
		t.Fatal("misaligned decode reported zero copied bytes")
	}
	samePayload(t, got2, fp)
}

// Satellite regression: encoders enforce the frame bound. Previously only
// writeFrame checked the limit, after the full response had already been
// assembled in memory; encodeFilePayloadSegments refuses first, with a
// typed error the server maps to CodeInternal.
func TestEncodeFrameLimit(t *testing.T) {
	fp := samplePayload()
	segs, _, err := encodeFilePayloadSegments(fp, maxFrame-2)
	if err != nil {
		t.Fatal(err)
	}
	size := len(flattenSegments(segs))

	// At the limit: fits, round-trips.
	segs, _, err = encodeFilePayloadSegments(fp, size)
	if err != nil {
		t.Fatalf("encode at exact limit %d: %v", size, err)
	}
	if got, _, err := decodeBody(flattenSegments(segs)); err != nil {
		t.Fatal(err)
	} else {
		samePayload(t, got, fp)
	}

	// One byte over: typed refusal, mapped to a permanent protocol code.
	if _, _, err := encodeFilePayloadSegments(fp, size-1); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("encode over limit: %v, want ErrFrameTooLarge", err)
	} else if errCode(err) != CodeInternal {
		t.Fatalf("errCode(ErrFrameTooLarge) = %d, want CodeInternal", errCode(err))
	}
}

// End to end over a real socket: on a little-endian host neither side
// copies a single payload array byte — the server scatter-sends borrowed
// mmap-backed segments and the client decodes views into the pooled frame.
func TestFetchZeroCopyEndToEnd(t *testing.T) {
	if !zerocopy.LittleEndian {
		t.Skip("zero-copy wire path requires a little-endian host")
	}
	spec := genx.Scaled(32)
	spec.Snapshots = 2
	dir := t.TempDir()
	if _, err := genx.WriteDataset(spec, dir); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ServerOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(ClientOptions{Addr: srv.Addr()})
	defer c.Close()

	fp, err := c.FetchFile(genx.SnapshotFile("", 0, 0), []string{"velocity", "stress_avg"})
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Blocks) == 0 {
		t.Fatal("fetch returned no blocks")
	}
	if fp.arena == nil {
		t.Fatal("fetched payload has no pooled frame backing")
	}
	start := uintptr(unsafe.Pointer(&fp.arena.buf[0]))
	end := start + uintptr(len(fp.arena.buf))
	for _, bd := range fp.Blocks {
		if p := uintptr(unsafe.Pointer(&bd.Mesh.Coords[0])); p < start || p >= end {
			t.Fatalf("block %s coords do not alias the response frame", bd.Name)
		}
	}
	if rs := c.Stats(); rs.BytesCopied != 0 {
		t.Fatalf("client copied %d payload bytes, want 0", rs.BytesCopied)
	}
	if ss := srv.Stats(); ss.BytesCopied != 0 {
		t.Fatalf("server copied %d payload bytes, want 0", ss.BytesCopied)
	}
	fp.Recycle()
	if fp.Blocks != nil {
		t.Fatal("Recycle left the payload alive")
	}
}

// Recycle releases a payload's arena claim once; a second Recycle is a
// no-op, not a double put.
func TestRecycleRefCounting(t *testing.T) {
	fp := samplePayload()
	segs, _, err := encodeFilePayloadSegments(fp, maxFrame-2)
	if err != nil {
		t.Fatal(err)
	}
	flat := flattenSegments(segs)
	buf := alignedFrameBuf(2 + len(flat))
	copy(buf[2:], flat)
	got, _, err := decodeBody(buf[2:])
	if err != nil {
		t.Fatal(err)
	}
	arena := &frameArena{buf: buf}
	arena.refs.Store(2) // this payload plus a sibling from the same frame
	got.arena = arena

	got.Recycle()
	if got.Blocks != nil || got.arena != nil {
		t.Fatal("Recycle did not release the payload")
	}
	if n := arena.refs.Load(); n != 1 {
		t.Fatalf("arena holds %d claims after one Recycle, want the sibling's 1", n)
	}
	got.Recycle() // spent: must be a no-op, not a double release
	if n := arena.refs.Load(); n != 1 {
		t.Fatalf("a second Recycle left the arena %d claims, want 1", n)
	}

	// A payload that never came from the pool ignores Recycle entirely.
	plain := samplePayload()
	plain.Recycle()
	if plain.Blocks == nil {
		t.Fatal("Recycle cleared a payload with no pooled backing")
	}
}
