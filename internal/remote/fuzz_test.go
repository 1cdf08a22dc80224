package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"godiva/internal/genx"
	"godiva/internal/push"
)

// decodeBody runs the item-body decoder (dec.filePayload) over one encoded
// FilePayload body, the way decodeFetchResp does for each ok item.
func decodeBody(b []byte) (fp *FilePayload, copied int64, err error) {
	d := dec{b: b}
	fp = d.filePayload()
	return fp, d.copied, d.err
}

// FuzzFilePayload feeds arbitrary bodies through the FilePayload decoder —
// the bytes a client accepts from the network — and round-trips whatever
// decodes: decode → encode segments → flatten → decode must reproduce the
// same payload, and nothing may panic. The corpus seeds a valid encoding
// plus truncations and count mutations (see TestWriteFuzzCorpus, which
// mirrors the shdf FuzzReader corpus setup).
func FuzzFilePayload(f *testing.F) {
	for _, s := range payloadSeedInputs() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fp, _, err := decodeBody(b)
		if err != nil {
			return // rejected: the desired outcome for damaged frames
		}
		segs, _, err := encodeFilePayloadSegments(fp, maxFrame-2)
		if err != nil {
			t.Fatalf("re-encoding a decoded payload failed: %v", err)
		}
		again, _, err := decodeBody(flattenSegments(segs))
		if err != nil {
			t.Fatalf("re-decoding a re-encoded payload failed: %v", err)
		}
		if len(again.Blocks) != len(fp.Blocks) {
			t.Fatalf("round trip changed block count: %d != %d", len(again.Blocks), len(fp.Blocks))
		}
		samePayload(t, again, fp)
	})
}

// FuzzFetchFrame feeds arbitrary bodies through the OpFetch response decoder
// — the multi-file frames a client accepts from the server — and round-trips
// whatever decodes: every ok item re-encodes through the same
// segment encoder the server uses (cached segments included), every error
// item must keep its code and message, and nothing may panic.
func FuzzFetchFrame(f *testing.F) {
	for _, s := range fetchSeedInputs() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		results, _, err := decodeFetchResp(b)
		if err != nil {
			return // rejected: the desired outcome for damaged frames
		}
		var out segEnc
		out.e.u32(uint32(len(results)))
		for _, r := range results {
			if r.err != nil {
				out.appendFetchItem(nil, 0, r.err)
				continue
			}
			segs, _, err := encodeFilePayloadSegments(r.fp, maxFrame-2)
			if err != nil {
				t.Fatalf("re-encoding a decoded fetch item failed: %v", err)
			}
			size := 0
			for _, s := range segs {
				size += len(s)
			}
			out.appendFetchItem(segs, size, nil)
		}
		out.flush()
		again, _, err := decodeFetchResp(flattenSegments(out.segs))
		if err != nil {
			t.Fatalf("re-decoding a re-encoded fetch frame failed: %v", err)
		}
		if len(again) != len(results) {
			t.Fatalf("round trip changed item count: %d != %d", len(again), len(results))
		}
		for i := range results {
			if results[i].err != nil {
				if again[i].err == nil || again[i].err.Code != results[i].err.Code ||
					again[i].err.Msg != results[i].err.Msg {
					t.Fatalf("round trip changed error item %d: %+v != %+v",
						i, again[i].err, results[i].err)
				}
				continue
			}
			if again[i].fp == nil {
				t.Fatalf("round trip lost ok item %d", i)
			}
			samePayload(t, again[i].fp, results[i].fp)
		}
	})
}

// FuzzSpec does the same for the OpSpec payload.
func FuzzSpec(f *testing.F) {
	for _, s := range specSeedInputs() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := decodeSpec(b)
		if err != nil {
			return
		}
		again, err := decodeSpec(encodeSpec(s))
		if err != nil {
			t.Fatalf("re-decoding a re-encoded spec failed: %v", err)
		}
		// Compare DT bit for bit: fuzzed frames decode to NaN, where ==
		// would report a spurious mismatch.
		if again.Snapshots != s.Snapshots || again.FilesPerSnapshot != s.FilesPerSnapshot ||
			again.Blocks != s.Blocks || math.Float64bits(again.DT) != math.Float64bits(s.DT) {
			t.Fatalf("round trip changed spec: %+v != %+v", again, s)
		}
	})
}

// FuzzSubSpec feeds arbitrary bodies through the OpSubscribe request
// decoder — the bytes a server accepts before granting a long-lived stream —
// and round-trips whatever decodes.
func FuzzSubSpec(f *testing.F) {
	for _, s := range subSpecSeedInputs() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		spec, opts, err := decodeSubReq(b)
		if err != nil {
			return // rejected: the desired outcome for damaged frames
		}
		again, aopts, err := decodeSubReq(encodeSubReq(spec, opts))
		if err != nil {
			t.Fatalf("re-decoding a re-encoded subscribe request failed: %v", err)
		}
		if again != spec || aopts != opts {
			t.Fatalf("round trip changed request: %+v/%+v != %+v/%+v", again, aopts, spec, opts)
		}
	})
}

// FuzzEventFrame does the same for OpEvent frames — the bytes a subscriber
// accepts from the network for the lifetime of its stream.
func FuzzEventFrame(f *testing.F) {
	for _, s := range eventSeedInputs() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ev, err := decodeEvent(b)
		if err != nil {
			return
		}
		again, err := decodeEvent(encodeEvent(ev))
		if err != nil {
			t.Fatalf("re-decoding a re-encoded event failed: %v", err)
		}
		// Compare Time bit for bit: fuzzed frames may decode to NaN.
		if again.Seq != ev.Seq || again.Step != ev.Step || again.File != ev.File ||
			math.Float64bits(again.Time) != math.Float64bits(ev.Time) ||
			again.Path != ev.Path || again.StepID != ev.StepID {
			t.Fatalf("round trip changed event: %+v != %+v", again, ev)
		}
	})
}

// payloadSeedInputs is the checked-in seed corpus for FuzzFilePayload: a
// valid encoding, its interesting truncations, and a block-count mutation.
func payloadSeedInputs() [][]byte {
	segs, _, err := encodeFilePayloadSegments(samplePayload(), maxFrame-2)
	if err != nil {
		panic(err)
	}
	data := flattenSegments(segs)
	seeds := [][]byte{data}
	for _, n := range []int{0, 8, 12, len(data) / 2, len(data) - 1} {
		if n <= len(data) {
			seeds = append(seeds, append([]byte(nil), data[:n]...))
		}
	}
	// Wild block count: f64 time (8) + str stepID (2 + len) puts the u32
	// count right after the step-ID string.
	if at := 8 + 2 + len("0.000025"); at+4 <= len(data) {
		mut := append([]byte(nil), data...)
		mut[at], mut[at+1], mut[at+2], mut[at+3] = 0xFF, 0xFF, 0xFF, 0xFF
		seeds = append(seeds, mut)
	}
	return seeds
}

// fetchSeedInputs seeds FuzzFetchFrame: a valid 3-item frame (two payloads
// around an error item, exactly what a partly-failing fetch answers), its
// interesting truncations, and an item-count mutation.
func fetchSeedInputs() [][]byte {
	data := fetchRespBody(nil, &ServerError{Code: CodeNotFound, Msg: "no such snapshot"}, nil)
	seeds := [][]byte{data}
	for _, n := range []int{0, 4, 5, 16, len(data) / 2, len(data) - 1} {
		if n <= len(data) {
			seeds = append(seeds, append([]byte(nil), data[:n]...))
		}
	}
	// Wild item count: the u32 count is the frame's first field.
	mut := append([]byte(nil), data...)
	mut[0], mut[1], mut[2], mut[3] = 0xFF, 0xFF, 0xFF, 0xFF
	seeds = append(seeds, mut)
	return seeds
}

// specSeedInputs seeds FuzzSpec with a valid encoding and truncations.
func specSeedInputs() [][]byte {
	data := encodeSpec(genx.Spec{Snapshots: 32, FilesPerSnapshot: 8, Blocks: 120, DT: 2.5e-5})
	return [][]byte{data, data[:4], data[:0], append([]byte(nil), data[:len(data)-1]...)}
}

// subSpecSeedInputs seeds FuzzSubSpec with valid encodings (both policies,
// a bounded and an open-ended rule), truncations, an unknown policy, and a
// v2 request.
func subSpecSeedInputs() [][]byte {
	full := encodeSubReq(push.Spec{ToStep: 30}, push.Options{Queue: 16, Policy: push.Block})
	open := encodeSubReq(push.Spec{ToStep: -1}, push.Options{Policy: push.DropOldest})
	seeds := [][]byte{full, open}
	for _, n := range []int{0, 4, 5, len(full) - 1} {
		seeds = append(seeds, append([]byte(nil), full[:n]...))
	}
	// Unknown policy: the u8 right after the i32 step bound.
	badPolicy := append([]byte(nil), full...)
	badPolicy[4] = 0xFF
	return append(seeds, badPolicy, v2SubReq())
}

// eventSeedInputs seeds FuzzEventFrame with a valid encoding, truncations,
// and a v2 event.
func eventSeedInputs() [][]byte {
	data := encodeEvent(sampleEvent())
	seeds := [][]byte{data}
	for _, n := range []int{0, 8, 24, len(data) / 2, len(data) - 1} {
		seeds = append(seeds, append([]byte(nil), data[:n]...))
	}
	return append(seeds, v2Event())
}

func sampleEvent() push.Event {
	return push.Event{
		Seq: 7, Step: 3, File: 1, Time: 1e-4,
		Path: "genx_t0003_1.shdf", StepID: "0.000100",
	}
}

// v2SubReq is an open-ended DropOldest subscribe request in the version 2
// layout: i32 fromStep | i32 toStep | i32 stride | u8 policy | i32 queue |
// u16 nfields | u16 nfiles.
func v2SubReq() []byte {
	var e enc
	e.i32(0)
	e.i32(-1)
	e.i32(1)
	e.b = append(e.b, byte(push.DropOldest))
	e.i32(0)
	e.u16(0)
	e.u16(0)
	return e.b
}

// v2Event is sampleEvent in the version 2 layout, which ended with a
// u16-counted field-name list.
func v2Event() []byte {
	e := enc{b: encodeEvent(sampleEvent())}
	e.u16(1)
	e.str("velocity")
	return e.b
}

// A peer still speaking version 2 is refused with ErrProtocol: by the frame
// header's version byte, and by the push decoders should a v2 body arrive
// in a v3 frame.
func TestV2FramesRefused(t *testing.T) {
	frame := []byte{0, 0, 0, 0, 2, OpSubscribe}
	frame = append(frame, v2SubReq()...)
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	if _, _, err := readFrame(bytes.NewReader(frame)); !errors.Is(err, ErrProtocol) {
		t.Errorf("readFrame(v2 frame) = %v, want ErrProtocol", err)
	}
	if _, _, err := decodeSubReq(v2SubReq()); !errors.Is(err, ErrProtocol) {
		t.Errorf("decodeSubReq(v2 body) = %v, want ErrProtocol", err)
	}
	if _, err := decodeEvent(v2Event()); !errors.Is(err, ErrProtocol) {
		t.Errorf("decodeEvent(v2 body) = %v, want ErrProtocol", err)
	}
}

// TestWriteFuzzCorpus regenerates the on-disk seed corpora. It is a no-op
// unless REMOTE_WRITE_CORPUS=1, so normal test runs never touch the tree:
//
//	REMOTE_WRITE_CORPUS=1 go test -run TestWriteFuzzCorpus ./internal/remote
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("REMOTE_WRITE_CORPUS") == "" {
		t.Skip("set REMOTE_WRITE_CORPUS=1 to regenerate testdata/fuzz")
	}
	for fuzz, seeds := range map[string][][]byte{
		"FuzzFilePayload": payloadSeedInputs(),
		"FuzzFetchFrame":  fetchSeedInputs(),
		"FuzzSpec":        specSeedInputs(),
		"FuzzSubSpec":     subSpecSeedInputs(),
		"FuzzEventFrame":  eventSeedInputs(),
	} {
		dir := filepath.Join("testdata", "fuzz", fuzz)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
