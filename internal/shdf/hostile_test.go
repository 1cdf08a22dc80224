package shdf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// threeSDS is an image of three one-element SDS objects "a", "b" and "c",
// holding 10, 20 and 30, written with refs 1, 2 and 3.
func threeSDS(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"a", "b", "c"} {
		if _, err := w.WriteSDS(name, []int{1}, []int32{int32(10 * (i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withRefs returns a copy of data whose directory entries carry refs, in
// directory order.
func withRefs(t *testing.T, data []byte, refs ...Ref) []byte {
	t.Helper()
	mut := append([]byte(nil), data...)
	off := dirOffsetOf(t, mut)
	for _, ref := range refs {
		binary.LittleEndian.PutUint32(mut[off+2:], uint32(ref))
		off += 28 + int(binary.LittleEndian.Uint16(mut[off+26:]))
	}
	return mut
}

// answers lists what Info and ReadSDS answer for refs 0 to 4 and what
// FindByName answers for each name, one line each.
func answers(t *testing.T, data []byte) string {
	t.Helper()
	f, err := NewFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for ref := Ref(0); ref <= 4; ref++ {
		if info, err := f.Info(ref); err != nil {
			fmt.Fprintf(&b, "Info(%d): no object %v\n", ref, errors.Is(err, ErrNoObject))
		} else {
			fmt.Fprintf(&b, "Info(%d): %s ref %d at %d\n", ref, info.Name, info.Ref, info.Offset)
		}
		if ds, err := f.ReadSDS(ref); err != nil {
			fmt.Fprintf(&b, "ReadSDS(%d): no object %v\n", ref, errors.Is(err, ErrNoObject))
		} else {
			fmt.Fprintf(&b, "ReadSDS(%d): %s %v\n", ref, ds.Name, ds.Int32s)
		}
	}
	for _, name := range []string{"a", "b", "c"} {
		if info, err := f.FindByName(TagSDS, name); err != nil {
			fmt.Fprintf(&b, "FindByName(%s): %v\n", name, err)
		} else {
			fmt.Fprintf(&b, "FindByName(%s): ref %d at %d\n", name, info.Ref, info.Offset)
		}
	}
	return b.String()
}

// A directory that names one ref twice, or lists refs out of order, is
// answered as the reader has always answered it: Info and ReadSDS by the
// last entry with the ref, FindByName by the first entry with the name.
// The expected answers were captured before the directory lost its ref
// map.
func TestHostileDirectoryRefs(t *testing.T) {
	data := threeSDS(t)
	for _, tc := range []struct {
		name string
		refs []Ref
		want string
	}{
		{"duplicate", []Ref{1, 2, 1}, `Info(0): no object true
ReadSDS(0): no object true
Info(1): c ref 1 at 44
ReadSDS(1): c [30]
Info(2): b ref 2 at 28
ReadSDS(2): b [20]
Info(3): no object true
ReadSDS(3): no object true
Info(4): no object true
ReadSDS(4): no object true
FindByName(a): ref 1 at 12
FindByName(b): ref 2 at 28
FindByName(c): ref 1 at 44
`},
		{"out of order", []Ref{3, 1, 2}, `Info(0): no object true
ReadSDS(0): no object true
Info(1): b ref 1 at 28
ReadSDS(1): b [20]
Info(2): c ref 2 at 44
ReadSDS(2): c [30]
Info(3): a ref 3 at 12
ReadSDS(3): a [10]
Info(4): no object true
ReadSDS(4): no object true
FindByName(a): ref 3 at 12
FindByName(b): ref 1 at 28
FindByName(c): ref 2 at 44
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := answers(t, withRefs(t, data, tc.refs...)); got != tc.want {
				t.Errorf("answers:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

// A footer that claims 2³²−1 entries over a directory of three is corrupt,
// and is refused without allocating for the claimed count.
func TestHostileDirectoryCount(t *testing.T) {
	data := threeSDS(t)
	binary.LittleEndian.PutUint32(data[len(data)-8:], 1<<32-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewFile(bytes.NewReader(data), int64(len(data)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open: %v, want ErrCorrupt", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Fatalf("open of a 2³²−1-entry footer allocated %d bytes, want at most 64 KiB", n)
	}
}
