package shdf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"godiva/internal/zerocopy"
)

// oracle is the element-wise encoder the streaming Writer replaced, kept as
// the byte-identity reference: every object's payload is built whole in
// memory, element by element, hashed with one ChecksumIEEE and appended to
// the image; Close builds the directory the same way.
type oracle struct {
	img     []byte
	dir     []oracleEntry
	nextRef Ref
}

// oracleEntry is one directory record the oracle writes, name and all.
type oracleEntry struct {
	dirEntry
	name string
}

func newOracle() *oracle {
	o := &oracle{nextRef: 1}
	o.img = append(o.img, magic...)
	o.img = binary.LittleEndian.AppendUint32(o.img, version)
	return o
}

func (o *oracle) add(tag Tag, name string, p []byte) Ref {
	ref := o.nextRef
	o.nextRef++
	o.dir = append(o.dir, oracleEntry{dirEntry{tag: tag, ref: ref, offset: uint64(len(o.img)),
		length: uint64(len(p)), crc: crc32.ChecksumIEEE(p)}, name})
	o.img = append(o.img, p...)
	return ref
}

func (o *oracle) sds(name string, dims []int, data any) Ref {
	for (len(o.img)-4)%8 != 0 {
		o.img = append(o.img, 0)
	}
	le := binary.LittleEndian
	p := le.AppendUint16(nil, uint16(numTypeOf(data)))
	p = le.AppendUint16(p, uint16(len(dims)))
	for _, d := range dims {
		p = le.AppendUint64(p, uint64(d))
	}
	switch v := data.(type) {
	case []uint8:
		p = append(p, v...)
	case []int32:
		for _, x := range v {
			p = le.AppendUint32(p, uint32(x))
		}
	case []int64:
		for _, x := range v {
			p = le.AppendUint64(p, uint64(x))
		}
	case []float32:
		for _, x := range v {
			p = le.AppendUint32(p, math.Float32bits(x))
		}
	case []float64:
		for _, x := range v {
			p = le.AppendUint64(p, math.Float64bits(x))
		}
	}
	return o.add(TagSDS, name, p)
}

func (o *oracle) attr(name string, value any) Ref {
	le := binary.LittleEndian
	var p []byte
	switch v := value.(type) {
	case string:
		p = le.AppendUint16(p, uint16(TypeUint8))
		p = le.AppendUint64(p, uint64(len(v)))
		p = append(p, v...)
	case int64:
		p = le.AppendUint16(p, uint16(TypeInt64))
		p = le.AppendUint64(p, 1)
		p = le.AppendUint64(p, uint64(v))
	case int:
		p = le.AppendUint16(p, uint16(TypeInt64))
		p = le.AppendUint64(p, 1)
		p = le.AppendUint64(p, uint64(int64(v)))
	case float64:
		p = le.AppendUint16(p, uint16(TypeFloat64))
		p = le.AppendUint64(p, 1)
		p = le.AppendUint64(p, math.Float64bits(v))
	}
	return o.add(TagAttr, name, p)
}

func (o *oracle) vgroup(name string, members []Ref) Ref {
	p := binary.LittleEndian.AppendUint32(nil, uint32(len(members)))
	for _, m := range members {
		p = binary.LittleEndian.AppendUint32(p, uint32(m))
	}
	return o.add(TagVGroup, name, p)
}

func (o *oracle) close() []byte {
	le := binary.LittleEndian
	dirOffset := uint64(len(o.img))
	for _, e := range o.dir {
		o.img = le.AppendUint16(o.img, uint16(e.tag))
		o.img = le.AppendUint32(o.img, uint32(e.ref))
		o.img = le.AppendUint64(o.img, e.offset)
		o.img = le.AppendUint64(o.img, e.length)
		o.img = le.AppendUint32(o.img, e.crc)
		o.img = le.AppendUint16(o.img, uint16(len(e.name)))
		o.img = append(o.img, e.name...)
	}
	o.img = le.AppendUint64(o.img, dirOffset)
	o.img = le.AppendUint32(o.img, uint32(len(o.dir)))
	return append(o.img, footerMagic...)
}

func numTypeOf(data any) NumType {
	switch data.(type) {
	case []uint8:
		return TypeUint8
	case []int32:
		return TypeInt32
	case []int64:
		return TypeInt64
	case []float32:
		return TypeFloat32
	case []float64:
		return TypeFloat64
	}
	return 0
}

// wop is one Writer call: an SDS (dims, data), an attribute (value) or a
// vgroup (members).
type wop struct {
	tag     Tag
	name    string
	dims    []int
	data    any // SDS data or attribute value
	members []Ref
}

// writeBoth runs ops through a streaming Writer and through the oracle and
// returns both images.
func writeBoth(ops []wop) (got, want []byte, err error) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		return nil, nil, err
	}
	o := newOracle()
	for _, op := range ops {
		var ref, oref Ref
		switch op.tag {
		case TagSDS:
			ref, err = w.WriteSDS(op.name, op.dims, op.data)
			oref = o.sds(op.name, op.dims, op.data)
		case TagAttr:
			ref, err = w.WriteAttr(op.name, op.data)
			oref = o.attr(op.name, op.data)
		case TagVGroup:
			ref, err = w.WriteVGroup(op.name, op.members)
			oref = o.vgroup(op.name, op.members)
		}
		if err != nil {
			return nil, nil, err
		}
		if ref != oref {
			return nil, nil, errors.New("writer and oracle disagree on a ref")
		}
	}
	if err := w.Close(); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), o.close(), nil
}

// bothModes runs fn on the host's native path and again with the
// little-endian fast path switched off, which streams every array through
// the Writer's chunked encoder. It flips a package-level switch, so callers
// must not run in parallel.
func bothModes(t *testing.T, fn func(t *testing.T)) {
	t.Run("native", fn)
	t.Run("chunked", func(t *testing.T) {
		defer func(le bool) { zerocopy.LittleEndian = le }(zerocopy.LittleEndian)
		zerocopy.LittleEndian = false
		fn(t)
	})
}

// checkSame fails t unless the Writer and the oracle encode ops identically.
func checkSame(t *testing.T, ops []wop) {
	t.Helper()
	got, want, err := writeBoth(ops)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("streaming Writer wrote %d bytes that differ from the oracle's %d", len(got), len(want))
	}
}

// sampleOps writes every NumType, including special floats and arrays
// longer than the Writer's scratch, every attribute kind, and vgroups small
// and larger than one scratch chunk.
func sampleOps() []wop {
	long := make([]float64, 1000) // 8000 bytes: two scratch chunks
	for i := range long {
		long[i] = float64(i) * 0.5
	}
	odd := make([]int32, 1025) // one element past a chunk
	for i := range odd {
		odd[i] = int32(i*7919) - 1<<30
	}
	members := make([]Ref, 1500)
	for i := range members {
		members[i] = Ref(i%5 + 1)
	}
	return []wop{
		{tag: TagSDS, name: "u8", dims: []int{3}, data: []uint8{0, 127, 255}},
		{tag: TagSDS, name: "i32", dims: []int{2, 2}, data: []int32{math.MinInt32, -1, 0, math.MaxInt32}},
		{tag: TagSDS, name: "i64", dims: []int{3}, data: []int64{math.MinInt64, 0, math.MaxInt64}},
		{tag: TagSDS, name: "f32", dims: []int{5}, data: []float32{float32(math.Inf(-1)), float32(math.Copysign(0, -1)), 1.5, float32(math.NaN()), math.MaxFloat32}},
		{tag: TagSDS, name: "f64", dims: []int{1, 5}, data: []float64{math.Inf(1), math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.NaN(), -2.25}},
		{tag: TagSDS, name: "long", dims: []int{250, 4}, data: long},
		{tag: TagSDS, name: "odd", dims: []int{5, 5, 41}, data: odd},
		{tag: TagAttr, name: "s", data: "pascal"},
		{tag: TagAttr, name: "empty", data: ""},
		{tag: TagAttr, name: "longstr", data: strings.Repeat("godiva ", 1200)},
		{tag: TagAttr, name: "i64attr", data: int64(-7)},
		{tag: TagAttr, name: "int", data: 42},
		{tag: TagAttr, name: "f64attr", data: math.Pi},
		{tag: TagVGroup, name: "group", members: []Ref{1, 2, 3}},
		{tag: TagVGroup, name: "", members: nil},
		{tag: TagVGroup, name: "big", members: members},
	}
}

func TestWriterMatchesOracle(t *testing.T) {
	bothModes(t, func(t *testing.T) {
		checkSame(t, sampleOps())
	})
}

// randomFile is a sequence of Writer calls for testing/quick: SDSs of every
// type with ranks 1–16 and random shapes, attributes and vgroups.
type randomFile []wop

func (randomFile) Generate(r *rand.Rand, size int) reflect.Value {
	var ops randomFile
	for i := r.Intn(size + 1); i >= 0; i-- {
		name := string(rune('a' + r.Intn(26)))
		switch r.Intn(4) {
		case 0, 1:
			ops = append(ops, randomSDS(r, name))
		case 2:
			ops = append(ops, wop{tag: TagAttr, name: name, data: []any{
				strings.Repeat("x", r.Intn(64)), r.Int63(), int(r.Int31()), r.NormFloat64()}[r.Intn(4)]})
		default:
			members := make([]Ref, r.Intn(len(ops)+1))
			for j := range members {
				members[j] = Ref(r.Intn(len(ops)) + 1)
			}
			ops = append(ops, wop{tag: TagVGroup, name: name, members: members})
		}
	}
	return reflect.ValueOf(ops)
}

// randomSDS draws a rank 1–16 SDS of a random type holding at most 4096
// elements.
func randomSDS(r *rand.Rand, name string) wop {
	dims := make([]int, r.Intn(maxRank)+1)
	n := 1
	for i := range dims {
		dims[i] = 1
		if d := r.Intn(12) + 1; n*d <= 4096 {
			dims[i] = d
			n *= d
		}
	}
	var data any
	switch NumType(r.Intn(5) + 1) {
	case TypeUint8:
		v := make([]uint8, n)
		r.Read(v)
		data = v
	case TypeInt32:
		v := make([]int32, n)
		for i := range v {
			v[i] = int32(r.Uint32())
		}
		data = v
	case TypeInt64:
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(r.Uint64())
		}
		data = v
	case TypeFloat32:
		v := make([]float32, n)
		for i := range v {
			v[i] = math.Float32frombits(r.Uint32())
		}
		data = v
	default:
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Float64frombits(r.Uint64())
		}
		data = v
	}
	return wop{tag: TagSDS, name: name, dims: dims, data: data}
}

func TestQuickWriterMatchesOracle(t *testing.T) {
	bothModes(t, func(t *testing.T) {
		err := quick.Check(func(ops randomFile) bool {
			got, want, err := writeBoth(ops)
			return err == nil && bytes.Equal(got, want)
		}, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(38))})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// The writer must refuse, before writing a byte, every object its own
// reader would reject: a rank over 16, dims whose element count overflows
// (and so can wrap to match the data), and a name the directory's u16
// length cannot hold (the entry would swallow the next one).
func TestWriterRefusesUnreadable(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("n", 70000)
	refusals := map[string]func() (Ref, error){
		"rank 17": func() (Ref, error) {
			dims := make([]int, 17)
			for i := range dims {
				dims[i] = 1
			}
			return w.WriteSDS("x", dims, []float64{1})
		},
		"wrapping dims":  func() (Ref, error) { return w.WriteSDS("x", []int{1 << 32, 1 << 32}, []float64{}) },
		"overflow dims":  func() (Ref, error) { return w.WriteSDS("x", []int{math.MaxInt, 2}, []uint8{1}) },
		"long SDS name":  func() (Ref, error) { return w.WriteSDS(long, []int{1}, []float64{1}) },
		"long attr name": func() (Ref, error) { return w.WriteAttr(long, 1.5) },
		"long vgroup":    func() (Ref, error) { return w.WriteVGroup(long, nil) },
	}
	for what, write := range refusals {
		if _, err := write(); !errors.Is(err, ErrBadShape) {
			t.Errorf("%s: err = %v, want ErrBadShape", what, err)
		}
	}
	// Nothing the refusals touched reached the file: it holds one readable
	// object and matches the oracle's image of that object alone.
	ref, err := w.WriteSDS("ok", []int{2}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	o := newOracle()
	o.sds("ok", []int{2}, []float64{1, 2})
	if !bytes.Equal(buf.Bytes(), o.close()) {
		t.Fatal("refused writes left bytes in the file")
	}
	f, err := NewFile(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if ds, err := f.ReadSDS(ref); err != nil || ds.Float64s[1] != 2 {
		t.Fatalf("ReadSDS = %v, %v", ds, err)
	}
	// At the limits the writer accepts, its reader does too.
	var ok bytes.Buffer
	w, err = NewWriter(&ok)
	if err != nil {
		t.Fatal(err)
	}
	dims := make([]int, maxRank)
	for i := range dims {
		dims[i] = 1
	}
	name := strings.Repeat("n", math.MaxUint16)
	if ref, err = w.WriteSDS(name, dims, []int32{9}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = NewFile(bytes.NewReader(ok.Bytes()), int64(ok.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if ds, err := f.ReadSDS(ref); err != nil || ds.Name != name || len(ds.Dims) != maxRank || ds.Int32s[0] != 9 {
		t.Fatalf("rank-%d SDS with a %d-byte name: %v", maxRank, len(name), err)
	}
}

// opsFromBytes decodes a fuzz input into a short sequence of valid Writer
// calls: each op takes a kind byte, a name length and the bytes it needs,
// cycling through the input for array elements.
func opsFromBytes(b []byte) []wop {
	pos := 0
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		c := b[pos%len(b)]
		pos++
		return c
	}
	var ops []wop
	for len(ops) < 8 && pos < len(b) {
		name := make([]byte, next()%8)
		for i := range name {
			name[i] = next()
		}
		switch next() % 4 {
		case 0, 1:
			dims := make([]int, next()%maxRank+1)
			n := 1
			for i := range dims {
				dims[i] = 1
				if d := int(next()%9) + 1; n*d <= 512 {
					dims[i] = d
					n *= d
				}
			}
			raw := make([]byte, 8*n)
			for i := range raw {
				raw[i] = next()
			}
			var data any
			switch next() % 5 {
			case 0:
				data = raw[:n]
			case 1:
				v := make([]int32, n)
				for i := range v {
					v[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
				}
				data = v
			case 2:
				v := make([]int64, n)
				for i := range v {
					v[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
				}
				data = v
			case 3:
				v := make([]float32, n)
				for i := range v {
					v[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
				}
				data = v
			default:
				v := make([]float64, n)
				for i := range v {
					v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
				}
				data = v
			}
			ops = append(ops, wop{tag: TagSDS, name: string(name), dims: dims, data: data})
		case 2:
			var x [8]byte
			for i := range x {
				x[i] = next()
			}
			u := binary.LittleEndian.Uint64(x[:])
			values := []any{string(x[:x[0]%9]), int64(u), int(int32(u)), math.Float64frombits(u)}
			ops = append(ops, wop{tag: TagAttr, name: string(name), data: values[next()%4]})
		default:
			members := make([]Ref, next()%6)
			for i := range members {
				members[i] = Ref(next())
			}
			ops = append(ops, wop{tag: TagVGroup, name: string(name), members: members})
		}
	}
	return ops
}

// sameBits reports whether a read-back SDS holds exactly the written data
// (bitwise, so NaNs compare equal to themselves).
func sameBits(ds *Dataset, data any) bool {
	o1, o2 := newOracle(), newOracle()
	o1.sds("", ds.Dims, map[NumType]any{TypeUint8: ds.Uint8s, TypeInt32: ds.Int32s,
		TypeInt64: ds.Int64s, TypeFloat32: ds.Float32s, TypeFloat64: ds.Float64s}[ds.Type])
	o2.sds("", ds.Dims, data)
	return bytes.Equal(o1.img, o2.img)
}

// FuzzWriter drives the streaming Writer with arbitrary object sequences,
// on the native path and the chunked one, and checks that its image equals
// the oracle's byte for byte and reads back through NewFile to the objects
// written.
func FuzzWriter(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		ops := opsFromBytes(b)
		bothModes(t, func(t *testing.T) {
			got, want, err := writeBoth(ops)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("streaming Writer differs from the oracle")
			}
			file, err := NewFile(bytes.NewReader(got), int64(len(got)))
			if err != nil {
				t.Fatal(err)
			}
			for i, op := range ops {
				ref := Ref(i + 1)
				switch op.tag {
				case TagSDS:
					ds, err := file.ReadSDS(ref)
					if err != nil || ds.Name != op.name || !sameBits(ds, op.data) {
						t.Fatalf("SDS %d read back wrong: %v", ref, err)
					}
				case TagAttr:
					a, err := file.ReadAttr(ref)
					if err != nil || a.Name != op.name {
						t.Fatalf("attr %d: %v", ref, err)
					}
					o := newOracle()
					o.attr(op.name, op.data)
					var back any
					switch {
					case a.IsStr:
						back = a.Str
					case a.IsInt:
						back = a.Int
					default:
						back = a.Float
					}
					o2 := newOracle()
					o2.attr(op.name, back)
					if !bytes.Equal(o.img, o2.img) {
						t.Fatalf("attr %d read back as %v, wrote %v", ref, back, op.data)
					}
				case TagVGroup:
					g, err := file.ReadVGroup(ref)
					if err != nil || g.Name != op.name || len(g.Members) != len(op.members) {
						t.Fatalf("vgroup %d: %v", ref, err)
					}
					for j, m := range g.Members {
						if m != op.members[j] {
							t.Fatalf("vgroup %d member %d = %d, wrote %d", ref, j, m, op.members[j])
						}
					}
				}
			}
		})
	})
}

// benchWriteSDS writes one 1 MiB float64 SDS per op to a Writer over
// io.Discard. The directory and its names are sized up front, so what is measured is
// WriteSDS's own allocation, not the amortized growth of the entry list.
func benchWriteSDS(b *testing.B) {
	w, err := NewWriter(io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	w.dir = make([]writtenEntry, 0, b.N)
	w.names = make([]byte, 0, len("field")*b.N)
	const n = 1 << 17
	dims := []int{n}
	var data any = make([]float64, n) // boxed once, as the noalloc gates do
	b.SetBytes(8 * n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.WriteSDS("field", dims, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteSDS(b *testing.B) { benchWriteSDS(b) }

// A Writer reset onto a new stream writes what a fresh one writes: after a
// whole file, after a file abandoned mid-object on a write error, and after
// one abandoned without Close.
func TestWriterResetMatchesOracle(t *testing.T) {
	ops := sampleOps()
	_, want, err := writeBoth(ops)
	if err != nil {
		t.Fatal(err)
	}
	var w Writer
	write := func(dst io.Writer, ops []wop) error {
		if err := w.Reset(dst); err != nil {
			return err
		}
		for _, op := range ops {
			switch op.tag {
			case TagSDS:
				_, err = w.WriteSDS(op.name, op.dims, op.data)
			case TagAttr:
				_, err = w.WriteAttr(op.name, op.data)
			case TagVGroup:
				_, err = w.WriteVGroup(op.name, op.members)
			}
			if err != nil {
				return err
			}
		}
		return w.Close()
	}
	for _, before := range []struct {
		name string
		run  func() error
	}{
		{"whole file", func() error { return write(io.Discard, ops) }},
		{"write error", func() error {
			if err := write(&failAfter{n: 9000}, ops); err == nil {
				return errors.New("a failing destination took the file")
			}
			return nil
		}},
		{"no close", func() error {
			if err := w.Reset(io.Discard); err != nil {
				return err
			}
			_, err := w.WriteSDS("dropped", []int{2}, []float64{1, 2})
			return err
		}},
	} {
		if err := before.run(); err != nil {
			t.Fatalf("%s: %v", before.name, err)
		}
		var buf bytes.Buffer
		if err := write(&buf, ops); err != nil {
			t.Fatalf("after %s: %v", before.name, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("after %s, a reset Writer wrote %d bytes that differ from a fresh one's %d", before.name, buf.Len(), len(want))
		}
	}
}

// failAfter accepts n bytes and fails every write from then on.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k := f.n
		f.n = 0
		return k, errors.New("destination full")
	}
	f.n -= len(p)
	return len(p), nil
}

// BenchmarkWriterReuse writes a file of 16 SDS objects, three attributes
// and their vgroup per op through one Writer reset onto io.Discard: once
// the first file has sized the Writer's buffer, directory and names, a
// file allocates nothing.
func BenchmarkWriterReuse(b *testing.B) {
	var w Writer
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("b0001:field%02d", i)
	}
	dims := []int{64, 3}
	var data, t any = make([]float64, 64*3), 2.5e-5 // boxed once
	members := make([]Ref, 0, len(names))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.Reset(io.Discard); err != nil {
			b.Fatal(err)
		}
		members = members[:0]
		for _, name := range names {
			ref, err := w.WriteSDS(name, dims, data)
			if err != nil {
				b.Fatal(err)
			}
			members = append(members, ref)
		}
		if _, err := w.WriteVGroup("block_0001", members); err != nil {
			b.Fatal(err)
		}
		for _, attr := range []struct {
			name  string
			value any
		}{{"time", t}, {"step", 0}, {"step_id", "0.000025"}} {
			if _, err := w.WriteAttr(attr.name, attr.value); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
