package genx

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"godiva/internal/mesh"
	"godiva/internal/zerocopy"
)

// Plain binary format: the alternative the paper contrasts with scientific
// data libraries ("scientists often like to write data files using popular,
// standardized scientific data libraries [which] have at visualization time
// a higher input cost than do plain binary files"). One file per snapshot
// file slot holds the raw little-endian arrays back to back, preceded by a
// minimal fixed-layout table of contents: no tags, no checksums, no typed
// attribute machinery — and correspondingly little decode work at read
// time.
//
// Layout:
//
//	magic "GXPB", version u32, entry count u32
//	entries: blockID u32, field code u16, elemKind u16, count u64 (elements)
//	data: arrays in entry order (coords/fields float64, conn int32,
//	      gids int64)

const (
	plainMagic   = "GXPB"
	plainVersion = 1
)

// Field codes index MeshFields + NodeVectorFields + ElemScalarFields.
func plainFieldNames() []string {
	all := append([]string{}, MeshFields...)
	all = append(all, NodeVectorFields...)
	return append(all, ElemScalarFields...)
}

// PlainSnapshotFile names the i-th plain file of a snapshot.
func PlainSnapshotFile(dir string, step, i int) string {
	return filepath.Join(dir, fmt.Sprintf("genx_t%04d_%d.bin", step, i))
}

// WritePlainDataset writes the same dataset WriteDataset produces, in the
// plain binary format, for the format-cost comparison experiment: the same
// generated blocks, one plain file per snapshot file.
func WritePlainDataset(spec Spec, dir string) ([]*mesh.TetMesh, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return generate(spec, true, func(step, file int, blocks []*BlockData) error {
		if err := writePlainSnapshotFile(PlainSnapshotFile(dir, step, file), blocks); err != nil {
			return fmt.Errorf("plain snapshot %d: %w", step, err)
		}
		return nil
	})
}

func writePlainSnapshotFile(path string, blocks []*BlockData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if err := writePlainFile(w, blocks); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writePlainFile writes the table of contents and then every array of
// every block, in plainFieldNames order.
func writePlainFile(w io.Writer, blocks []*BlockData) error {
	fields := plainFieldNames()
	hdr := make([]byte, 0, 12+16*len(fields)*len(blocks))
	hdr = append(hdr, plainMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, plainVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(fields)*len(blocks)))
	for _, bd := range blocks {
		m := bd.Mesh
		for code, name := range fields {
			var count int
			switch {
			case name == "coords":
				count = len(m.Coords)
			case name == "conn":
				count = len(m.Tets)
			case name == "gids":
				count = len(m.GlobalNode)
			case IsNodeField(name):
				count = len(bd.Node[name])
			default:
				count = len(bd.Elem[name])
			}
			hdr = binary.LittleEndian.AppendUint32(hdr, uint32(bd.ID))
			hdr = binary.LittleEndian.AppendUint16(hdr, uint16(code))
			hdr = binary.LittleEndian.AppendUint16(hdr, 0)
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(count))
		}
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for _, bd := range blocks {
		m := bd.Mesh
		for _, name := range fields {
			var err error
			switch {
			case name == "coords":
				err = writeLE(w, m.Coords)
			case name == "conn":
				err = writeLE(w, m.Tets)
			case name == "gids":
				err = writeLE(w, m.GlobalNode)
			case IsNodeField(name):
				err = writeLE(w, bd.Node[name])
			default:
				err = writeLE(w, bd.Elem[name])
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeLE writes v's little-endian bytes: v's own memory where the host
// allows, an encoded copy otherwise.
func writeLE[T zerocopy.Elem](w io.Writer, v []T) error {
	b, ok := zerocopy.Bytes(v)
	if !ok {
		b = zerocopy.AppendLE(nil, v)
	}
	_, err := w.Write(b)
	return err
}

// PlainHandle reads one plain snapshot file, charging the platform at the
// raw decode rate.
type PlainHandle struct {
	r       *Reader
	data    []byte
	offsets map[plainKey]plainLoc
	blocks  []int
}

type plainKey struct {
	block int
	field string
}

// plainLoc is one array's byte range within the file.
type plainLoc struct {
	off, n int64
}

// OpenPlain reads a plain snapshot file's table of contents.
func (r *Reader) OpenPlain(path string) (*PlainHandle, error) {
	if r.M != nil {
		r.M.DiskOpen()
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 12 || string(data[:4]) != plainMagic {
		return nil, fmt.Errorf("genx: %s is not a plain snapshot file", path)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != plainVersion {
		return nil, fmt.Errorf("genx: plain version %d unsupported", v)
	}
	n := int(binary.LittleEndian.Uint32(data[8:12]))
	if n > (len(data)-12)/16 {
		return nil, fmt.Errorf("genx: plain table of %d entries overruns a %d-byte file", n, len(data))
	}
	fields := plainFieldNames()
	h := &PlainHandle{r: r, data: data, offsets: make(map[plainKey]plainLoc)}
	off := int64(12 + 16*n)
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		e := data[12+16*i:]
		block := int(binary.LittleEndian.Uint32(e[0:4]))
		code := int(binary.LittleEndian.Uint16(e[4:6]))
		count := int(binary.LittleEndian.Uint64(e[8:16]))
		if code >= len(fields) {
			return nil, fmt.Errorf("genx: bad field code %d", code)
		}
		name := fields[code]
		if !seen[block] {
			seen[block] = true
			h.blocks = append(h.blocks, block)
		}
		elem := 8
		if name == "conn" {
			elem = 4
		}
		if count < 0 || count > len(data)/elem {
			return nil, fmt.Errorf("genx: bad element count %d", count)
		}
		h.offsets[plainKey{block, name}] = plainLoc{off: off, n: int64(count * elem)}
		off += int64(count * elem)
	}
	if off != int64(len(data)) {
		return nil, fmt.Errorf("genx: plain file length %d, expected %d", len(data), off)
	}
	return h, nil
}

// Blocks lists the zero-based block IDs stored in the file.
func (h *PlainHandle) Blocks() []int { return h.blocks }

// ReadMesh reads a block's mesh arrays.
func (h *PlainHandle) ReadMesh(block int) (*mesh.TetMesh, error) {
	coords, err := readPlain[float64](h, block, "coords")
	if err != nil {
		return nil, err
	}
	conn, err := readPlain[int32](h, block, "conn")
	if err != nil {
		return nil, err
	}
	gids, err := readPlain[int64](h, block, "gids")
	if err != nil {
		return nil, err
	}
	return &mesh.TetMesh{Coords: coords, Tets: conn, GlobalNode: gids}, nil
}

// ReadField reads a block's float64 field.
func (h *PlainHandle) ReadField(block int, field string) ([]float64, error) {
	return readPlain[float64](h, block, field)
}

// readPlain decodes one of a block's arrays, aliasing the file's bytes
// where the host and the array's offset allow.
func readPlain[T zerocopy.Elem](h *PlainHandle, block int, field string) ([]T, error) {
	loc, ok := h.offsets[plainKey{block, field}]
	if !ok {
		return nil, fmt.Errorf("genx: plain block %d has no field %q", block, field)
	}
	h.charge(int(loc.n))
	v, _ := zerocopy.Decode[T](h.data[loc.off : loc.off+loc.n])
	return v, nil
}

// charge bills a sequential raw read: transfer plus raw decode, no per-
// request scientific-library overhead.
func (h *PlainHandle) charge(n int) {
	if m := h.r.M; m != nil {
		m.DiskRead(h.r.scaled(int64(n)), 0)
		m.DecodeRaw(h.r.scaled(int64(n)))
	}
}
