package genx

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"godiva/internal/mesh"
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
func plainFieldCode(name string) (uint16, bool) {
	all := plainFieldNames()
	for i, f := range all {
		if f == name {
			return uint16(i), true
		}
	}
	return 0, false
}

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
// plain binary format, for the format-cost comparison experiment.
func WritePlainDataset(spec Spec, dir string) ([]*mesh.TetMesh, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	grain := mesh.GenerateAnnulus(spec.Mesh)
	blocks := grain.Partition(spec.Blocks)
	for step := 0; step < spec.Snapshots; step++ {
		if err := writePlainSnapshot(spec, dir, step, blocks); err != nil {
			return nil, fmt.Errorf("plain snapshot %d: %w", step, err)
		}
	}
	return blocks, nil
}

func writePlainSnapshot(spec Spec, dir string, step int, blocks []*mesh.TetMesh) error {
	t := float64(step+1) * spec.DT
	for i := 0; i < spec.FilesPerSnapshot; i++ {
		f, err := os.Create(PlainSnapshotFile(dir, step, i))
		if err != nil {
			return err
		}
		w := bufio.NewWriterSize(f, 1<<16)
		var mine []int
		for b := range blocks {
			if b%spec.FilesPerSnapshot == i {
				mine = append(mine, b)
			}
		}
		if err := writePlainFile(w, mine, blocks, t); err != nil {
			f.Close()
			return err
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func writePlainFile(w io.Writer, mine []int, blocks []*mesh.TetMesh, t float64) error {
	fields := plainFieldNames()
	type entry struct {
		block uint32
		code  uint16
		count uint64
	}
	var entries []entry
	for _, b := range mine {
		blk := blocks[b]
		for code, name := range fields {
			var count int
			switch {
			case name == "coords":
				count = len(blk.Coords)
			case name == "conn":
				count = len(blk.Tets)
			case name == "gids":
				count = len(blk.GlobalNode)
			case IsNodeField(name):
				count = 3 * blk.NumNodes()
			default:
				count = blk.NumCells()
			}
			entries = append(entries, entry{uint32(b), uint16(code), uint64(count)})
		}
	}
	hdr := make([]byte, 0, 12+16*len(entries))
	hdr = append(hdr, plainMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, plainVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(entries)))
	for _, e := range entries {
		hdr = binary.LittleEndian.AppendUint32(hdr, e.block)
		hdr = binary.LittleEndian.AppendUint16(hdr, e.code)
		hdr = binary.LittleEndian.AppendUint16(hdr, 0)
		hdr = binary.LittleEndian.AppendUint64(hdr, e.count)
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 8)
	writeF64 := func(v float64) error {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		_, err := w.Write(buf)
		return err
	}
	for _, b := range mine {
		blk := blocks[b]
		for _, name := range fields {
			switch {
			case name == "coords":
				for _, v := range blk.Coords {
					if err := writeF64(v); err != nil {
						return err
					}
				}
			case name == "conn":
				for _, v := range blk.Tets {
					binary.LittleEndian.PutUint32(buf[:4], uint32(v))
					if _, err := w.Write(buf[:4]); err != nil {
						return err
					}
				}
			case name == "gids":
				for _, v := range blk.GlobalNode {
					binary.LittleEndian.PutUint64(buf, uint64(v))
					if _, err := w.Write(buf); err != nil {
						return err
					}
				}
			case IsNodeField(name):
				for i := 0; i < blk.NumNodes(); i++ {
					x, y, z := NodeVector(name, blk.Node(int32(i)), t)
					for _, v := range []float64{x, y, z} {
						if err := writeF64(v); err != nil {
							return err
						}
					}
				}
			default:
				for c := 0; c < blk.NumCells(); c++ {
					if err := writeF64(ElemScalar(name, blk.CellCentroid(c), t)); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
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

type plainLoc struct {
	off   int64
	count int
	field string
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
		h.offsets[plainKey{block, name}] = plainLoc{off: off, count: count, field: name}
		if !seen[block] {
			seen[block] = true
			h.blocks = append(h.blocks, block)
		}
		elem := 8
		if name == "conn" {
			elem = 4
		}
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
	coords, err := h.readF64(block, "coords")
	if err != nil {
		return nil, err
	}
	connLoc, ok := h.offsets[plainKey{block, "conn"}]
	if !ok {
		return nil, fmt.Errorf("genx: plain block %d has no connectivity", block)
	}
	h.charge(connLoc.count * 4)
	conn := make([]int32, connLoc.count)
	for i := range conn {
		conn[i] = int32(binary.LittleEndian.Uint32(h.data[connLoc.off+int64(4*i):]))
	}
	gidLoc, ok := h.offsets[plainKey{block, "gids"}]
	if !ok {
		return nil, fmt.Errorf("genx: plain block %d has no global IDs", block)
	}
	h.charge(gidLoc.count * 8)
	gids := make([]int64, gidLoc.count)
	for i := range gids {
		gids[i] = int64(binary.LittleEndian.Uint64(h.data[gidLoc.off+int64(8*i):]))
	}
	return &mesh.TetMesh{Coords: coords, Tets: conn, GlobalNode: gids}, nil
}

// ReadField reads a block's float64 field.
func (h *PlainHandle) ReadField(block int, field string) ([]float64, error) {
	return h.readF64(block, field)
}

func (h *PlainHandle) readF64(block int, field string) ([]float64, error) {
	loc, ok := h.offsets[plainKey{block, field}]
	if !ok {
		return nil, fmt.Errorf("genx: plain block %d has no field %q", block, field)
	}
	h.charge(loc.count * 8)
	out := make([]float64, loc.count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(h.data[loc.off+int64(8*i):]))
	}
	return out, nil
}

// charge bills a sequential raw read: transfer plus raw decode, no per-
// request scientific-library overhead.
func (h *PlainHandle) charge(n int) {
	if m := h.r.M; m != nil {
		m.DiskRead(h.r.scaled(int64(n)), 0)
		m.DecodeRaw(h.r.scaled(int64(n)))
	}
}
