package genx

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"

	"godiva/internal/mesh"
	"godiva/internal/shdf"
)

// WriteDataset generates the grain mesh, partitions it, and writes every
// snapshot of the dataset into dir. It returns the partition blocks so
// callers can compare visualization output against ground truth. Each file
// is the one WriteBlockDataFile writes from the blocks StreamDataset emits
// for it, so a dataset streamed and ingested file by file matches a
// generated one byte for byte.
func WriteDataset(spec Spec, dir string) ([]*mesh.TetMesh, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var fw FileWriter
	return generate(spec, true, func(step, file int, blocks []*BlockData) error {
		t := float64(step+1) * spec.DT
		if err := fw.Write(SnapshotFile(dir, step, file), t, step, spec.StepID(step), blocks); err != nil {
			return fmt.Errorf("snapshot %d: %w", step, err)
		}
		return nil
	})
}

// appendSDSName appends the name of a block's dataset inside a snapshot
// file, "b%04d:%s" of the block's number and the field. With fmt.Appendf
// writing it instead, TestFileWriterAllocBound reads 3,784 bytes per D1h
// file, against 184 (bound 1 KiB), and TestIngestAllocBound 4,742 bytes
// per ingest, against about 1,120.
func appendSDSName(b []byte, blockID int, field string) []byte {
	n := blockID + 1
	b = append(b, 'b')
	u, pad := uint64(n), uint64(1000) // four columns, a sign counted
	if n < 0 {
		b = append(b, '-')
		u, pad = -u, 100
	}
	for ; pad > 1 && u < pad; pad /= 10 {
		b = append(b, '0')
	}
	b = strconv.AppendUint(b, u, 10)
	b = append(b, ':')
	return append(b, field...)
}

// WriteBlockDataFile writes one snapshot file from in-memory block payloads:
// each block's datasets and group, then the file's time, step and step_id
// attributes. Generated and ingested files are both written here.
func WriteBlockDataFile(path string, t float64, step int, stepID string, blocks []*BlockData) error {
	return new(FileWriter).Write(path, t, step, stepID, blocks)
}

// FileWriter writes snapshot files as WriteBlockDataFile does, keeping its
// SHDF writer (buffer, directory, names) and its scratch from one file to
// the next, so that once it has written its largest file a file costs it
// no allocation but the os.File. The zero value is ready to use. A
// FileWriter writes one file at a time.
type FileWriter struct {
	w       shdf.Writer
	members []shdf.Ref // the block group being written
	fields  []string   // its variable fields, in file order
	name    []byte     // the dataset name being written
}

// Write creates or truncates path and writes one snapshot file into it, as
// WriteBlockDataFile does. A file that fails part-way is closed, not
// removed.
func (fw *FileWriter) Write(path string, t float64, step int, stepID string, blocks []*BlockData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fw.write(f, t, step, stepID, blocks)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// write writes one snapshot file into dst through the reset SHDF writer.
func (fw *FileWriter) write(dst io.Writer, t float64, step int, stepID string, blocks []*BlockData) error {
	w := &fw.w
	if err := w.Reset(dst); err != nil {
		return err
	}
	for _, bd := range blocks {
		if err := fw.block(bd); err != nil {
			w.Close()
			return fmt.Errorf("block %d: %w", bd.ID, err)
		}
	}
	if _, err := w.WriteAttr("time", t); err != nil {
		w.Close()
		return err
	}
	if _, err := w.WriteAttr("step", step); err != nil {
		w.Close()
		return err
	}
	if _, err := w.WriteAttr("step_id", stepID); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// sds writes one of bd's arrays as the dataset named for its field, adding
// it to the block's group. The name is built in fw.name: WriteSDS copies
// it, so its string conversion does not escape and, for a name of up to
// 32 bytes, allocates nothing.
func (fw *FileWriter) sds(bd *BlockData, field string, dims []int, data any) error {
	fw.name = appendSDSName(fw.name[:0], bd.ID, field)
	ref, err := fw.w.WriteSDS(string(fw.name), dims, data)
	if err != nil {
		return err
	}
	fw.members = append(fw.members, ref)
	return nil
}

// block writes one block's arrays, mesh fields first, then its variable
// fields in appendBlockFields order, and the group that names them.
func (fw *FileWriter) block(bd *BlockData) error {
	fw.members = fw.members[:0]
	m := bd.Mesh
	if m == nil {
		return fmt.Errorf("block %d has no mesh", bd.ID)
	}
	n := len(m.Coords) / 3
	e := len(m.Tets) / 4
	if err := fw.sds(bd, "coords", []int{n, 3}, m.Coords); err != nil {
		return err
	}
	if err := fw.sds(bd, "conn", []int{e, 4}, m.Tets); err != nil {
		return err
	}
	if err := fw.sds(bd, "gids", []int{len(m.GlobalNode)}, m.GlobalNode); err != nil {
		return err
	}
	fw.fields = appendBlockFields(fw.fields[:0], bd)
	for _, f := range fw.fields {
		v, node := bd.Node[f]
		if !node {
			v = bd.Elem[f]
		}
		dims := []int{len(v)}
		if node && n > 0 && len(v) == 3*n {
			dims = []int{n, 3}
		}
		if err := fw.sds(bd, f, dims, v); err != nil {
			return err
		}
	}
	clear(fw.fields)
	name := bd.Name
	if name == "" {
		name = BlockID(bd.ID)
	}
	_, err := fw.w.WriteVGroup(name, fw.members)
	return err
}

// appendBlockFields appends bd's variable fields to out in the order a file
// holds them: NodeVectorFields, then ElemScalarFields, in catalog order,
// then any other name in sorted order. Readers that take variables in
// catalog order (rocketeer's orderedVars) then only seek forward.
func appendBlockFields(out []string, bd *BlockData) []string {
	for _, catalog := range [2][]string{NodeVectorFields, ElemScalarFields} {
		for _, f := range catalog {
			_, inNode := bd.Node[f]
			_, inElem := bd.Elem[f]
			if inNode || inElem {
				out = append(out, f)
			}
		}
	}
	known := len(out)
	for _, m := range [2]map[string][]float64{bd.Node, bd.Elem} {
		for f := range m {
			if !IsNodeField(f) && !IsElemField(f) && !slices.Contains(out[known:], f) {
				out = append(out, f)
			}
		}
	}
	slices.Sort(out[known:])
	return out
}
