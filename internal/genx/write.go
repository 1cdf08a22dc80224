package genx

import (
	"fmt"
	"os"
	"slices"

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
	return generate(spec, true, func(step, file int, blocks []*BlockData) error {
		t := float64(step+1) * spec.DT
		if err := WriteBlockDataFile(SnapshotFile(dir, step, file), t, step, spec.StepID(step), blocks); err != nil {
			return fmt.Errorf("snapshot %d: %w", step, err)
		}
		return nil
	})
}

// sdsName names a block's dataset inside a snapshot file.
func sdsName(blockID int, field string) string {
	return fmt.Sprintf("b%04d:%s", blockID+1, field)
}

// WriteBlockDataFile writes one snapshot file from in-memory block payloads:
// each block's datasets and group, then the file's time, step and step_id
// attributes. Generated and ingested files are both written here.
func WriteBlockDataFile(path string, t float64, step int, stepID string, blocks []*BlockData) error {
	w, err := shdf.Create(path)
	if err != nil {
		return err
	}
	for _, bd := range blocks {
		if err := writeBlockData(w, bd); err != nil {
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

// writeBlockData writes one block's arrays, mesh fields first, then its
// variable fields in blockFieldOrder, and the group that names them.
func writeBlockData(w *shdf.Writer, bd *BlockData) error {
	var members []shdf.Ref
	add := func(ref shdf.Ref, err error) error {
		if err != nil {
			return err
		}
		members = append(members, ref)
		return nil
	}
	m := bd.Mesh
	if m == nil {
		return fmt.Errorf("block %d has no mesh", bd.ID)
	}
	n := len(m.Coords) / 3
	e := len(m.Tets) / 4
	if err := add(w.WriteSDS(sdsName(bd.ID, "coords"), []int{n, 3}, m.Coords)); err != nil {
		return err
	}
	if err := add(w.WriteSDS(sdsName(bd.ID, "conn"), []int{e, 4}, m.Tets)); err != nil {
		return err
	}
	if err := add(w.WriteSDS(sdsName(bd.ID, "gids"), []int{len(m.GlobalNode)}, m.GlobalNode)); err != nil {
		return err
	}
	for _, f := range blockFieldOrder(bd) {
		v, node := bd.Node[f]
		if !node {
			v = bd.Elem[f]
		}
		dims := []int{len(v)}
		if node && n > 0 && len(v) == 3*n {
			dims = []int{n, 3}
		}
		if err := add(w.WriteSDS(sdsName(bd.ID, f), dims, v)); err != nil {
			return err
		}
	}
	name := bd.Name
	if name == "" {
		name = BlockID(bd.ID)
	}
	_, err := w.WriteVGroup(name, members)
	return err
}

// blockFieldOrder lists bd's variable fields in the order a file holds
// them: NodeVectorFields, then ElemScalarFields, in catalog order, then any
// other name in sorted order. Readers that take variables in catalog order
// (rocketeer's orderedVars) then only seek forward.
func blockFieldOrder(bd *BlockData) []string {
	out := make([]string, 0, len(bd.Node)+len(bd.Elem))
	for _, catalog := range [][]string{NodeVectorFields, ElemScalarFields} {
		for _, f := range catalog {
			_, inNode := bd.Node[f]
			_, inElem := bd.Elem[f]
			if inNode || inElem {
				out = append(out, f)
			}
		}
	}
	known := len(out)
	for _, m := range []map[string][]float64{bd.Node, bd.Elem} {
		for f := range m {
			if !IsNodeField(f) && !IsElemField(f) && !slices.Contains(out[known:], f) {
				out = append(out, f)
			}
		}
	}
	slices.Sort(out[known:])
	return out
}
