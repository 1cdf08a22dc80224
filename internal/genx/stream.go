package genx

import (
	"fmt"
	"path/filepath"

	"godiva/internal/mesh"
)

// Streaming support: a live producer materializes snapshot files one at a
// time (WriteDataset's unit of work is the whole dataset) and a push-enabled
// server writes ingested payloads back out with WriteBlockDataFile, the
// writer WriteDataset uses too, so a dataset grown step by step is
// indistinguishable from one generated up front.

// ParseSnapshotFile parses a snapshot file name ("genx_t0003_1.shdf") into
// its step and file indices. Only the exact SnapshotFile format is accepted:
// the name is parsed and then re-formatted, so padding or suffix variations
// are rejected rather than aliased onto another file's indices.
func ParseSnapshotFile(name string) (step, file int, ok bool) {
	base := filepath.Base(name)
	if _, err := fmt.Sscanf(base, "genx_t%d_%d.shdf", &step, &file); err != nil {
		return 0, 0, false
	}
	if step < 0 || file < 0 || fmt.Sprintf("genx_t%04d_%d.shdf", step, file) != base {
		return 0, 0, false
	}
	return step, file, true
}

// MakeBlockData evaluates every analytic field of one partition block at one
// time step, returning the same in-memory form ReadBlock produces. This is
// the producer side of the push path: a streaming generator makes BlockData
// and ships it, instead of writing files for a server to re-read.
func MakeBlockData(spec Spec, blk *mesh.TetMesh, id, step int) *BlockData {
	bd := &BlockData{
		ID: id, Name: BlockID(id), Mesh: blk,
		Node: make(map[string][]float64, len(NodeVectorFields)),
		Elem: make(map[string][]float64, len(ElemScalarFields)),
	}
	n, e := blk.NumNodes(), blk.NumCells()
	for _, f := range NodeVectorFields {
		bd.Node[f] = make([]float64, 3*n)
	}
	for _, f := range ElemScalarFields {
		bd.Elem[f] = make([]float64, e)
	}
	bd.evaluate(spec, step)
	return bd
}

// evaluate fills a generated block's fields, already sized, with their
// values at step.
func (bd *BlockData) evaluate(spec Spec, step int) {
	t := float64(step+1) * spec.DT
	bd.Time, bd.StepID = t, spec.StepID(step)
	blk := bd.Mesh
	for _, f := range NodeVectorFields {
		buf := bd.Node[f]
		for i := 0; i < blk.NumNodes(); i++ {
			x, y, z := NodeVector(f, blk.Node(int32(i)), t)
			buf[3*i], buf[3*i+1], buf[3*i+2] = x, y, z
		}
	}
	for _, f := range ElemScalarFields {
		buf := bd.Elem[f]
		for c := range buf {
			buf[c] = ElemScalar(f, blk.CellCentroid(c), t)
		}
	}
}

// StreamDataset generates the dataset one snapshot file at a time, calling
// emit for each (step, file) with the blocks that file holds, dealt
// round-robin onto the snapshot's files. WriteDataset writes what it emits,
// so a consumer that writes the payloads out with WriteBlockDataFile
// reproduces the on-disk dataset. emit returning an error stops
// the stream; pacing and cancellation live in the caller's emit.
func StreamDataset(spec Spec, emit func(step, file int, blocks []*BlockData) error) error {
	_, err := generate(spec, false, emit)
	return err
}

// generate is StreamDataset returning the partition blocks, which
// WriteDataset and WritePlainDataset hand back to their callers. With reuse
// set, each step refills the blocks the previous step made instead of
// allocating new ones, so emit must be done with its blocks when it returns,
// as a file writer is; that keeps a dataset's generation from allocating
// every field of every step afresh.
func generate(spec Spec, reuse bool, emit func(step, file int, blocks []*BlockData) error) ([]*mesh.TetMesh, error) {
	grain := mesh.GenerateAnnulus(spec.Mesh)
	parts := grain.Partition(spec.Blocks)
	made := make([]*BlockData, len(parts))
	for step := 0; step < spec.Snapshots; step++ {
		for f := 0; f < spec.FilesPerSnapshot; f++ {
			var blocks []*BlockData
			for b := f; b < len(parts); b += spec.FilesPerSnapshot {
				if reuse && made[b] != nil {
					made[b].evaluate(spec, step)
				} else {
					made[b] = MakeBlockData(spec, parts[b], b, step)
				}
				blocks = append(blocks, made[b])
			}
			if err := emit(step, f, blocks); err != nil {
				return nil, err
			}
		}
	}
	return parts, nil
}
