package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"godiva/internal/core"
	"godiva/internal/genx"
)

// The benchmark's own GODIVA schema for scan-remote, the correctness gate
// and the layer walk: one record per block per time step, keyed by block ID
// and time-step ID (the paper's Table 1 shape), with one buffer field per
// dataset a GENx file holds. rocketeer has the same schema unexported; the
// benchmark imports only exported functions, so it states its own.
const (
	recBlock = "block"
	keyBlock = "block id"
	keyStep  = "time-step id"
)

// allVars lists every variable field of a GENx block in file layout order.
func allVars() []string {
	return append(append([]string{}, genx.NodeVectorFields...), genx.ElemScalarFields...)
}

// bufferFields lists every buffer field of a block record: the three mesh
// arrays plus all variables (15 in total).
func bufferFields() []string { return append(append([]string{}, genx.MeshFields...), allVars()...) }

func defineSchema(db *core.DB) error {
	if err := db.DefineField(keyBlock, core.String, 11); err != nil {
		return err
	}
	if err := db.DefineField(keyStep, core.String, 9); err != nil {
		return err
	}
	if err := db.DefineRecordType(recBlock, 2); err != nil {
		return err
	}
	for _, key := range []string{keyBlock, keyStep} {
		if err := db.InsertField(recBlock, key, true); err != nil {
			return err
		}
	}
	for _, f := range bufferFields() {
		t := core.Float64
		switch f {
		case "conn":
			t = core.Int32
		case "gids":
			t = core.Int64
		}
		if err := db.DefineField(f, t, core.Unknown); err != nil {
			return err
		}
		if err := db.InsertField(recBlock, f, false); err != nil {
			return err
		}
	}
	return db.CommitRecordType(recBlock)
}

// commitBlock stores one block's datasets as a record: the commit step of a
// unit read function. Field data is copied into database buffers, as
// remote.CommitFunc requires.
func commitBlock(u *core.Unit, bd *genx.BlockData) error {
	rec, err := u.NewRecord(recBlock)
	if err != nil {
		return err
	}
	if err := rec.SetString(keyBlock, bd.Name); err != nil {
		return err
	}
	if err := rec.SetString(keyStep, bd.StepID); err != nil {
		return err
	}
	if err := fillF64(rec, "coords", bd.Mesh.Coords); err != nil {
		return err
	}
	buf, err := rec.AllocFieldBuffer("conn", 4*len(bd.Mesh.Tets))
	if err != nil {
		return err
	}
	conn, err := buf.Int32s()
	if err != nil {
		return err
	}
	copy(conn, bd.Mesh.Tets)
	buf, err = rec.AllocFieldBuffer("gids", 8*len(bd.Mesh.GlobalNode))
	if err != nil {
		return err
	}
	gids, err := buf.Int64s()
	if err != nil {
		return err
	}
	copy(gids, bd.Mesh.GlobalNode)
	for _, fields := range []map[string][]float64{bd.Node, bd.Elem} {
		for name, data := range fields {
			if err := fillF64(rec, name, data); err != nil {
				return err
			}
		}
	}
	return u.DB().CommitRecord(rec)
}

func fillF64(rec *core.Record, field string, data []float64) error {
	buf, err := rec.AllocFieldBuffer(field, 8*len(data))
	if err != nil {
		return err
	}
	dst, err := buf.Float64s()
	if err != nil {
		return err
	}
	copy(dst, data)
	return nil
}

// Checksums. A buffer's sum folds its field name, length and elements — all
// of them (full) or the first, middle and last (sparse, the "minimal vis
// tool" touch that proves the bytes arrived without paying to read them
// all). Sums of buffers add with wraparound, so a unit's checksum does not
// depend on the order its blocks were committed or queried.

const fnvPrime = 1099511628211

func fieldSeed(field string, n int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(field))
	return (h.Sum64() ^ uint64(n)) * fnvPrime
}

// fold folds element i of an n-element buffer, for every i (full) or for
// the three touched positions (sparse).
func fold(h uint64, n int, full bool, elem func(i int) uint64) uint64 {
	if n == 0 {
		return h
	}
	if full {
		for i := 0; i < n; i++ {
			h = (h ^ elem(i)) * fnvPrime
		}
		return h
	}
	for _, i := range [3]int{0, n / 2, n - 1} {
		h = (h ^ elem(i)) * fnvPrime
	}
	return h
}

func sumF64(field string, v []float64, full bool) uint64 {
	return fold(fieldSeed(field, len(v)), len(v), full, func(i int) uint64 { return math.Float64bits(v[i]) })
}

func sumI32(field string, v []int32, full bool) uint64 {
	return fold(fieldSeed(field, len(v)), len(v), full, func(i int) uint64 { return uint64(uint32(v[i])) })
}

func sumI64(field string, v []int64, full bool) uint64 {
	return fold(fieldSeed(field, len(v)), len(v), full, func(i int) uint64 { return uint64(v[i]) })
}

// sumBlockData checksums one block as the local genx reader returned it.
func sumBlockData(bd *genx.BlockData, full bool) uint64 {
	sum := sumF64("coords", bd.Mesh.Coords, full) +
		sumI32("conn", bd.Mesh.Tets, full) +
		sumI64("gids", bd.Mesh.GlobalNode, full)
	for name, v := range bd.Node {
		sum += sumF64(name, v, full)
	}
	for name, v := range bd.Elem {
		sum += sumF64(name, v, full)
	}
	return sum
}

// sumBuffer checksums one database buffer by its field's element type.
func sumBuffer(field string, b *core.Buffer, full bool) (uint64, error) {
	switch b.Type() {
	case core.Float64:
		v, err := b.Float64s()
		return sumF64(field, v, full), err
	case core.Int32:
		v, err := b.Int32s()
		return sumI32(field, v, full), err
	case core.Int64:
		v, err := b.Int64s()
		return sumI64(field, v, full), err
	}
	return 0, fmt.Errorf("bench: field %s has unexpected type %v", field, b.Type())
}

// sumStepLocal checksums every block of one snapshot through the local
// genx.Reader path: the reference the remote path must reproduce.
func sumStepLocal(spec genx.Spec, dir string, step int, full bool) (uint64, error) {
	reader := &genx.Reader{}
	vars := allVars()
	var sum uint64
	for _, path := range spec.SnapshotFiles(dir, step) {
		h, err := reader.Open(path)
		if err != nil {
			return 0, err
		}
		for _, e := range h.Blocks() {
			bd, err := h.ReadBlock(e, vars)
			if err != nil {
				h.Close()
				return 0, err
			}
			sum += sumBlockData(bd, full)
		}
		if err := h.Close(); err != nil {
			return 0, err
		}
	}
	return sum, nil
}
