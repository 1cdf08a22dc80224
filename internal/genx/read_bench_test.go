package genx

import (
	"path/filepath"
	"testing"

	"godiva/internal/mesh"
)

// BenchmarkReadBlockWarm reads one D1h block — its mesh through
// ReadMeshInto and its 12 variable fields through ReadField — from a handle
// that a Mapped Reader's table already held. Every payload is verified
// already and each dataset's view is decoded on the stack into the
// handle's dims, so a read allocates nothing: 0 allocs/op.
func BenchmarkReadBlockWarm(b *testing.B) {
	spec, blocks := d1hFirstFile(b)
	path := filepath.Join(b.TempDir(), "d1h.shdf")
	if err := WriteBlockDataFile(path, spec.DT, 0, spec.StepID(0), blocks); err != nil {
		b.Fatal(err)
	}
	vars := append(append([]string{}, NodeVectorFields...), ElemScalarFields...)
	r := &Reader{Mapped: true}
	defer r.Close()
	var m mesh.TetMesh
	read := func(h *FileHandle) {
		e := h.Blocks()[0]
		if err := h.ReadMeshInto(e, &m); err != nil {
			b.Fatal(err)
		}
		for _, v := range vars {
			if _, err := h.ReadField(e, v); err != nil {
				b.Fatal(err)
			}
		}
	}
	first, err := r.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	read(first) // verifies the block's payloads
	if err := first.Close(); err != nil {
		b.Fatal(err)
	}
	h, err := r.Open(path) // a table hit
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	if r.Stats().Hits != 1 {
		b.Fatalf("second open was not a table hit: %+v", r.Stats())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read(h)
	}
}
