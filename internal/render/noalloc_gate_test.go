// AllocsPerRun gates for this package's //godiva:noalloc functions (see
// internal/noalloctest): each gate drives every branch of its function that
// does not return an error, so a new branch there needs a call here too.
// Excluded under -race: the race runtime instruments allocation sites and
// the measurements stop meaning anything.

//go:build !race

package render

import (
	"testing"

	"godiva/internal/noalloctest"
	"godiva/internal/vis"
)

func TestNoAllocGates(t *testing.T) {
	agg, blo, bhi := d1Aggregate(t)
	lo, hi := vis.ScalarRange(agg.Scalars)
	r := NewRenderer(160, 120)
	if err := r.DrawSurface(agg, DefaultCamera(blo, bhi), Rainbow{}, lo, hi); err != nil {
		t.Fatal(err)
	}
	var lut LUT = CoolWarm{}
	if !r.verts.ok[0] {
		t.Fatal("vertex 0 is hidden already")
	}
	noalloctest.Check(t, ".", map[string]func(){
		// With vertex 0 hidden, then with no scalars over an empty range.
		"Renderer.colorVerts": func() {
			r.verts.ok[0] = false
			r.colorVerts(agg.Scalars, lut, lo, hi)
			r.verts.ok[0] = true
			r.colorVerts(nil, lut, lo, lo)
		},
		"Renderer.resolve": func() { r.resolve() },
	})
	if countNonBackground(r) == 0 {
		t.Error("the gated resolve colored no pixel")
	}
}
