// AllocsPerRun gates for this package's //godiva:noalloc functions — the
// runtime cross-check of the alloccheck analyzer (see internal/noalloctest).
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
	noalloctest.Check(t, ".", map[string]func(){
		"Renderer.colorVerts": func() { r.colorVerts(agg.Scalars, lut, lo, hi) },
		"Renderer.resolve":    func() { r.resolve() },
	})
	if countNonBackground(r) == 0 {
		t.Error("the gated resolve colored no pixel")
	}
}
