package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Summary holds the paper's derived metrics for one test on one platform.
type Summary struct {
	Platform string
	Test     string
	// VolumeReduction is the fraction of I/O volume eliminated by GODIVA's
	// buffer reuse: 1 - bytes(G)/bytes(O). Paper §4.2: about 14%, 24%, 16%.
	VolumeReduction float64
	// IOTimeReduction is the fraction of total I/O time G saves over O:
	// 1 - visible(G)/visible(O). Paper: 17.6/37.2/20.1% (Engle),
	// 16.0/30.0/10.7% (Turing).
	IOTimeReduction float64
	// Hidden is, per multi-thread configuration, the fraction of I/O cost
	// hidden behind computation: (total(G) - total(TG)) / visible(G).
	// Paper: 24.7/33.1/37.8% on Engle; 81.1-90.8% on Turing.
	Hidden map[string]float64
	// Overall is, per multi-thread configuration, the total input-cost
	// reduction of TG over the original: (total(O) - total(TG)) /
	// visible(O). Paper: 40.9/60.5/61.9% on Engle; up to 93.2/90.3/94.7%
	// on Turing.
	Overall map[string]float64
}

// Summarize derives the paper's percentages from a figure's measurements.
func Summarize(ms []*Measurement) []*Summary {
	type key struct{ platform, test string }
	cells := map[key]map[string]*Measurement{}
	for _, m := range ms {
		k := key{m.Platform, m.Test}
		if cells[k] == nil {
			cells[k] = map[string]*Measurement{}
		}
		cells[k][m.Version] = m
	}
	var out []*Summary
	for k, versions := range cells {
		o, okO := versions["O"]
		g, okG := versions["G"]
		if !okO || !okG {
			continue
		}
		s := &Summary{
			Platform: k.platform,
			Test:     k.test,
			Hidden:   map[string]float64{},
			Overall:  map[string]float64{},
		}
		if o.DiskBytes > 0 {
			s.VolumeReduction = 1 - float64(g.DiskBytes)/float64(o.DiskBytes)
		}
		if o.Visible > 0 {
			s.IOTimeReduction = 1 - float64(g.Visible)/float64(o.Visible)
		}
		for _, name := range []string{"TG", "TG1", "TG2"} {
			tg, ok := versions[name]
			if !ok {
				continue
			}
			if g.Visible > 0 {
				s.Hidden[name] = float64(g.Total-tg.Total) / float64(g.Visible)
			}
			if o.Visible > 0 {
				s.Overall[name] = float64(o.Total-tg.Total) / float64(o.Visible)
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Platform != out[j].Platform {
			return out[i].Platform < out[j].Platform
		}
		return testOrder(out[i].Test) < testOrder(out[j].Test)
	})
	return out
}

func testOrder(name string) int {
	switch name {
	case "simple":
		return 0
	case "medium":
		return 1
	case "complex":
		return 2
	default:
		return 3
	}
}

// PrintMeasurements writes a figure's stacked-bar data as a table: one row
// per (test, version) with computation and visible I/O time, the quantities
// Figure 3 plots.
func PrintMeasurements(w io.Writer, title string, ms []*Measurement) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-8s %-8s %-5s %10s %16s %12s %12s %8s\n",
		"platform", "test", "ver", "total (s)", "visible I/O (s)", "compute (s)", "MB read", "seeks")
	sorted := append([]*Measurement(nil), ms...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Platform != sorted[j].Platform {
			return sorted[i].Platform < sorted[j].Platform
		}
		return testOrder(sorted[i].Test) < testOrder(sorted[j].Test)
	})
	for _, m := range sorted {
		fmt.Fprintf(w, "%-8s %-8s %-5s %10.1f %16.1f %12.1f %12.1f %8d\n",
			m.Platform, m.Test, m.Version,
			m.Total.Seconds(), m.Visible.Seconds(), m.Compute.Seconds(),
			float64(m.DiskBytes)/1e6, m.DiskSeeks)
	}
}

// PrintSummary writes the derived percentages next to the paper's numbers.
func PrintSummary(w io.Writer, ms []*Measurement) {
	paper := map[[2]string]map[string]string{
		{"Engle", "simple"}:   {"vol": "14", "iot": "17.6", "hidTG": "24.7", "ovrTG": "40.9"},
		{"Engle", "medium"}:   {"vol": "24", "iot": "37.2", "hidTG": "33.1", "ovrTG": "60.5"},
		{"Engle", "complex"}:  {"vol": "16", "iot": "20.1", "hidTG": "37.8", "ovrTG": "61.9"},
		{"Turing", "simple"}:  {"vol": "14", "iot": "16.0", "hidTG": "81.1-90.8", "ovrTG": "<=93.2"},
		{"Turing", "medium"}:  {"vol": "24", "iot": "30.0", "hidTG": "81.1-90.8", "ovrTG": "<=90.3"},
		{"Turing", "complex"}: {"vol": "16", "iot": "10.7", "hidTG": "81.1-90.8", "ovrTG": "<=94.7"},
	}
	fmt.Fprintf(w, "\nDerived metrics (measured vs paper):\n")
	fmt.Fprintf(w, "%-8s %-8s %-22s %-22s %-26s %s\n",
		"platform", "test", "I/O volume cut %", "I/O time cut G vs O %", "hidden by prefetch %", "overall input-cost cut %")
	for _, s := range Summarize(ms) {
		p := paper[[2]string{s.Platform, s.Test}]
		hid, ovr := "", ""
		for _, name := range []string{"TG", "TG1", "TG2"} {
			if v, ok := s.Hidden[name]; ok {
				hid += fmt.Sprintf("%s=%.1f ", name, 100*v)
			}
			if v, ok := s.Overall[name]; ok {
				ovr += fmt.Sprintf("%s=%.1f ", name, 100*v)
			}
		}
		fmt.Fprintf(w, "%-8s %-8s %5.1f (paper %s)%6s %5.1f (paper %s)%5s %-20s(paper %s)  %-18s(paper %s)\n",
			s.Platform, s.Test,
			100*s.VolumeReduction, p["vol"], "",
			100*s.IOTimeReduction, p["iot"], "",
			hid, p["hidTG"], ovr, p["ovrTG"])
	}
}
