package godiva_test

// The benchmarks regenerate every table and figure of the paper's
// evaluation (§4.2) at reduced scale, one benchmark per experiment cell:
//
//	BenchmarkFigure3a/<test>/<version>   Engle workstation, Figure 3(a)
//	BenchmarkFigure3b/<test>/<version>   Turing cluster node, Figure 3(b)
//	BenchmarkParallelVoyager/<test>      §4.2 parallel Voyager runs
//	BenchmarkIOVolume/<test>             §4.2 I/O-volume reductions
//	BenchmarkTable1Query                 §3.1 key-query path (Table 1 schema)
//	BenchmarkUnitCycle                   unit read/finish/delete overhead
//
// Custom metrics report the quantities the paper plots: total virtual
// seconds, visible-I/O virtual seconds, and MB read. Full-scale versions of
// the figures (32 snapshots) come from cmd/godiva-bench.

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"godiva"
	"godiva/internal/experiments"
	"godiva/internal/platform"
	"godiva/internal/rocketeer"
)

var (
	benchOnce  sync.Once
	benchDir   string
	benchSetup experiments.Setup
	benchErr   error
)

// benchConfig writes (once) a small dataset with the full 120-block, 8-file
// structure and returns the experiment setup the benches share.
func benchConfig(b *testing.B) experiments.Setup {
	b.Helper()
	benchOnce.Do(func() {
		benchDir, benchErr = os.MkdirTemp("", "godiva-bench-")
		if benchErr != nil {
			return
		}
		s := experiments.DefaultSetup(benchDir)
		s.Spec.Mesh.NZ = 16
		s.Spec.Snapshots = 4
		actual := 6 * s.Spec.Mesh.NR * s.Spec.Mesh.NTheta * s.Spec.Mesh.NZ
		full := 6 * 4 * 120 * 160
		s.VolumeScale = float64(full) / float64(actual)
		s.Snapshots = 4
		benchErr = experiments.EnsureDataset(&s)
		benchSetup = s
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSetup
}

// runCell benchmarks one (platform, test, version) cell, reporting the
// paper's quantities per run.
func runCell(b *testing.B, spec platform.Spec, test rocketeer.VisTest, v rocketeer.Version, load bool) {
	b.Helper()
	s := benchConfig(b)
	var total, visible float64
	var bytes int64
	for i := 0; i < b.N; i++ {
		res, err := rocketeer.Run(v, rocketeer.Config{
			Test:          test,
			Spec:          s.Spec,
			Dir:           s.Dir,
			Machine:       platform.New(spec),
			VolumeScale:   s.VolumeScale,
			Snapshots:     s.Snapshots,
			CompetingLoad: load,
		})
		if err != nil {
			b.Fatal(err)
		}
		total += res.Total.Seconds()
		visible += res.VisibleIO.Seconds()
		bytes = res.Disk.Bytes
	}
	b.ReportMetric(total/float64(b.N), "vtotal-s/op")
	b.ReportMetric(visible/float64(b.N), "vIO-s/op")
	b.ReportMetric(float64(bytes)/1e6, "MB-read")
}

// BenchmarkFigure3a regenerates Figure 3(a): the three visualization tests
// in the O, G and TG builds on the Engle workstation model.
func BenchmarkFigure3a(b *testing.B) {
	for _, test := range rocketeer.Tests() {
		for _, v := range []rocketeer.Version{rocketeer.VersionO, rocketeer.VersionG, rocketeer.VersionTG} {
			b.Run(fmt.Sprintf("%s/%s", test.Name, v), func(b *testing.B) {
				runCell(b, platform.Engle, test, v, false)
			})
		}
	}
}

// BenchmarkFigure3b regenerates Figure 3(b): the O, G, TG1 and TG2 builds
// on the dual-processor Turing node model.
func BenchmarkFigure3b(b *testing.B) {
	for _, test := range rocketeer.Tests() {
		cells := []struct {
			name string
			v    rocketeer.Version
			load bool
		}{
			{"O", rocketeer.VersionO, false},
			{"G", rocketeer.VersionG, false},
			{"TG1", rocketeer.VersionTG, true},
			{"TG2", rocketeer.VersionTG, false},
		}
		for _, c := range cells {
			b.Run(fmt.Sprintf("%s/%s", test.Name, c.name), func(b *testing.B) {
				runCell(b, platform.Turing, test, c.v, c.load)
			})
		}
	}
}

// BenchmarkParallelVoyager regenerates the §4.2 parallel experiment: four
// Voyager processes splitting the snapshot series across Turing nodes.
func BenchmarkParallelVoyager(b *testing.B) {
	for _, test := range rocketeer.Tests() {
		b.Run(test.Name, func(b *testing.B) {
			s := benchConfig(b)
			var reduction float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunParallel(s, test, 4)
				if err != nil {
					b.Fatal(err)
				}
				reduction += res.Reduction
			}
			b.ReportMetric(100*reduction/float64(b.N), "reduction-%")
		})
	}
}

// BenchmarkIOVolume regenerates the §4.2 I/O-volume comparison: bytes read
// by the original build vs the GODIVA build, per test.
func BenchmarkIOVolume(b *testing.B) {
	for _, test := range rocketeer.Tests() {
		b.Run(test.Name, func(b *testing.B) {
			s := benchConfig(b)
			var cut float64
			for i := 0; i < b.N; i++ {
				run := func(v rocketeer.Version) int64 {
					res, err := rocketeer.Run(v, rocketeer.Config{
						Test: test, Spec: s.Spec, Dir: s.Dir,
						Machine: platform.New(platform.Engle), VolumeScale: s.VolumeScale,
						Snapshots: 2,
					})
					if err != nil {
						b.Fatal(err)
					}
					return res.Disk.Bytes
				}
				o := run(rocketeer.VersionO)
				g := run(rocketeer.VersionG)
				cut += 100 * (1 - float64(g)/float64(o))
			}
			b.ReportMetric(cut/float64(b.N), "volume-cut-%")
		})
	}
}

// BenchmarkTable1Query measures the §3.1 key-lookup path on the Table 1
// schema: getFieldBuffer by (block ID, time-step ID).
func BenchmarkTable1Query(b *testing.B) {
	db := godiva.Open(godiva.Options{MemoryLimit: 1 << 28})
	defer db.Close()
	mustB(b, db.DefineField("block id", godiva.String, 11))
	mustB(b, db.DefineField("time-step id", godiva.String, 9))
	mustB(b, db.DefineField("pressure", godiva.Float64, godiva.Unknown))
	mustB(b, db.DefineRecordType("fluid", 2))
	mustB(b, db.InsertField("fluid", "block id", true))
	mustB(b, db.InsertField("fluid", "time-step id", true))
	mustB(b, db.InsertField("fluid", "pressure", false))
	mustB(b, db.CommitRecordType("fluid"))
	const blocks, steps = 120, 32
	for s := 0; s < steps; s++ {
		for blk := 0; blk < blocks; blk++ {
			rec, err := db.NewRecord("fluid")
			mustB(b, err)
			mustB(b, rec.SetString("block id", fmt.Sprintf("block_%04d", blk)))
			mustB(b, rec.SetString("time-step id", fmt.Sprintf("%08d", s)))
			if _, err := rec.AllocFieldBuffer("pressure", 800); err != nil {
				b.Fatal(err)
			}
			mustB(b, db.CommitRecord(rec))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := fmt.Sprintf("block_%04d", i%blocks)
		step := fmt.Sprintf("%08d", i%steps)
		if _, err := db.GetFieldBuffer("fluid", "pressure", blk, step); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnitCycle measures the unit machinery itself: add, wait, finish
// and delete of a unit holding one record.
func BenchmarkUnitCycle(b *testing.B) {
	db := godiva.Open(godiva.Options{MemoryLimit: 1 << 28, BackgroundIO: true})
	defer db.Close()
	mustB(b, db.DefineField("id", godiva.String, 16))
	mustB(b, db.DefineField("data", godiva.Bytes, godiva.Unknown))
	mustB(b, db.DefineRecordType("r", 1))
	mustB(b, db.InsertField("r", "id", true))
	mustB(b, db.InsertField("r", "data", false))
	mustB(b, db.CommitRecordType("r"))
	read := func(u *godiva.Unit) error {
		rec, err := u.NewRecord("r")
		if err != nil {
			return err
		}
		if err := rec.SetString("id", u.Name()); err != nil {
			return err
		}
		if _, err := rec.AllocFieldBuffer("data", 4096); err != nil {
			return err
		}
		return u.DB().CommitRecord(rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("u%09d", i)
		if err := db.AddUnit(name, read); err != nil {
			b.Fatal(err)
		}
		if err := db.WaitUnit(name); err != nil {
			b.Fatal(err)
		}
		if err := db.FinishUnit(name); err != nil {
			b.Fatal(err)
		}
		if err := db.DeleteUnit(name); err != nil {
			b.Fatal(err)
		}
	}
}

func mustB(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}
