package godiva_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"godiva"
	"godiva/internal/mesh"
	"godiva/internal/shdf"
)

// The batch-mode pattern of paper §3.3: two input files are registered as
// processing units; the library prefetches them in the background through
// the read function while the main thread processes each unit and deletes
// it when done.
func Example_batchMode() {
	dir, err := os.MkdirTemp("", "godiva-example-")
	check(err)
	defer os.RemoveAll(dir)

	// Write two small SHDF input files, each holding one pressure array.
	units := []string{"input_0.shdf", "input_1.shdf"}
	for i, n := range []int{64, 128} {
		w, err := shdf.Create(filepath.Join(dir, units[i]))
		check(err)
		data := make([]float64, n)
		for j := range data {
			data[j] = 101325 + 500*math.Sin(float64(i+1)*float64(j)/8)
		}
		_, err = w.WriteSDS("pressure", []int{n}, data)
		check(err)
		check(w.Close())
	}

	// The paper's GODIVA Buffer Object: 64 MB of database memory,
	// background I/O on.
	db := godiva.Open(godiva.Options{MemoryLimit: 64 << 20, BackgroundIO: true})
	defer db.Close()

	// Schema: records keyed by file name, holding one pressure buffer of
	// initially unknown size (Table 1's UNKNOWN).
	check(db.DefineField("file", godiva.String, 32))
	check(db.DefineField("pressure", godiva.Float64, godiva.Unknown))
	check(db.DefineRecordType("sample", 1))
	check(db.InsertField("sample", "file", true))
	check(db.InsertField("sample", "pressure", false))
	check(db.CommitRecordType("sample"))

	// The developer-supplied read function: GODIVA passes the unit name
	// back, so one function serves every unit (§3.3, footnote 3).
	readFile := func(u *godiva.Unit) error {
		f, err := shdf.Open(filepath.Join(dir, u.Name()))
		if err != nil {
			return err
		}
		defer f.Close()
		info, err := f.FindByName(shdf.TagSDS, "pressure")
		if err != nil {
			return err
		}
		ds, err := f.ReadSDS(info.Ref)
		if err != nil {
			return err
		}
		rec, err := u.NewRecord("sample")
		if err != nil {
			return err
		}
		if err := rec.SetString("file", u.Name()); err != nil {
			return err
		}
		buf, err := rec.AllocFieldBuffer("pressure", 8*len(ds.Float64s))
		if err != nil {
			return err
		}
		dst, err := buf.Float64s()
		if err != nil {
			return err
		}
		copy(dst, ds.Float64s)
		return u.DB().CommitRecord(rec)
	}

	// Batch mode: add every unit up front, then wait, process, delete.
	for _, name := range units {
		check(db.AddUnit(name, readFile))
	}
	for _, name := range units {
		check(db.WaitUnit(name))
		buf, err := db.GetFieldBuffer("sample", "pressure", name)
		check(err)
		p, err := buf.Float64s()
		check(err)
		lo, hi := p[0], p[0]
		for _, v := range p {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		fmt.Printf("%s: %d pressure values in [%.0f, %.0f] Pa\n", name, len(p), lo, hi)
		check(db.DeleteUnit(name)) // batch mode: not needed again
	}
	s := db.Stats()
	fmt.Printf("GODIVA: %d units read, %d of them in the background\n", s.UnitsRead, s.UnitsPrefetched)
	// Output:
	// input_0.shdf: 64 pressure values in [100825, 101825] Pa
	// input_1.shdf: 128 pressure values in [100825, 101824] Pa
	// GODIVA: 2 units read, 2 of them in the background
}

// The paper's running example (§3.1): the Table 1 record type for a fluid
// dynamics simulation on structured 2-D mesh blocks, the Figure 2 record
// (a 100x100 block with 101 coordinates per direction), and the example
// query — "give me the address of the pressure data buffer of the block
// with ID block_0003 from the time-step with ID 0.000075".
func Example_fluidRecord() {
	db := godiva.Open(godiva.Options{MemoryLimit: 128 << 20})
	defer db.Close()

	// Table 1: six field types, the first two of known size, the arrays
	// UNKNOWN until the input data files are read.
	check(db.DefineField("block id", godiva.String, 11))
	check(db.DefineField("time-step id", godiva.String, 9))
	check(db.DefineField("x coordinates", godiva.Float64, godiva.Unknown))
	check(db.DefineField("y coordinates", godiva.Float64, godiva.Unknown))
	check(db.DefineField("pressure", godiva.Float64, godiva.Unknown))
	check(db.DefineField("temperature", godiva.Float64, godiva.Unknown))

	// The record type has two key fields: block ID and time-step ID.
	check(db.DefineRecordType("fluid", 2))
	check(db.InsertField("fluid", "block id", true))
	check(db.InsertField("fluid", "time-step id", true))
	check(db.InsertField("fluid", "x coordinates", false))
	check(db.InsertField("fluid", "y coordinates", false))
	check(db.InsertField("fluid", "pressure", false))
	check(db.InsertField("fluid", "temperature", false))
	check(db.CommitRecordType("fluid"))

	// Four blocks for each of three time steps, each one the Figure 2
	// instance: a 100x100 block with element-based pressure and
	// temperature.
	for step := 1; step <= 3; step++ {
		for b := 1; b <= 4; b++ {
			storeBlock(db, b, step)
		}
	}
	n, err := db.CountRecords("fluid")
	check(err)
	fmt.Printf("committed %d fluid records\n", n)

	// Table 1 as the database holds it, with Figure 2's buffer sizes.
	keys, err := db.KeyFields("fluid")
	check(err)
	fields, err := db.RecordTypeFields("fluid")
	check(err)
	fmt.Printf("record type fluid: %d fields, keys %q\n", len(fields), keys)
	rec, err := db.GetRecord("fluid", "block_0003", "0.000075")
	check(err)
	for _, f := range fields {
		buf, err := rec.FieldBuffer(f)
		check(err)
		fmt.Printf("  %-13s %-6s %5d bytes\n", f, buf.Type(), buf.Size())
	}

	// The paper's example query. The database returns the live buffer:
	// code reads and writes it directly, like a user-allocated array.
	buf, err := db.GetFieldBuffer("fluid", "pressure", "block_0003", "0.000075")
	check(err)
	p, err := buf.Float64s()
	check(err)
	fmt.Printf("pressure of block_0003 @ 0.000075: %d values, %d bytes\n", len(p), buf.Size())
	size, err := db.GetFieldBufferSize("fluid", "x coordinates", "block_0003", "0.000075")
	check(err)
	fmt.Printf("x coordinates of block_0003 @ 0.000075: %d bytes\n", size)

	// Compute from queried buffers: the pressure force on each block's
	// bottom edge at the last time step.
	for b := 1; b <= 4; b++ {
		id := fmt.Sprintf("block_%04d", b)
		fmt.Printf("%s: bottom-edge pressure force %.1f N/m\n", id, bottomForce(db, id, "0.000075"))
	}
	// Output:
	// committed 12 fluid records
	// record type fluid: 6 fields, keys ["block id" "time-step id"]
	//   block id      STRING    11 bytes
	//   time-step id  STRING     9 bytes
	//   x coordinates DOUBLE   808 bytes
	//   y coordinates DOUBLE   808 bytes
	//   pressure      DOUBLE 80000 bytes
	//   temperature   DOUBLE 80000 bytes
	// pressure of block_0003 @ 0.000075: 10000 values, 80000 bytes
	// x coordinates of block_0003 @ 0.000075: 808 bytes
	// block_0001: bottom-edge pressure force 2059925.0 N/m
	// block_0002: bottom-edge pressure force 2069925.0 N/m
	// block_0003: bottom-edge pressure force 2079925.0 N/m
	// block_0004: bottom-edge pressure force 2089925.0 N/m
}

// storeBlock builds block b of time step 2.5e-5*step, a 100x100 block, and
// commits its record. The pressure is offset by 10 kPa per block and 1 kPa
// per step, so the forces computed from queried buffers show which record
// each query found.
func storeBlock(db *godiva.DB, b, step int) {
	grid := mesh.UniformBlock2D(100, 100, 0, 1, 0, 1)
	rec, err := db.NewRecord("fluid")
	check(err)
	check(rec.SetString("block id", fmt.Sprintf("block_%04d", b)))
	check(rec.SetString("time-step id", fmt.Sprintf("%.6f", 2.5e-5*float64(step))))
	fill := func(field string, values []float64) {
		buf, err := rec.AllocFieldBuffer(field, 8*len(values))
		check(err)
		dst, err := buf.Float64s()
		check(err)
		copy(dst, values)
	}
	fill("x coordinates", grid.XCoords)
	fill("y coordinates", grid.YCoords)
	pressure := make([]float64, grid.NumElements())
	temperature := make([]float64, grid.NumElements())
	for j := 0; j < grid.NY; j++ {
		for i := 0; i < grid.NX; i++ {
			x := (grid.XCoords[i] + grid.XCoords[i+1]) / 2
			y := (grid.YCoords[j] + grid.YCoords[j+1]) / 2
			pressure[j*grid.NX+i] = 2e6*(1-0.3*y)*(1+0.05*x) + 1e4*float64(b) + 1e3*float64(step)
			temperature[j*grid.NX+i] = 300 + 2600*(1-y)
		}
	}
	fill("pressure", pressure)
	fill("temperature", temperature)
	check(db.CommitRecord(rec))
}

// bottomForce integrates pressure over a block's bottom edge, reading the
// buffers where the database stores them.
func bottomForce(db *godiva.DB, blockID, stepID string) float64 {
	xbuf, err := db.GetFieldBuffer("fluid", "x coordinates", blockID, stepID)
	check(err)
	pbuf, err := db.GetFieldBuffer("fluid", "pressure", blockID, stepID)
	check(err)
	x, err := xbuf.Float64s()
	check(err)
	p, err := pbuf.Float64s()
	check(err)
	var force float64
	for i := 0; i < len(x)-1; i++ {
		force += p[i] * (x[i+1] - x[i])
	}
	return force
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
