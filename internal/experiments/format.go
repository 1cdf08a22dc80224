package experiments

import (
	"fmt"
	"io"
	"time"

	"godiva/internal/genx"
	"godiva/internal/platform"
)

// FormatRow reports the scientific-format-vs-plain-binary comparison for
// one snapshot read: the §1 claim that files written with scientific data
// libraries "have at visualization time a higher input cost than do plain
// binary files".
type FormatRow struct {
	Format  string
	Read    time.Duration // virtual time to read one full snapshot
	MBRead  float64
	Decode  time.Duration // virtual CPU charged to decoding
	DiskSec float64       // virtual disk busy
}

// RunFormatComparison writes the dataset in both formats and times reading
// one full snapshot (all variables) through each on the Engle model.
func RunFormatComparison(s Setup) ([]*FormatRow, error) {
	if err := EnsureDataset(&s); err != nil {
		return nil, err
	}
	plainDir := s.Dir + "-plain"
	if _, err := genx.WritePlainDataset(s.Spec, plainDir); err != nil {
		return nil, err
	}
	vars := append(append([]string{}, genx.NodeVectorFields...), genx.ElemScalarFields...)

	readSHDF := func(r *genx.Reader) error {
		for i := 0; i < s.Spec.FilesPerSnapshot; i++ {
			h, err := r.Open(genx.SnapshotFile(s.Dir, 0, i))
			if err != nil {
				return err
			}
			for _, e := range h.Blocks() {
				if _, err := h.ReadBlock(e, vars); err != nil {
					h.Close()
					return err
				}
			}
			if err := h.Close(); err != nil {
				return err
			}
		}
		return nil
	}
	readPlain := func(r *genx.Reader) error {
		for i := 0; i < s.Spec.FilesPerSnapshot; i++ {
			h, err := r.OpenPlain(genx.PlainSnapshotFile(plainDir, 0, i))
			if err != nil {
				return err
			}
			for _, b := range h.Blocks() {
				if _, err := h.ReadMesh(b); err != nil {
					return err
				}
				for _, v := range vars {
					if _, err := h.ReadField(b, v); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}

	rows := []*FormatRow{{Format: "SHDF (HDF-like)"}, {Format: "plain binary"}}
	readers := []func(*genx.Reader) error{readSHDF, readPlain}
	for i, read := range readers {
		machine := platform.New(platform.Engle)
		r := &genx.Reader{M: machine, VolumeScale: s.VolumeScale}
		start := machine.Now()
		var err error
		machine.Run(func() { err = read(r) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rows[i].Format, err)
		}
		d := machine.Disk()
		rows[i].Read = machine.Now().Sub(start)
		rows[i].MBRead = float64(d.Bytes) / 1e6
		rows[i].DiskSec = d.Busy.Seconds()
		rows[i].Decode = machine.CPUBusy()
		s.logf("  format %-16s read %6.2fs", rows[i].Format, rows[i].Read.Seconds())
	}
	return rows, nil
}

// PrintFormatComparison writes the format comparison table.
func PrintFormatComparison(w io.Writer, rows []*FormatRow) {
	fmt.Fprintf(w, "\nInput cost per snapshot by file format (Engle):\n")
	fmt.Fprintf(w, "%-18s %8s %10s %12s %12s\n", "format", "read (s)", "MB", "disk (s)", "decode (s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %8.2f %10.1f %12.2f %12.2f\n",
			r.Format, r.Read.Seconds(), r.MBRead, r.DiskSec, r.Decode.Seconds())
	}
}
