package genx

import (
	"fmt"
	"os"

	"godiva/internal/mesh"
	"godiva/internal/platform"
	"godiva/internal/shdf"
)

// Per-request overheads of the scientific-format read path, charged on top
// of payload bytes. The paper's datasets are many small arrays (9,600 to
// 48,000 bytes), so per-request library overhead is a real share of input
// cost and is why its tests "issued a large number of relatively small I/O
// requests".
const (
	reqDiskOverhead   = 2048 // extra effective bytes per read request
	reqDecodeOverhead = 4096 // extra effective bytes per decode
)

// Reader reads snapshot files, optionally charging all I/O and decode work
// to a simulated platform. A nil machine reads at native speed (used by the
// examples and tests); the experiments pass the Engle or Turing model, and
// then read only from the machine's simulated goroutines (Machine.Run), each
// charge parking the reader for its span of virtual time.
type Reader struct {
	M *platform.Machine

	// Mapped opens snapshot files with shdf.OpenMapped: dataset reads
	// return views that alias the file's read-only memory mapping instead
	// of decoded copies (falling back to ordinary reads where mmap is
	// unavailable). Borrowed views live until the FileHandle is closed;
	// callers that hold datasets across Close must copy them first.
	//
	// A Mapped Reader keeps one table of open files: every Open of a file
	// the table holds — unchanged since it was opened — shares its mapping,
	// decoded directory, verified checksums and decoded dataset views, and
	// a file stays mapped after its last handle closes, on an idle list
	// bounded at 128 MiB, until it is evicted, replaced or the Reader is
	// closed.
	Mapped bool

	// VolumeScale multiplies payload bytes when charging the platform
	// (request-count overheads are not scaled). The experiments run on a
	// geometrically reduced dataset with the full block and file structure,
	// and set VolumeScale to the full-to-reduced cell ratio so the platform
	// is charged the paper's data volumes while the real files stay small.
	// Zero means 1.
	VolumeScale float64

	files fileTable // a Mapped Reader's open files
}

// Close closes the idle files of a Mapped Reader's table now; files with
// open handles close at their last handle's Close. The Reader stays usable,
// but keeps no file open past its handles from here on.
func (r *Reader) Close() error { return r.files.close() }

// Stats counts a Mapped Reader's table traffic.
func (r *Reader) Stats() TableStats { return r.files.snapshot() }

func (r *Reader) scaled(n int64) int64 {
	if r.VolumeScale > 1 {
		return int64(float64(n) * r.VolumeScale)
	}
	return n
}

func (r *Reader) chargeRead(n int64, seeks int) {
	if r.M != nil {
		r.M.DiskRead(r.scaled(n)+reqDiskOverhead, seeks)
	}
}

func (r *Reader) chargeDecode(n int64) {
	if r.M != nil {
		r.M.Decode(r.scaled(n) + reqDecodeOverhead)
	}
}

// BlockEntry locates one block inside an open snapshot file.
type BlockEntry struct {
	Name    string // "block_0001"
	ID      int    // zero-based block index
	Members map[string]shdf.ObjectInfo
}

// FileHandle is one open snapshot file plus the read position used to model
// sequential reads vs seeks. Handles of a Mapped Reader are cursors over the
// Reader's shared open file; each keeps its own read position.
type FileHandle struct {
	r       *Reader
	sf      *snapshotFile // nil once closed
	path    string
	nextOff int64 // end of the last payload read; reads elsewhere seek
	Time    float64
	StepID  string
	blocks  []BlockEntry
}

// Open opens a snapshot file, reading its directory, block table and time
// attributes (charged as one open plus one small read, whether or not a
// Mapped Reader's table already held the file: the charges model the
// paper's disk, not this process's page tables).
func (r *Reader) Open(path string) (*FileHandle, error) {
	if r.M != nil {
		r.M.DiskOpen()
	}
	var sf *snapshotFile
	var err error
	if r.Mapped {
		sf, err = r.files.acquire(path)
	} else {
		sf, err = openSnapshotFile(path, shdf.Open)
	}
	if err != nil {
		return nil, err
	}
	// Directory and footer: their size tracks the object count, which the
	// reduced dataset preserves, so this charge is not volume-scaled.
	if r.M != nil {
		r.M.DiskRead(64*1024, 1)
		r.M.Decode(16 * 1024)
	}
	return &FileHandle{r: r, sf: sf, path: path, Time: sf.time, StepID: sf.stepID, blocks: sf.blocks}, nil
}

// Close releases the handle's file: a Mapped Reader's table keeps it open
// for later Opens, any other Reader closes it. Later calls do nothing.
func (h *FileHandle) Close() error {
	sf := h.sf
	if sf == nil {
		return nil
	}
	h.sf = nil
	if h.r.Mapped {
		return h.r.files.release(sf)
	}
	return sf.f.Close()
}

// Path returns the file's path.
func (h *FileHandle) Path() string { return h.path }

// Blocks lists the blocks stored in this file.
func (h *FileHandle) Blocks() []BlockEntry { return h.blocks }

// readaheadWindow is how far ahead (in full-scale bytes) the OS readahead
// reaches: forward skips inside the window cost no seek, while backward
// jumps and far forward jumps reposition the disk.
const readaheadWindow = 256 * 1024

// readSDS reads one dataset, charging transfer, decode, and a seek when the
// read is not satisfied by sequential readahead.
func (h *FileHandle) readSDS(info shdf.ObjectInfo) (*shdf.Dataset, error) {
	if h.sf == nil {
		return nil, fmt.Errorf("genx: %s: %w", h.path, os.ErrClosed)
	}
	seeks := 0
	if jump := info.Offset - h.nextOff; jump != 0 {
		if jump < 0 || h.r.scaled(jump) > readaheadWindow {
			seeks = 1
		}
	}
	h.r.chargeRead(info.ByteLen, seeks)
	ds, err := h.sf.f.ReadSDS(info.Ref)
	if err != nil {
		return nil, err
	}
	h.r.chargeDecode(info.ByteLen)
	h.nextOff = info.Offset + info.ByteLen
	return ds, nil
}

// ReadField reads one named field of a block as raw float64s (node vectors
// come back flattened x,y,z). Mesh fields: "coords" returns coordinates,
// "conn" and "gids" are not float fields — use ReadMesh for those.
func (h *FileHandle) ReadField(e BlockEntry, field string) ([]float64, error) {
	info, ok := e.Members[field]
	if !ok {
		return nil, fmt.Errorf("genx: block %s has no field %q", e.Name, field)
	}
	ds, err := h.readSDS(info)
	if err != nil {
		return nil, err
	}
	if ds.Type != shdf.TypeFloat64 {
		return nil, fmt.Errorf("genx: field %q of %s is %v, not float64", field, e.Name, ds.Type)
	}
	return ds.Float64s, nil
}

// ReadMesh reads a block's mesh arrays (coords, conn, gids).
func (h *FileHandle) ReadMesh(e BlockEntry) (*mesh.TetMesh, error) {
	coords, err := h.ReadField(e, "coords")
	if err != nil {
		return nil, err
	}
	connInfo, ok := e.Members["conn"]
	if !ok {
		return nil, fmt.Errorf("genx: block %s has no connectivity", e.Name)
	}
	conn, err := h.readSDS(connInfo)
	if err != nil {
		return nil, err
	}
	if conn.Type != shdf.TypeInt32 {
		return nil, fmt.Errorf("genx: connectivity of %s is %v", e.Name, conn.Type)
	}
	gidInfo, ok := e.Members["gids"]
	if !ok {
		return nil, fmt.Errorf("genx: block %s has no global IDs", e.Name)
	}
	gids, err := h.readSDS(gidInfo)
	if err != nil {
		return nil, err
	}
	if gids.Type != shdf.TypeInt64 {
		return nil, fmt.Errorf("genx: global IDs of %s are %v", e.Name, gids.Type)
	}
	return &mesh.TetMesh{Coords: coords, Tets: conn.Int32s, GlobalNode: gids.Int64s}, nil
}

// BlockData is one block's in-memory datasets for one snapshot.
type BlockData struct {
	ID     int
	Name   string
	Mesh   *mesh.TetMesh
	Node   map[string][]float64 // node vector fields, flattened
	Elem   map[string][]float64 // element scalar fields
	Time   float64
	StepID string
}

// ReadBlock reads a block's mesh plus the listed variable fields.
func (h *FileHandle) ReadBlock(e BlockEntry, vars []string) (*BlockData, error) {
	m, err := h.ReadMesh(e)
	if err != nil {
		return nil, err
	}
	bd := &BlockData{
		ID: e.ID, Name: e.Name, Mesh: m,
		Node: make(map[string][]float64), Elem: make(map[string][]float64),
		Time: h.Time, StepID: h.StepID,
	}
	for _, v := range vars {
		data, err := h.ReadField(e, v)
		if err != nil {
			return nil, err
		}
		switch {
		case IsNodeField(v):
			bd.Node[v] = data
		case IsElemField(v):
			bd.Elem[v] = data
		default:
			return nil, fmt.Errorf("genx: unknown variable %q", v)
		}
	}
	return bd, nil
}
