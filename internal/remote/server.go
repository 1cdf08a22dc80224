package remote

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"godiva/internal/genx"
	"godiva/internal/mesh"
	"godiva/internal/push"
	"godiva/internal/shdf"
)

// ServerOptions configures a unit server (cmd/godivad).
type ServerOptions struct {
	// Addr is the TCP listen address. Empty means "127.0.0.1:0" (an
	// ephemeral loopback port, reported by Server.Addr).
	Addr string
	// Dir is the snapshot directory served; it must hold a dataset readable
	// by genx.Discover. Request paths are resolved inside it and may not
	// escape it.
	Dir string
	// IdleTimeout disconnects clients idle longer than this (default 5m).
	IdleTimeout time.Duration
	// Ingest accepts OpIngest requests: producers may push new snapshot
	// files into Dir, and the server starts even when Dir is empty or
	// missing (it is created). Off by default — a fetch-only server never
	// writes its dataset.
	Ingest bool
	// Heartbeat is the idle interval between keep-alive frames on
	// subscription connections (default IdleTimeout/2, capped at 2s).
	Heartbeat time.Duration
	// Logf, when non-nil, receives one line per connection event and error.
	Logf func(format string, args ...any)
}

// ServerStats is a snapshot of the server's operation counters, the
// server-side half of the subsystem's observability (RemoteStats is the
// client half).
type ServerStats struct {
	Conns       int64 // connections accepted
	RPCs        int64 // requests handled (all ops)
	Errors      int64 // error responses sent
	BytesOut    int64 // response frame bytes written
	BytesCopied int64 // payload array bytes copied into response frames
	//                   (scatter-send borrows the rest straight from the
	//                   dataset; nonzero only on big-endian hosts)
	// The server reads snapshot files through one table of mappings
	// (genx.Reader, Mapped), its only cache. ReaderOpens counts mappings
	// made — one per fetched file the table could not serve — and
	// ReaderCloses mappings unmapped again: past the table's idle bound,
	// replaced after an ingest, or at shutdown. ReaderHits counts fetched
	// files served by a mapping the table already held.
	ReaderOpens  int64
	ReaderCloses int64
	ReaderHits   int64

	// Always zero: the server has no payload cache. Kept only because the
	// repository benchmark still reports them.
	PayloadCacheHits      int64
	PayloadCacheMisses    int64
	PayloadCacheEvictions int64

	Ingests       int64 // snapshot files accepted via OpIngest
	Subscriptions int64 // OpSubscribe streams accepted
	EventsOut     int64 // OpEvent frames written (heartbeats excluded)
}

// Server serves unit payloads out of a directory of SHDF snapshot files.
// Start one with Serve; stop it with Close.
type Server struct {
	opts   ServerOptions
	ln     net.Listener
	reader genx.Reader // Mapped: the snapshot files fetches read
	reg    *push.Registry
	// onEvent, when non-nil, runs before each OpEvent write of a
	// subscription stream. Only tests set it (export_test.go), to play a
	// slow subscriber that socket buffers would otherwise hide.
	onEvent func()

	// frameCap bounds a response payload: maxFrame-2, the wire cap. Tests
	// lower it to fill a frame with small files.
	frameCap int

	mu     sync.Mutex
	spec   genx.Spec             // grows as OpIngest lands new steps; guarded by mu
	conns  map[net.Conn]struct{} // guarded by mu
	stats  ServerStats           // guarded by mu
	closed bool                  // guarded by mu

	wg sync.WaitGroup
}

// Serve discovers the dataset in opts.Dir, starts listening, and serves
// until Close.
func Serve(opts ServerOptions) (*Server, error) {
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.IdleTimeout <= 0 {
		opts.IdleTimeout = 5 * time.Minute
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = opts.IdleTimeout / 2
		if opts.Heartbeat > 2*time.Second {
			opts.Heartbeat = 2 * time.Second
		}
	}
	if opts.Ingest {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("remote: serve %s: %w", opts.Dir, err)
		}
	}
	spec, err := genx.Discover(opts.Dir)
	if err != nil {
		// An ingest server may start on an empty directory: producers fill
		// it, and the spec grows as snapshots land.
		if !opts.Ingest {
			return nil, fmt.Errorf("remote: serve %s: %w", opts.Dir, err)
		}
		spec = genx.Spec{}
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("remote: listen: %w", err)
	}
	s := &Server{
		opts:     opts,
		spec:     spec,
		ln:       ln,
		reader:   genx.Reader{Mapped: true},
		reg:      push.NewRegistry(),
		frameCap: maxFrame - 2,
		conns:    make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Spec returns the served dataset's shape. Ingest grows it at run time.
func (s *Server) Spec() genx.Spec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spec
}

// PushStats returns a snapshot of the push registry's fan-out counters.
func (s *Server) PushStats() push.Stats { return s.reg.Stats() }

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	rs := s.reader.Stats()
	st.ReaderOpens, st.ReaderCloses, st.ReaderHits = rs.Opens, rs.Closes, rs.Hits
	return st
}

// Close stops accepting, severs open connections, joins the handler
// goroutines and then unmaps every snapshot file the server still holds.
// Closing the push registry first wakes every fan-out writer blocked on an
// empty queue (and every ingest blocked on a full lossless queue); closing
// the connections then unblocks writers stuck mid-send to a stalled peer, so
// wg.Wait cannot hang behind a subscription.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.reg.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return errors.Join(err, s.reader.Close())
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			s.logf("remote: accept: %v", err)
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.stats.Conns++
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// connState is what one connection keeps across its requests. Each request
// frame is read into req, handled, and answered from out before the next
// read reuses either, so the arrays an ingest decodes in place (and writes
// to its file) and the segments of the last response are dead by then. An
// ingest decodes into stock's blocks and ingest's payload and writes its
// file through writer, all of which the next ingest refills. Every buffer
// grows only for a frame larger than any before, and goes with the
// connection.
type connState struct {
	req    []byte
	out    frameEnc
	held   []*genx.FileHandle // mapped files out's segments borrow, closed once it is written
	vars   fetchVars
	stock  blockStock      // the blocks of the last ingest request
	ingest FilePayload     // the last ingest request's payload
	writer genx.FileWriter // writes ingested snapshot files
}

// release closes the handles the last response borrowed from. Closing
// releases a table reference, which cannot fail in a way a fetch could act
// on.
func (cs *connState) release() {
	for i, h := range cs.held {
		_ = h.Close()
		cs.held[i] = nil
	}
	cs.held = cs.held[:0]
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	cs := &connState{}
	get := func(n int) []byte {
		if cap(cs.req) < n {
			cs.req = alignedFrameBuf(n)
		}
		return cs.req[:n]
	}
	for {
		conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		op, _, body, err := readFrameBuf(conn, get)
		if err != nil {
			return // client went away, idled out, or sent garbage
		}
		if op == OpSubscribe {
			// The connection changes direction: this goroutine becomes the
			// subscription's fan-out writer until the stream ends.
			s.handleSubscribe(conn, body)
			return
		}
		cs.out.reset()
		rop := s.handleRequest(op, body, cs)
		conn.SetWriteDeadline(time.Now().Add(s.opts.IdleTimeout))
		n, err := cs.out.writeTo(conn, rop)
		// Only once the frame has left may the mappings its segments
		// borrow close.
		cs.release()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.stats.BytesOut += int64(n)
		s.mu.Unlock()
	}
}

// handleRequest dispatches one request, appends the response payload to
// cs.out (reset by the caller) and returns the response op. The handles of
// the mapped snapshot files whose arrays the payload borrows go to cs.held,
// for the caller to close once the frame is written. A panic anywhere in
// the read path (e.g. a decoder bug on a damaged snapshot) is converted
// into a clean CodeInternal response rather than killing the connection
// handler.
func (s *Server) handleRequest(op byte, body []byte, cs *connState) (rop byte) {
	defer func() {
		if r := recover(); r != nil {
			s.logf("remote: panic serving op %#02x: %v", op, r)
			s.countError()
			cs.release()
			cs.out.reset()
			cs.out.errBody(CodeInternal, fmt.Sprintf("panic: %v", r))
			rop = RespErr
		}
	}()
	fail := func(code uint16, msg string) byte {
		s.countError()
		cs.out.errBody(code, msg)
		return RespErr
	}
	s.mu.Lock()
	s.stats.RPCs++
	s.mu.Unlock()
	switch op {
	case OpPing:
		return RespOK
	case OpSpec:
		cs.out.spec(s.Spec())
		return RespOK
	case OpIngest:
		if !s.opts.Ingest {
			return fail(CodeBadRequest, "ingest is disabled on this server")
		}
		fp := &cs.ingest
		if err := decodeIngestReq(body, &cs.stock, fp); err != nil {
			return fail(CodeBadRequest, err.Error())
		}
		if err := s.ingest(&cs.writer, fp.Path, fp); err != nil {
			s.logf("remote: ingest %s: %v", fp.Path, err)
			return fail(errCode(err), err.Error())
		}
		return RespOK
	case OpFetch:
		reqs, err := decodeFetchReq(body)
		if err != nil {
			return fail(CodeBadRequest, err.Error())
		}
		s.serveFetch(cs, reqs)
		return RespOK
	default:
		return fail(CodeBadRequest, fmt.Sprintf("unknown op %#02x", op))
	}
}

// errCode maps a fetch error onto a protocol error code.
func errCode(err error) uint16 {
	var se *ServerError
	switch {
	case errors.As(err, &se):
		return se.Code
	case errors.Is(err, ErrFrameTooLarge):
		return CodeInternal
	case os.IsNotExist(err):
		return CodeNotFound
	case errors.Is(err, shdf.ErrNotSHDF),
		errors.Is(err, shdf.ErrCorrupt),
		errors.Is(err, shdf.ErrChecksum),
		errors.Is(err, shdf.ErrNoObject),
		errors.Is(err, shdf.ErrBadType):
		return CodeCorrupt
	default:
		return CodeInternal
	}
}

// fetchVars is a fetch request's var list made ready for encoding: the node
// fields and the element fields, each in name order without repeats, as
// indices into the list as requested, whose order reads follow.
type fetchVars struct {
	vars []string     // as requested
	node []int        // node fields, by index into vars
	elem []int        // element fields, by index into vars
	mesh mesh.TetMesh // one block's mesh arrays
	cols [][]float64  // one block's fields, by index into vars
}

// set prepares vars. The items of one request normally share their var
// list, so a list equal to the last one is not sorted again.
func (fv *fetchVars) set(vars []string) {
	if slices.Equal(fv.vars, vars) {
		return
	}
	fv.vars = vars
	fv.node, fv.elem = fv.node[:0], fv.elem[:0]
	fv.cols = slices.Grow(fv.cols[:0], len(vars))[:len(vars)]
	byName := func(i int, name string) int { return strings.Compare(vars[i], name) }
	insert := func(list []int, i int) []int {
		j, found := slices.BinarySearchFunc(list, vars[i], byName)
		if found {
			return list
		}
		return slices.Insert(list, j, i)
	}
	for i, v := range vars {
		switch {
		case genx.IsNodeField(v):
			fv.node = insert(fv.node, i)
		case genx.IsElemField(v):
			fv.elem = insert(fv.elem, i)
		}
	}
}

// block appends block e's body, read from h, to out: the FilePayload block
// layout of encodeFilePayloadSegments. Fields are read in request order,
// so a block that lacks one, or a var that names no field, fails with the
// error genx's ReadBlock gives.
func (fv *fetchVars) block(out *frameEnc, h *genx.FileHandle, e genx.BlockEntry) error {
	m := &fv.mesh
	if err := h.ReadMeshInto(e, m); err != nil {
		return err
	}
	for i, v := range fv.vars {
		data, err := h.ReadField(e, v)
		if err != nil {
			return err
		}
		if !genx.IsNodeField(v) && !genx.IsElemField(v) {
			return genx.UnknownVariable(v)
		}
		fv.cols[i] = data
	}
	out.u32(uint32(e.ID))
	out.str(e.Name)
	encodeArray(out, m.Coords)
	encodeArray(out, m.Tets)
	encodeArray(out, m.GlobalNode)
	for _, list := range [2][]int{fv.node, fv.elem} {
		out.u16(uint16(len(list)))
		for _, i := range list {
			out.str(fv.vars[i])
			encodeArray(out, fv.cols[i])
		}
	}
	*m = mesh.TetMesh{}
	clear(fv.cols)
	return nil
}

// serveFile appends one (path, vars) fetch's FilePayload body to out,
// encoded straight from a handle on the server's table of mapped snapshot
// files: a file stays mapped, verified and decoded while the table holds
// it, and the payload arrays alias its mapping, so scatter-send writes
// them straight from the page cache (shdf falls back to heap-backed reads
// where mmap is unavailable). The returned handle must stay open until the
// frame borrowing the arrays has been written. On error the handle is
// closed, and what serveFile appended is the caller's to roll back.
func (s *Server) serveFile(out *frameEnc, path string, vars []string, fv *fetchVars) (*genx.FileHandle, error) {
	if path == "" || !filepath.IsLocal(path) || !strings.HasSuffix(path, ".shdf") {
		return nil, &ServerError{Code: CodeBadRequest, Msg: fmt.Sprintf("bad path %q", path)}
	}
	h, err := s.reader.Open(filepath.Join(s.opts.Dir, path))
	if err != nil {
		return nil, err
	}
	served := false
	defer func() {
		if !served {
			_ = h.Close() // read error or decoder panic: nobody else will
		}
	}()
	fv.set(vars)
	blocks := h.Blocks()
	out.f64(h.Time)
	out.str(h.StepID)
	out.u32(uint32(len(blocks)))
	for _, e := range blocks {
		if err := fv.block(out, h, e); err != nil {
			return nil, err
		}
	}
	served = true
	return h, nil
}

// serveFetch appends the answer to one OpFetch request to cs.out: every
// item is encoded by serveFile into the one multi-file response frame.
// Items fail independently — a missing file yields an error item, not an
// error frame — and an item that would overflow the frame cap is answered
// CodeUnavailable so the client asks for it again in a smaller request.
// A failed item is rolled back out of the frame and its handle closed at
// once; the handles of the items answered go to cs.held.
func (s *Server) serveFetch(cs *connState, reqs []fetchReq) {
	out := &cs.out
	out.u32(uint32(len(reqs)))
	for _, r := range reqs {
		it := out.beginOK()
		h, err := s.serveFile(out, r.path, r.vars, &cs.vars)
		if err == nil {
			size := out.endOK(it)
			err = frameFits(size, s.frameCap)
			// Worst-case item preamble: status byte, pad to 4, u32 length,
			// pad to 8 — 15 bytes.
			if err == nil && it.start+15+size <= s.frameCap {
				cs.held = append(cs.held, h)
				continue
			}
			_ = h.Close()
		}
		out.rollback(it.at)
		if err == nil {
			out.errItem(CodeUnavailable, "fetch frame full")
			continue
		}
		s.countError()
		s.logf("remote: fetch %s: %v", r.path, err)
		out.errItem(errCode(err), err.Error())
	}
}

// ingest validates and lands one pushed snapshot file, then publishes the
// arrival to the subscription registry. The payload goes through fw, the
// connection's writer, on the path WriteDataset uses (into a temp file,
// renamed into place, so a crashed producer never leaves a torn snapshot
// visible) and the served spec grows to cover the new step. An overwritten path needs no
// invalidation: the reader's table checks file identity on every Open and
// keeps a replaced mapping alive until its last handle closes. Publish
// blocks while a lossless (Block) subscriber's queue is full — that
// backpressure is the point: the producer's RespOK is withheld until every
// lossless consumer has room.
func (s *Server) ingest(fw *genx.FileWriter, path string, fp *FilePayload) error {
	step, file, ok := genx.ParseSnapshotFile(path)
	if !ok || !filepath.IsLocal(path) {
		return &ServerError{Code: CodeBadRequest, Msg: fmt.Sprintf("bad ingest path %q", path)}
	}
	dst := filepath.Join(s.opts.Dir, path)
	tmp := dst + ".ingest"
	if err := fw.Write(tmp, fp.Time, step, fp.StepID, fp.Blocks); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return err
	}
	maxBlock := 0
	for _, bd := range fp.Blocks {
		if bd.ID+1 > maxBlock {
			maxBlock = bd.ID + 1
		}
	}

	s.mu.Lock()
	if step+1 > s.spec.Snapshots {
		s.spec.Snapshots = step + 1
	}
	if file+1 > s.spec.FilesPerSnapshot {
		s.spec.FilesPerSnapshot = file + 1
	}
	if maxBlock > s.spec.Blocks {
		s.spec.Blocks = maxBlock
	}
	if s.spec.DT == 0 && fp.Time > 0 {
		s.spec.DT = fp.Time / float64(step+1)
	}
	s.stats.Ingests++
	s.mu.Unlock()

	_, err := s.reg.Publish(push.Event{
		Step:   step,
		File:   file,
		Path:   path,
		StepID: fp.StepID,
		Time:   fp.Time,
	})
	if err != nil && err != push.ErrClosed {
		return err
	}
	return nil
}

// handleSubscribe turns a connection into a long-lived event stream: it
// registers the requested match rule, acknowledges with RespOK, and then
// writes one OpEvent frame per delivered event until the stream ends. The
// handler goroutine itself is the fan-out writer — no extra goroutine, so
// the stream's lifetime is exactly the connection handler's. Empty OpEvent
// heartbeats flow while the queue is idle, bounding how long a dead peer
// goes unnoticed; each write carries a deadline, bounding how long a
// stalled peer can hold the subscription (and, through a Block queue, the
// producer).
func (s *Server) handleSubscribe(conn net.Conn, body []byte) {
	conn.SetWriteDeadline(time.Now().Add(s.opts.IdleTimeout))
	spec, opts, err := decodeSubReq(body)
	if err != nil {
		s.countError()
		writeFrame(conn, RespErr, encodeErr(CodeBadRequest, err.Error()))
		return
	}
	sub, err := s.reg.Subscribe(spec, opts)
	if err != nil {
		s.countError()
		writeFrame(conn, RespErr, encodeErr(CodeUnavailable, err.Error()))
		return
	}
	defer sub.Close()
	if err := writeFrame(conn, RespOK, nil); err != nil {
		return
	}
	s.mu.Lock()
	s.stats.Subscriptions++
	s.mu.Unlock()
	for {
		ev, ok, closed := sub.NextTimeout(s.opts.Heartbeat)
		if closed {
			return // subscriber or server shut down
		}
		var frame []byte
		if ok {
			if s.onEvent != nil {
				s.onEvent()
			}
			frame = encodeEvent(ev)
		}
		conn.SetWriteDeadline(time.Now().Add(s.opts.IdleTimeout))
		if err := writeFrame(conn, OpEvent, frame); err != nil {
			return // peer gone or stalled past the deadline
		}
		s.mu.Lock()
		s.stats.BytesOut += int64(6 + len(frame))
		if ok {
			s.stats.EventsOut++
		}
		s.mu.Unlock()
	}
}

// countError bumps the error-response counter.
func (s *Server) countError() {
	s.mu.Lock()
	s.stats.Errors++
	s.mu.Unlock()
}
