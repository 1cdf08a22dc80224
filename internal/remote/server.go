package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"godiva/internal/genx"
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
	// Faults configures deterministic fault injection (testing; zero = off).
	Faults Faults
	// Logf, when non-nil, receives one line per connection event and error.
	Logf func(format string, args ...any)
}

// Faults injects failures into a configurable fraction of OpFetch response
// frames — one draw per RPC, however many files it carries — so client retry
// behavior is testable deterministically: decisions come from a private
// rand.Rand seeded with Seed. Fractions are cumulative — DropFrac 0.05 +
// ErrFrac 0.05 faults 10% of responses.
type Faults struct {
	Seed      int64         // RNG seed (0 means 1, for determinism)
	DropFrac  float64       // sever the connection mid-payload
	ErrFrac   float64       // answer CodeUnavailable (client retries)
	DelayFrac float64       // delay the response by Delay
	StallFrac float64       // stall an OpEvent delivery by Delay (slow subscriber)
	Delay     time.Duration // delay used by DelayFrac and StallFrac
}

func (f Faults) enabled() bool { return f.DropFrac > 0 || f.ErrFrac > 0 || f.DelayFrac > 0 }

// Fault actions drawn per OpFetch response frame.
const (
	faultNone = iota
	faultDrop
	faultErr
	faultDelay
)

// ServerStats is a snapshot of the server's operation counters, the
// server-side half of the subsystem's observability (RemoteStats is the
// client half).
type ServerStats struct {
	Conns          int64 // connections accepted
	RPCs           int64 // requests handled (all ops)
	Errors         int64 // error responses sent (excluding injected faults)
	FaultsInjected int64 // responses dropped, delayed or failed by Faults
	BytesOut       int64 // response frame bytes written
	BytesCopied    int64 // payload array bytes copied into response frames
	//                      (scatter-send borrows the rest straight from the
	//                      dataset; nonzero only on big-endian hosts)
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

	mu     sync.Mutex
	spec   genx.Spec // grows as OpIngest lands new steps
	conns  map[net.Conn]struct{}
	faults Faults
	rng    *rand.Rand
	stats  ServerStats
	closed bool

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
		opts:   opts,
		spec:   spec,
		ln:     ln,
		reader: genx.Reader{Mapped: true},
		reg:    push.NewRegistry(),
		conns:  make(map[net.Conn]struct{}),
	}
	s.mu.Lock()
	s.setFaultsLocked(opts.Faults)
	s.mu.Unlock()
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

// SetFaults replaces the fault-injection plan at run time (tests use this to
// switch failure modes against one server).
func (s *Server) SetFaults(f Faults) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setFaultsLocked(f)
}

func (s *Server) setFaultsLocked(f Faults) {
	s.faults = f
	seed := f.Seed
	if seed == 0 {
		seed = 1
	}
	s.rng = rand.New(rand.NewSource(seed))
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

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		op, body, err := readFrame(conn)
		if err != nil {
			return // client went away, idled out, or sent garbage
		}
		if op == OpSubscribe {
			// The connection changes direction: this goroutine becomes the
			// subscription's fan-out writer until the stream ends.
			s.handleSubscribe(conn, body)
			return
		}
		rop, segs, done := s.handleRequest(op, body)
		// done releases the handles on the mapped snapshot files the
		// response segments alias; it must run after the frame has left —
		// and on every early return — before the mapping may be closed.
		release := func() {
			if done != nil {
				done()
				done = nil
			}
		}

		// Fault injection on the data path only, so health checks and spec
		// discovery stay reliable.
		if op == OpFetch {
			switch action, delay := s.faultAction(); action {
			case faultDrop:
				// Sever mid-payload: the header promises the full response,
				// but only a prefix of the body follows before the hang-up —
				// the client sees an unexpected EOF partway through.
				rbody := flattenSegments(segs)
				release()
				cut := len(rbody) / 2
				if cut > 4096 {
					cut = 4096
				}
				hdr := make([]byte, 6)
				binary.LittleEndian.PutUint32(hdr, uint32(2+len(rbody)))
				hdr[4] = protoVersion
				hdr[5] = rop
				conn.Write(append(hdr, rbody[:cut]...))
				return
			case faultErr:
				release()
				rop, segs = RespErr, [][]byte{encodeErr(CodeUnavailable, "injected fault")}
			case faultDelay:
				time.Sleep(delay)
			}
		}

		blen := 0
		for _, seg := range segs {
			blen += len(seg)
		}
		conn.SetWriteDeadline(time.Now().Add(s.opts.IdleTimeout))
		err = writeFrameBuffers(conn, rop, segs)
		release()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.stats.BytesOut += int64(6 + blen)
		s.mu.Unlock()
	}
}

// faultAction draws one fault decision for a response.
func (s *Server) faultAction() (int, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.faults
	if !f.enabled() {
		return faultNone, 0
	}
	r := s.rng.Float64()
	action := faultNone
	switch {
	case r < f.DropFrac:
		action = faultDrop
	case r < f.DropFrac+f.ErrFrac:
		action = faultErr
	case r < f.DropFrac+f.ErrFrac+f.DelayFrac:
		action = faultDelay
	}
	if action != faultNone {
		s.stats.FaultsInjected++
	}
	return action, f.Delay
}

// handleRequest dispatches one request and returns the response frame as
// scattered segments, plus a non-nil done when the segments borrow mapped
// snapshot files (the caller runs it once the frame is written). A panic
// anywhere in the read path (e.g. a decoder bug on a damaged snapshot) is
// converted into a clean CodeInternal response rather than killing the
// connection handler.
func (s *Server) handleRequest(op byte, body []byte) (rop byte, segs [][]byte, done func()) {
	defer func() {
		if r := recover(); r != nil {
			s.logf("remote: panic serving op %#02x: %v", op, r)
			rop, segs, done = RespErr, [][]byte{encodeErr(CodeInternal, fmt.Sprintf("panic: %v", r))}, nil
		}
	}()
	countErr := func(code uint16, msg string) (byte, [][]byte, func()) {
		s.countError()
		return RespErr, [][]byte{encodeErr(code, msg)}, nil
	}
	s.mu.Lock()
	s.stats.RPCs++
	s.mu.Unlock()
	switch op {
	case OpPing:
		return RespOK, nil, nil
	case OpSpec:
		return RespOK, [][]byte{encodeSpec(s.Spec())}, nil
	case OpIngest:
		if !s.opts.Ingest {
			return countErr(CodeBadRequest, "ingest is disabled on this server")
		}
		path, fp, _, err := decodeIngestReq(body)
		if err != nil {
			return countErr(CodeBadRequest, err.Error())
		}
		if err := s.ingest(path, fp); err != nil {
			s.logf("remote: ingest %s: %v", path, err)
			return countErr(errCode(err), err.Error())
		}
		return RespOK, nil, nil
	case OpFetch:
		reqs, err := decodeFetchReq(body)
		if err != nil {
			return countErr(CodeBadRequest, err.Error())
		}
		return s.serveFetch(reqs)
	default:
		return countErr(CodeBadRequest, fmt.Sprintf("unknown op %#02x", op))
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

// serveFile returns one (path, vars) fetch's encoded response body as
// scattered segments, encoded from a handle on the server's table of mapped
// snapshot files: a file stays mapped, verified and decoded while the table
// holds it, and the payload arrays alias its mapping, so scatter-send writes
// them straight from the page cache (shdf falls back to heap-backed reads
// where mmap is unavailable). done closes the handle; the caller runs it
// once the frame borrowing the segments has been written. size is the total
// payload length; copied counts array bytes that could not be borrowed.
func (s *Server) serveFile(path string, vars []string) (segs [][]byte, size int, copied int64, done func(), err error) {
	if path == "" || !filepath.IsLocal(path) || !strings.HasSuffix(path, ".shdf") {
		return nil, 0, 0, nil, &ServerError{Code: CodeBadRequest, Msg: fmt.Sprintf("bad path %q", path)}
	}
	h, err := s.reader.Open(filepath.Join(s.opts.Dir, path))
	if err != nil {
		return nil, 0, 0, nil, err
	}
	// Closing releases a table reference, which cannot fail in a way a fetch
	// could act on.
	done = func() { _ = h.Close() }
	defer func() {
		if segs == nil {
			done() // read error or decoder panic: nobody else will
		}
	}()
	fp := &FilePayload{Path: path, Time: h.Time, StepID: h.StepID}
	for _, e := range h.Blocks() {
		bd, err := h.ReadBlock(e, vars)
		if err != nil {
			return nil, 0, 0, nil, err
		}
		fp.Blocks = append(fp.Blocks, bd)
	}
	if segs, copied, err = encodeFilePayloadSegments(fp, maxFrame-2); err != nil {
		return nil, 0, 0, nil, err
	}
	for _, seg := range segs {
		size += len(seg)
	}
	return segs, size, copied, done, nil
}

// serveFetch answers one OpFetch request: every item is fetched through
// serveFile and appended to a single multi-file response frame. Items fail
// independently — a missing file yields an error item, not an error frame —
// and an item that would overflow the frame cap is answered CodeUnavailable
// so the client asks for it again in a smaller request.
func (s *Server) serveFetch(reqs []fetchReq) (byte, [][]byte, func()) {
	var out segEnc
	out.e.u32(uint32(len(reqs)))
	var releases []func()
	var copied int64
	for _, r := range reqs {
		segs, size, cp, done, err := s.serveFile(r.path, r.vars)
		if err != nil {
			s.countError()
			s.logf("remote: fetch %s: %v", r.path, err)
			out.appendFetchItem(nil, 0, &ServerError{Code: errCode(err), Msg: err.Error()})
			continue
		}
		// Worst-case item preamble: status byte, pad to 4, u32 length,
		// pad to 8 — 15 bytes.
		if out.base+len(out.e.b)+15+size > maxFrame-2 {
			done()
			out.appendFetchItem(nil, 0, &ServerError{Code: CodeUnavailable, Msg: "fetch frame full"})
			continue
		}
		copied += cp
		out.appendFetchItem(segs, size, nil)
		releases = append(releases, done)
	}
	out.flush()
	s.mu.Lock()
	s.stats.BytesCopied += copied
	s.mu.Unlock()
	return RespOK, out.segs, func() {
		for _, f := range releases {
			f()
		}
	}
}

// ingest validates and lands one pushed snapshot file, then publishes the
// arrival to the subscription registry. The payload goes through the same
// shdf writer path WriteDataset uses (into a temp file, renamed into place,
// so a crashed producer never leaves a torn snapshot visible) and the served
// spec grows to cover the new step. An overwritten path needs no
// invalidation: the reader's table checks file identity on every Open and
// keeps a replaced mapping alive until its last handle closes. Publish
// blocks while a lossless (Block) subscriber's queue is full — that
// backpressure is the point: the producer's RespOK is withheld until every
// lossless consumer has room.
func (s *Server) ingest(path string, fp *FilePayload) error {
	step, file, ok := genx.ParseSnapshotFile(path)
	if !ok || !filepath.IsLocal(path) {
		return &ServerError{Code: CodeBadRequest, Msg: fmt.Sprintf("bad ingest path %q", path)}
	}
	dst := filepath.Join(s.opts.Dir, path)
	tmp := dst + ".ingest"
	if err := genx.WriteBlockDataFile(tmp, fp.Time, step, fp.StepID, fp.Blocks); err != nil {
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
			if stall, delay := s.stallAction(); stall {
				time.Sleep(delay)
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

// stallAction draws one slow-subscriber fault decision for an event write.
func (s *Server) stallAction() (bool, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.faults
	if f.StallFrac <= 0 {
		return false, 0
	}
	if s.rng.Float64() < f.StallFrac {
		s.stats.FaultsInjected++
		return true, f.Delay
	}
	return false, 0
}
