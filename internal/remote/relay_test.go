package remote

import (
	"bytes"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// faultKind names what the relay does to one request/response exchange.
type faultKind int

const (
	faultPass        faultKind = iota
	faultSever                 // hang up partway through the response frame
	faultUnavailable           // answer RespErr with CodeUnavailable instead
	faultDelay                 // hold the response back for a while
)

// fault is the relay's decision for one exchange. The zero value passes the
// response through untouched.
type fault struct {
	kind  faultKind
	n     int           // faultSever: body bytes sent after the header
	delay time.Duration // faultDelay
}

// severAfter sends the response's header, which promises the full length,
// and its first n body bytes, then hangs up: the client sees an unexpected
// EOF mid-payload. The cut always falls short of the whole frame.
func severAfter(n int) fault { return fault{kind: faultSever, n: n} }

// unavailable answers the retryable CodeUnavailable in place of the
// response.
var unavailable = fault{kind: faultUnavailable}

// delayBy holds the response back for d (or until the relay closes).
func delayBy(d time.Duration) fault { return fault{kind: faultDelay, delay: d} }

// decision picks the fault for the seq'th request frame the relay reads
// (counted from 0 across connections) and its op. The relay calls it with
// its lock held, so a decision needs no lock of its own and must not call
// back into the relay.
type decision func(seq int, op byte) fault

// onFetch applies f to every OpFetch exchange and passes the rest, so health
// checks and spec discovery stay reliable.
func onFetch(f fault) decision {
	return func(_ int, op byte) fault {
		if op != OpFetch {
			return fault{}
		}
		return f
	}
}

// atSeqs applies script[seq] to the seq'th exchange: faults at scripted
// positions, the same on every run.
func atSeqs(script map[int]fault) decision {
	return func(seq int, _ byte) fault { return script[seq] }
}

// seededFaults severs severFrac of the OpFetch exchanges and answers
// unavailFrac of them CodeUnavailable, drawn from a generator seeded with
// seed.
func seededFaults(seed int64, severFrac, unavailFrac float64) decision {
	rng := rand.New(rand.NewSource(seed))
	return func(_ int, op byte) fault {
		if op != OpFetch {
			return fault{}
		}
		switch x := rng.Float64(); {
		case x < severFrac:
			return severAfter(4096)
		case x < severFrac+unavailFrac:
			return unavailable
		}
		return fault{}
	}
}

// relayStats counts the faults a relay injected.
type relayStats struct {
	Severed, Unavailable, Delayed int
}

// relay is the package's one test harness that speaks frames to a client.
// It listens on loopback and, for every client connection, either dials the
// upstream server and forwards each request to it, or — with no upstream —
// answers OpFetch requests from respond, staging responses the real server
// gives only under conditions a test cannot afford (an item that overflows
// a 1 GiB frame) or never gives at all. Each response then passes through
// the decision's fault. It relays request/response exchanges only, not
// subscription streams.
type relay struct {
	t        testing.TB
	ln       net.Listener
	upstream string
	respond  func(seq int, reqs []fetchReq) []byte
	done     chan struct{} // closed by Close: ends every delay
	wg       sync.WaitGroup

	mu     sync.Mutex
	decide decision   // guarded by mu
	seq    int        // guarded by mu
	conns  []net.Conn // guarded by mu
	stats  relayStats // guarded by mu
	closed bool       // guarded by mu
}

// startRelay starts a relay in front of upstream, or — when upstream is nil
// — one answering from respond. A nil decide passes everything. The relay
// closes when the test ends.
func startRelay(t testing.TB, upstream *Server, respond func(seq int, reqs []fetchReq) []byte, decide decision) *relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{t: t, ln: ln, respond: respond, decide: decide, done: make(chan struct{})}
	if upstream != nil {
		r.upstream = upstream.Addr()
	}
	r.wg.Add(1)
	go r.acceptLoop()
	t.Cleanup(r.Close)
	return r
}

// Addr returns the relay's listen address, the one clients dial.
func (r *relay) Addr() string { return r.ln.Addr().String() }

// SetDecide replaces the decision for every later exchange.
func (r *relay) SetDecide(decide decision) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.decide = decide
}

// Stats returns the faults injected so far.
func (r *relay) Stats() relayStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Close stops listening, severs every connection (ending any delay) and
// waits for the connection goroutines. Idempotent.
func (r *relay) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.done)
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.ln.Close()
	r.wg.Wait()
}

// track registers c to be severed by Close; it reports false, having closed
// c, once the relay is closed.
func (r *relay) track(c net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		c.Close()
		return false
	}
	r.conns = append(r.conns, c)
	return true
}

func (r *relay) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		if !r.track(conn) {
			return
		}
		r.wg.Add(1)
		go r.serve(conn)
	}
}

// next numbers a request frame and decides its fault.
func (r *relay) next(op byte) (int, fault) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seq := r.seq
	r.seq++
	var f fault
	if r.decide != nil {
		f = r.decide(seq, op)
	}
	switch f.kind {
	case faultSever:
		r.stats.Severed++
	case faultUnavailable:
		r.stats.Unavailable++
	case faultDelay:
		r.stats.Delayed++
	}
	return seq, f
}

func (r *relay) serve(conn net.Conn) {
	defer r.wg.Done()
	defer conn.Close()
	var up net.Conn
	if r.upstream != "" {
		var err error
		if up, err = net.Dial("tcp", r.upstream); err != nil {
			return // upstream gone: the client sees a hang-up
		}
		defer up.Close()
		if !r.track(up) {
			return
		}
	}
	for {
		op, body, err := readFrame(conn)
		if err != nil {
			return
		}
		seq, f := r.next(op)
		var rop byte
		var resp []byte
		if up == nil {
			reqs, err := decodeFetchReq(body)
			if op != OpFetch || err != nil {
				r.t.Errorf("relay got op %#02x (decode: %v), want a well-formed OpFetch", op, err)
				return
			}
			rop, resp = RespOK, r.respond(seq, reqs)
		} else {
			if err := writeFrame(up, op, body); err != nil {
				return
			}
			if rop, resp, err = readFrame(up); err != nil {
				return
			}
		}
		switch f.kind {
		case faultSever:
			var frame bytes.Buffer
			writeFrame(&frame, rop, resp)
			conn.Write(frame.Bytes()[:min(6+f.n, frame.Len()-1)])
			return
		case faultUnavailable:
			rop, resp = RespErr, encodeErr(CodeUnavailable, "injected fault")
		case faultDelay:
			select {
			case <-time.After(f.delay):
			case <-r.done:
				return
			}
		}
		if err := writeFrame(conn, rop, resp); err != nil {
			return
		}
	}
}

// flattenSegments assembles scattered frame segments into one contiguous
// body, for tests that want the whole payload at once.
func flattenSegments(segs [][]byte) []byte {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	out := make([]byte, 0, n)
	for _, s := range segs {
		out = append(out, s...)
	}
	return out
}
