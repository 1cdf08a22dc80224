package remote

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"godiva/internal/genx"
)

// ClientOptions configures a unit client.
type ClientOptions struct {
	// Addr is the godivad server address (host:port). Required.
	Addr string
	// PoolSize bounds the number of concurrent connections (default 4);
	// with N I/O workers a pool of N keeps every worker's fetch in flight.
	PoolSize int
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// RequestTimeout is the per-request deadline covering the write of the
	// request and the read of the full response (default 30s).
	RequestTimeout time.Duration
	// MaxRetries is how many times a transient failure is retried after the
	// first attempt (default 4). Transient means a transport error — dial
	// failure, timeout, connection dropped mid-payload — or a
	// CodeUnavailable answer; other protocol errors are permanent.
	MaxRetries int
	// RetryBase and RetryMax shape the exponential backoff between retries:
	// attempt n waits about RetryBase·2ⁿ⁻¹ (capped at RetryMax), half fixed
	// and half jittered so coordinated workers decorrelate. Defaults 20ms
	// and 500ms.
	RetryBase time.Duration
	RetryMax  time.Duration
}

func (o *ClientOptions) setDefaults() {
	if o.PoolSize <= 0 {
		o.PoolSize = 4
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 4
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 20 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 500 * time.Millisecond
	}
}

// RemoteStats is a snapshot of the client's operation counters: a run's
// transport behavior, reported next to its unit accounting (DB.Stats).
type RemoteStats struct {
	Fetches int64 // files requested through FetchFiles
	RPCs    int64 // wire attempts issued (dials and round-trips)
	Retries int64 // attempts beyond the first, after transient failures
	Errors  int64 // fetches that failed permanently (retries exhausted
	//               or a non-retryable protocol error)
	BytesIn     int64 // response payload bytes received
	BytesCopied int64 // payload array bytes copied while decoding fetches
	//                   (the rest alias the pooled response frame; nonzero
	//                   only on big-endian hosts)
	Latency time.Duration // cumulative round-trip time of successful RPCs
}

// Client fetches unit payloads from a godivad server. It is safe for
// concurrent use by many goroutines (the I/O worker pool): connections are
// pooled and bounded, and transient failures are retried with exponential
// backoff and jitter. A transport error empties the idle pool, so a client
// that outlives a server restart redials instead of retrying on the dead
// connections it pooled before.
type Client struct {
	opts ClientOptions
	sem  chan struct{} // bounds concurrent in-use connections
	done chan struct{} // closed by Close

	mu     sync.Mutex
	idle   []*clientConn              // guarded by mu
	subs   map[*Subscription]struct{} // guarded by mu
	rng    *rand.Rand                 // guarded by mu
	stats  RemoteStats                // guarded by mu
	closed bool                       // guarded by mu
}

// NewClient creates a client for the given server. Connections are dialed
// lazily; use Ping to verify the server is reachable.
func NewClient(opts ClientOptions) *Client {
	opts.setDefaults()
	return &Client{
		opts: opts,
		sem:  make(chan struct{}, opts.PoolSize),
		done: make(chan struct{}),
		subs: make(map[*Subscription]struct{}),
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Stats returns a snapshot of the client counters.
//
//godiva:noalloc
func (c *Client) Stats() RemoteStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close releases every pooled connection, severs active subscriptions
// (their event channels close with ErrSubscriptionClosed) and fails
// subsequent and blocked operations with ErrClientClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClientClosed
	}
	c.closed = true
	idle := c.idle
	c.idle = nil
	subs := make([]*Subscription, 0, len(c.subs))
	for sub := range c.subs {
		subs = append(subs, sub)
	}
	c.mu.Unlock()
	close(c.done)
	for _, cc := range idle {
		cc.conn.Close()
	}
	for _, sub := range subs {
		sub.Close()
	}
	return nil
}

// Ping checks the server is reachable and speaking the protocol.
func (c *Client) Ping() error {
	_, frame, err := c.rpc(OpPing)
	putArena(frame)
	return err
}

// Spec asks the server for the served dataset's shape: snapshot count,
// files per snapshot, block count and time step (the same subset of
// genx.Spec that genx.Discover recovers from local files).
func (c *Client) Spec() (genx.Spec, error) {
	body, frame, err := c.rpc(OpSpec)
	if err != nil {
		return genx.Spec{}, err
	}
	spec, err := decodeSpec(body)
	putArena(frame)
	return spec, err
}

// Ingest pushes one snapshot file's payload to the server, which must be
// running with ingest enabled. path names the destination file inside the
// server's snapshot directory (a bare genx snapshot file name); the payload
// travels as scattered segments borrowing fp's arrays, so large steps are
// not assembled client-side first. A payload over the frame limit fails
// at once, before a connection is taken. On success the file is durably
// written on the server and matching subscribers have been notified.
func (c *Client) Ingest(path string, fp *FilePayload) error {
	if err := frameFits(ingestSize(path, fp), maxFrame-2); err != nil {
		return fmt.Errorf("remote: ingest %q: %w", path, err)
	}
	_, frame, err := c.call(OpIngest, &request{path: path, fp: fp})
	putArena(frame)
	if err != nil {
		return fmt.Errorf("remote: ingest %q: %w", path, err)
	}
	return nil
}

// retryable reports whether an attempt's failure is worth retrying.
func retryable(err error) bool {
	if errors.Is(err, ErrClientClosed) {
		return false
	}
	var se *ServerError
	if errors.As(err, &se) {
		return se.Retryable()
	}
	// Everything else is transport trouble: dial failures, deadlines,
	// connections dropped mid-payload, garbled frames from a torn write.
	return true
}

// request is one RPC's payload, encoded afresh on every attempt into the
// encoder of the connection that carries it. Array data is borrowed from
// the caller, who keeps it alive and unchanged until the call returns.
type request struct {
	items []*fetchItem // OpFetch: the items to fetch
	path  string       // OpIngest: the destination, then fp's body
	fp    *FilePayload
}

// encode appends the request payload to f.
func (r *request) encode(f *frameEnc) {
	switch {
	case r.fp != nil:
		f.str(r.path)
		f.filePayload(r.fp)
	case r.items != nil:
		f.fetchReq(r.items)
	}
}

// rpc performs one request with an empty payload, with retries. On success
// it returns the response payload plus the pooled frame arena backing it;
// the caller must hand the arena to putArena (or park it under
// FilePayloads) once the payload is dead.
func (c *Client) rpc(op byte) (resp []byte, frame *frameArena, err error) {
	return c.call(op, &request{})
}

// call is rpc for any request: retried attempts, each sending req from the
// encoder of the connection it takes, with a vectored write, so bulky ingest
// bodies borrow the caller's arrays instead of being assembled first.
func (c *Client) call(op byte, req *request) (resp []byte, frame *frameArena, err error) {
	var lastErr error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			c.mu.Lock()
			c.stats.Retries++
			d := c.backoffLocked(attempt)
			c.mu.Unlock()
			select {
			case <-time.After(d):
			case <-c.done:
				return nil, nil, ErrClientClosed
			}
		}
		resp, frame, err := c.attempt(op, req)
		if err == nil {
			return resp, frame, nil
		}
		lastErr = err
		var se *ServerError
		if !errors.As(err, &se) {
			// Transport trouble on one conn says the server may have gone
			// away under all of them: redial from here on.
			c.dropIdle()
		}
		if !retryable(err) {
			return nil, nil, err
		}
	}
	return nil, nil, fmt.Errorf("remote: %d attempts failed, giving up: %w",
		c.opts.MaxRetries+1, lastErr)
}

// backoffLocked computes the pre-attempt backoff: exponential in the
// attempt number, capped, half fixed and half jittered. Caller holds c.mu
// (the jitter RNG is not concurrency-safe).
func (c *Client) backoffLocked(attempt int) time.Duration {
	d := c.opts.RetryBase << (attempt - 1)
	if d > c.opts.RetryMax || d <= 0 {
		d = c.opts.RetryMax
	}
	return d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
}

// attempt performs one wire round-trip on a pooled connection, encoding
// req into the connection's encoder. The response payload is read into a
// pooled frame arena, returned to the caller on success (see rpc) and back
// to the pool on every failure path.
func (c *Client) attempt(op byte, req *request) ([]byte, *frameArena, error) {
	start := time.Now()
	c.mu.Lock()
	c.stats.RPCs++
	c.mu.Unlock()
	cc, err := c.getConn()
	if err != nil {
		return nil, nil, err
	}
	enc := &cc.req
	enc.reset()
	req.encode(enc)
	deadline := start.Add(c.opts.RequestTimeout)
	cc.conn.SetDeadline(deadline)
	_, err = enc.writeTo(cc.conn, op)
	// Drop the borrowed segments: the caller's arrays are not the
	// connection's to keep alive.
	enc.reset()
	var (
		rop   byte
		frame *frameArena
		rbody []byte
	)
	if err == nil {
		rop, frame, rbody, err = readFramePooled(cc.conn)
	}
	if err != nil {
		// The connection is in an unknown state (possibly mid-frame): drop
		// it rather than return it to the pool.
		cc.conn.Close()
		c.releaseSlot()
		return nil, nil, err
	}
	cc.conn.SetDeadline(time.Time{})
	c.putConn(cc)
	if rop == RespErr {
		serr := decodeErr(rbody)
		putArena(frame)
		return nil, nil, serr
	}
	if rop != RespOK {
		putArena(frame)
		return nil, nil, fmt.Errorf("%w: unexpected response op %#02x", ErrProtocol, rop)
	}
	c.mu.Lock()
	c.stats.BytesIn += int64(len(rbody))
	c.stats.Latency += time.Since(start)
	c.mu.Unlock()
	return rbody, frame, nil
}

// clientConn is a pooled connection and the encoder its requests are built
// in, which keeps its memory from one request to the next. The connection
// is a field, not embedded, so that frames are written to the net.Conn
// itself: net.Buffers makes one writev only for a writer it knows, and
// writes a wrapper one segment at a time.
type clientConn struct {
	conn net.Conn
	req  frameEnc
}

// getConn acquires a pool slot and returns an idle or freshly dialed
// connection. Every successful getConn must be paired with putConn or
// releaseSlot.
func (c *Client) getConn() (*clientConn, error) {
	select {
	case c.sem <- struct{}{}:
	case <-c.done:
		return nil, ErrClientClosed
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.releaseSlot()
		return nil, ErrClientClosed
	}
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle[n-1] = nil
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()
	conn, err := net.DialTimeout("tcp", c.opts.Addr, c.opts.DialTimeout)
	if err != nil {
		c.releaseSlot()
		return nil, err
	}
	return &clientConn{conn: conn}, nil
}

// putConn returns a healthy connection to the idle pool.
func (c *Client) putConn(cc *clientConn) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cc.conn.Close()
		c.releaseSlot()
		return
	}
	c.idle = append(c.idle, cc)
	c.mu.Unlock()
	c.releaseSlot()
}

// dropIdle closes and forgets every idle pooled connection.
func (c *Client) dropIdle() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, cc := range idle {
		cc.conn.Close()
	}
}

func (c *Client) releaseSlot() { <-c.sem }
