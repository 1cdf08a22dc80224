package remote

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"godiva/internal/push"
)

// Subscription errors. Match with errors.Is.
var (
	// ErrSubscriptionClosed reports a deliberate local shutdown: the
	// subscriber (or its Client) called Close. Not a failure.
	ErrSubscriptionClosed = errors.New("remote: subscription closed")
	// ErrSubscriptionLost reports an involuntary end: the server went away,
	// the stream timed out, or a frame was malformed. The wrapped cause is
	// attached; reconnect by calling Subscribe again (events missed while
	// disconnected are gone — see DESIGN.md on reconnect semantics).
	ErrSubscriptionLost = errors.New("remote: subscription lost")
)

// Subscription is a live event stream from a godivad server. Events arrive
// on Events(); the channel closes when the stream ends for any reason, after
// which Err reports why. A subscription owns a dedicated connection — it is
// not drawn from the client's RPC pool, so long-lived streams never starve
// fetches.
type Subscription struct {
	c      *Client
	conn   net.Conn
	events chan push.Event
	done   chan struct{}  // closed by Close; unblocks the event-channel send
	wg     sync.WaitGroup // joins the reader goroutine

	mu     sync.Mutex
	err    error // guarded by mu
	closed bool  // guarded by mu
}

// Subscribe opens an event stream for the steps matching spec. opts.Queue
// sizes the local event channel (default 64); opts.Policy is enforced
// server-side (DropOldest streams may skip events under lag, Block streams
// apply backpressure to the producer). The returned subscription must be
// closed when no longer needed.
func (c *Client) Subscribe(spec push.Spec, opts push.Options) (*Subscription, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	c.mu.Unlock()

	conn, err := net.DialTimeout("tcp", c.opts.Addr, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("remote: subscribe: %w", err)
	}
	conn.SetDeadline(time.Now().Add(c.opts.RequestTimeout))
	if err := writeFrame(conn, OpSubscribe, encodeSubReq(spec, opts)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("remote: subscribe: %w", err)
	}
	op, body, err := readFrame(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("remote: subscribe: %w", err)
	}
	switch op {
	case RespOK:
	case RespErr:
		conn.Close()
		return nil, fmt.Errorf("remote: subscribe: %w", decodeErr(body))
	default:
		conn.Close()
		return nil, fmt.Errorf("remote: subscribe: %w: unexpected response op %#02x", ErrProtocol, op)
	}
	conn.SetDeadline(time.Time{})

	queue := opts.Queue
	if queue <= 0 {
		queue = 64
	}
	sub := &Subscription{
		c:      c,
		conn:   conn,
		events: make(chan push.Event, queue),
		done:   make(chan struct{}),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, ErrClientClosed
	}
	c.subs[sub] = struct{}{}
	c.mu.Unlock()
	sub.wg.Add(1)
	go sub.readLoop()
	return sub, nil
}

// Events returns the stream's event channel. It closes when the stream
// ends; call Err afterwards to learn why.
func (s *Subscription) Events() <-chan push.Event { return s.events }

// Err reports why the event channel closed: ErrSubscriptionClosed after a
// local Close, or an ErrSubscriptionLost-wrapped cause after a transport or
// protocol failure. It returns nil while the stream is live.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close shuts the stream down: the connection is torn down, the reader
// goroutine joined, and the event channel closed. Idempotent; safe to call
// concurrently with event consumption.
func (s *Subscription) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.err == nil {
		s.err = ErrSubscriptionClosed
	}
	s.mu.Unlock()
	close(s.done)
	s.conn.Close()
	s.wg.Wait()
	s.c.mu.Lock()
	delete(s.c.subs, s)
	s.c.mu.Unlock()
}

// readLoop drains OpEvent frames from the connection into the event channel
// until the stream ends. It is the only reader of the connection; Close
// unblocks it by closing the socket.
func (s *Subscription) readLoop() {
	defer s.wg.Done()
	defer close(s.events)
	for {
		// The server emits heartbeats every opts.Heartbeat while idle, far
		// inside RequestTimeout, so a silent peer means a dead stream.
		s.conn.SetReadDeadline(time.Now().Add(s.c.opts.RequestTimeout))
		op, body, err := readFrame(s.conn)
		if err != nil {
			s.fail(err)
			return
		}
		if op != OpEvent {
			s.fail(fmt.Errorf("%w: unexpected stream op %#02x", ErrProtocol, op))
			return
		}
		if len(body) == 0 {
			continue // heartbeat
		}
		ev, err := decodeEvent(body)
		if err != nil {
			s.fail(err)
			return
		}
		ev.Created = time.Now() // local arrival stamp; wall clocks differ
		select {
		case s.events <- ev:
		case <-s.done:
			return
		}
	}
}

// fail records why the stream ended. A failure that races a local Close is
// reported as the Close (the socket error is just Close's side effect).
func (s *Subscription) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = fmt.Errorf("%w: %w", ErrSubscriptionLost, err)
	}
}
