// Package push is GODIVA's reactive data plane: a subscription registry
// that fans newly ingested time-step units out to subscribers, inverting
// the pull-only flow the rest of the library assumes. Producers publish an
// Event per ingested snapshot file; subscribers register a Spec (every step
// up to a bound, or open-ended) and drain a private bounded queue.
// Admission control is per subscriber: a visual stream keeps only the
// freshest frames (DropOldest), a lossless consumer pushes backpressure into
// the producer (Block). The package is deliberately passive — it owns
// no goroutines; producers and consumers block inside Publish/Next on
// targeted wakeup channels, the same unlock-before-block discipline the
// core database uses, so the interprocedural lint passes without
// suppressions.
package push

import (
	"errors"
	"sync"
	"time"
)

// Policy selects a subscriber's admission control when its queue is full.
type Policy int

const (
	// DropOldest discards the queue's oldest event to admit the new one:
	// the subscriber always sees a monotone suffix of recent events. Right
	// for visual streams, where a stale frame is worthless.
	DropOldest Policy = iota
	// Block makes Publish wait until the subscriber drains a slot: no event
	// is ever dropped, and a slow consumer slows the producer. Right for
	// lossless consumers (archivers, exact replays).
	Block
)

func (p Policy) String() string {
	switch p {
	case DropOldest:
		return "drop-oldest"
	case Block:
		return "block"
	default:
		return "unknown"
	}
}

// Event announces one ingested time-step unit: the snapshot file that
// landed and which step and file index it is. Seq is assigned by the
// registry, strictly increasing in publish order across all producers.
type Event struct {
	Seq     uint64
	Step    int     // snapshot step index
	File    int     // file index within the snapshot
	Path    string  // snapshot file name, in the server's namespace
	StepID  string  // simulation time-step identifier ("0.000025")
	Time    float64 // simulation time in seconds
	Created time.Time
}

// Spec is the subscriber's match rule over the event stream: every step up
// to and including ToStep, or every step when ToStep is negative.
// Spec{ToStep: -1} matches everything; the zero Spec matches step 0 only.
type Spec struct {
	ToStep int
}

// Matches reports whether the rule admits the event.
func (sp Spec) Matches(ev Event) bool {
	return sp.ToStep < 0 || ev.Step <= sp.ToStep
}

// Options configures one subscriber's delivery queue.
type Options struct {
	// Queue bounds the delivery queue depth (default 64, minimum 1).
	Queue int
	// Policy picks the admission control when the queue is full.
	Policy Policy
}

// defaultQueue is the delivery queue depth when Options.Queue is zero.
const defaultQueue = 64

// ErrClosed is returned by operations on a closed registry or subscriber.
var ErrClosed = errors.New("push: registry is closed")

// SubscriberStats is a snapshot of one subscriber's delivery counters.
type SubscriberStats struct {
	Matched   int64 // published events the spec admitted
	Delivered int64 // events handed to the consumer by Next
	Dropped   int64 // events discarded by DropOldest admission
	Depth     int   // current queue depth
	MaxDepth  int   // high-water queue depth
	// Latency is the cumulative publish-to-Next delivery latency of the
	// Delivered events; divide for the mean.
	Latency time.Duration
}

// Stats is a snapshot of the registry's fan-out counters. Lagging counts
// subscribers whose queue is over half full right now — consumers falling
// behind the stream.
type Stats struct {
	Subscribers int
	Published   int64 // events accepted by Publish
	Delivered   int64 // sum over subscribers, including closed ones
	Dropped     int64 // sum over subscribers, including closed ones
	Lagging     int
}

// Registry fans published events out to subscribers. Safe for concurrent
// use by any number of producers and consumers.
type Registry struct {
	mu     sync.Mutex
	subs   map[*Subscriber]struct{}
	seq    uint64
	closed bool

	published int64
	// delivered/dropped accumulate counters of unsubscribed subscribers so
	// registry totals survive churn.
	delivered int64
	dropped   int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{subs: make(map[*Subscriber]struct{})}
}

// Subscriber is one registered consumer: a match rule plus a private
// bounded delivery queue drained by Next. A subscriber belongs to exactly
// one registry and is used by one consumer at a time.
type Subscriber struct {
	reg  *Registry
	spec Spec
	opts Options

	// All fields below are guarded by reg.mu.
	queue    []Event         // FIFO: queue[0] is the oldest undelivered event
	waiters  []chan struct{} // consumers blocked in Next, wakeup order
	space    []chan struct{} // producers blocked in Publish (Block), FIFO
	closed   bool
	matched  int64
	consumed int64 // events handed out by Next
	dropped  int64
	maxDepth int
	latency  time.Duration
}

// Subscribe registers a new subscriber. Events published after Subscribe
// returns are matched against spec; there is no replay of earlier events.
func (r *Registry) Subscribe(spec Spec, opts Options) (*Subscriber, error) {
	if opts.Queue <= 0 {
		opts.Queue = defaultQueue
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	s := &Subscriber{reg: r, spec: spec, opts: opts}
	r.subs[s] = struct{}{}
	return s, nil
}

// Publish assigns the event a sequence number and delivers it to every
// matching subscriber. Subscribers with a full DropOldest queue lose their
// oldest event; full Block subscribers make Publish wait until the consumer
// drains a slot (or the subscriber or registry closes). Returns the number
// of subscribers the event was enqueued to, or ErrClosed after Close.
func (r *Registry) Publish(ev Event) (int, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, ErrClosed
	}
	r.seq++
	ev.Seq = r.seq
	if ev.Created.IsZero() {
		ev.Created = time.Now()
	}
	r.published++
	enqueued := 0
	// First pass: enqueue wherever admission succeeds immediately. Blocked
	// subscribers are joined at the tail of their space queue, so events
	// from concurrent producers enter every queue in sequence order.
	var blocked []*Subscriber
	var tickets []chan struct{}
	for s := range r.subs {
		if !s.spec.Matches(ev) {
			continue
		}
		s.matched++
		// A Block producer must also queue behind earlier waiting producers
		// when a slot is free, or it would overtake them and break the
		// queue's sequence order.
		if s.opts.Policy == Block && (len(s.queue) >= s.opts.Queue || len(s.space) > 0) {
			ticket := make(chan struct{}, 1)
			s.space = append(s.space, ticket)
			blocked = append(blocked, s)
			tickets = append(tickets, ticket)
			continue
		}
		s.enqueueLocked(ev)
		enqueued++
	}
	r.mu.Unlock()

	// Second pass: wait out each blocked subscriber in turn. The ticket is
	// signalled when the consumer frees a slot (or the subscriber closes);
	// admission is re-checked under the lock because a wakeup only means
	// "look again".
	for i, s := range blocked {
		ticket := tickets[i]
		r.mu.Lock()
		for {
			if s.closed || r.closed {
				s.removeSpaceLocked(ticket)
				break
			}
			if len(s.queue) < s.opts.Queue && s.headSpaceLocked(ticket) {
				s.removeSpaceLocked(ticket)
				s.enqueueLocked(ev)
				enqueued++
				// Pass any remaining room on to the next waiting producer.
				s.signalSpaceLocked()
				break
			}
			r.mu.Unlock()
			<-ticket
			r.mu.Lock()
		}
		r.mu.Unlock()
	}
	return enqueued, nil
}

// enqueueLocked admits ev to the queue, applying DropOldest admission and
// waking one blocked consumer. Caller holds reg.mu.
func (s *Subscriber) enqueueLocked(ev Event) {
	if len(s.queue) >= s.opts.Queue {
		// DropOldest: discard from the head so what remains is the most
		// recent contiguous suffix of matched events.
		over := len(s.queue) - s.opts.Queue + 1
		s.queue = s.queue[:copy(s.queue, s.queue[over:])]
		s.dropped += int64(over)
	}
	s.queue = append(s.queue, ev)
	if len(s.queue) > s.maxDepth {
		s.maxDepth = len(s.queue)
	}
	s.signalLocked(&s.waiters)
}

// headSpaceLocked reports whether ticket is first in the space queue —
// producers re-enter in FIFO order so queues stay sequence-ordered.
func (s *Subscriber) headSpaceLocked(ticket chan struct{}) bool {
	return len(s.space) > 0 && s.space[0] == ticket
}

// removeSpaceLocked drops ticket from the space queue wherever it sits.
func (s *Subscriber) removeSpaceLocked(ticket chan struct{}) {
	for i, t := range s.space {
		if t == ticket {
			s.space = append(s.space[:i], s.space[i+1:]...)
			return
		}
	}
}

// signalSpaceLocked wakes the producer at the head of the space queue.
func (s *Subscriber) signalSpaceLocked() {
	if len(s.space) > 0 {
		select {
		case s.space[0] <- struct{}{}:
		default:
		}
	}
}

// signalLocked wakes the first waiter of a wait list, consuming its entry.
func (s *Subscriber) signalLocked(list *[]chan struct{}) {
	if len(*list) > 0 {
		ch := (*list)[0]
		*list = (*list)[1:]
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// Next blocks until an event is available and returns it; ok is false once
// the subscriber (or its registry) is closed and the queue is drained.
func (s *Subscriber) Next() (Event, bool) {
	ev, ok, _ := s.next(nil)
	return ev, ok
}

// NextTimeout is Next with a deadline: it returns ok=true with an event,
// or ok=false with closed reporting why — true once the subscriber is
// closed and drained, false on timeout. Server fan-out writers use the
// timeout to interleave heartbeats with event delivery.
func (s *Subscriber) NextTimeout(d time.Duration) (ev Event, ok, closed bool) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	return s.next(timer.C)
}

// next dequeues one event, blocking on a wakeup channel while the queue is
// empty. A nil deadline channel blocks indefinitely.
func (s *Subscriber) next(deadline <-chan time.Time) (Event, bool, bool) {
	r := s.reg
	r.mu.Lock()
	for {
		if len(s.queue) > 0 {
			ev := s.queue[0]
			s.queue = s.queue[:copy(s.queue, s.queue[1:])]
			s.consumed++
			s.latency += time.Since(ev.Created)
			s.signalSpaceLocked()
			r.mu.Unlock()
			return ev, true, false
		}
		if s.closed || r.closed {
			r.mu.Unlock()
			return Event{}, false, true
		}
		ch := make(chan struct{}, 1)
		s.waiters = append(s.waiters, ch)
		r.mu.Unlock()
		select {
		case <-ch:
		case <-deadline:
			r.mu.Lock()
			for i, w := range s.waiters {
				if w == ch {
					s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
					break
				}
			}
			// A wakeup may have raced the deadline; surface the event on the
			// next call instead of consuming it here.
			r.mu.Unlock()
			return Event{}, false, false
		}
		r.mu.Lock()
	}
}

// Close unregisters the subscriber: blocked consumers and producers wake
// immediately, queued events are discarded, and the subscriber's counters
// fold into the registry totals. Close is idempotent.
func (s *Subscriber) Close() {
	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	s.closeLocked()
}

// closeLocked is Close under reg.mu.
func (s *Subscriber) closeLocked() {
	if s.closed {
		return
	}
	s.closed = true
	delete(s.reg.subs, s)
	s.reg.delivered += s.consumed
	s.reg.dropped += s.dropped
	s.queue = nil
	for _, ch := range s.waiters {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	s.waiters = nil
	for _, ch := range s.space {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	s.space = nil
}

// Stats returns a snapshot of the subscriber's delivery counters.
func (s *Subscriber) Stats() SubscriberStats {
	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	return SubscriberStats{
		Matched:   s.matched,
		Delivered: s.consumed,
		Dropped:   s.dropped,
		Depth:     len(s.queue),
		MaxDepth:  s.maxDepth,
		Latency:   s.latency,
	}
}

// Close shuts the registry down: every subscriber closes, blocked
// producers and consumers wake, and subsequent Publish/Subscribe calls
// fail with ErrClosed. Close is idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for s := range r.subs {
		s.closeLocked()
	}
}

// Stats returns a snapshot of the registry's fan-out counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{
		Subscribers: len(r.subs),
		Published:   r.published,
		Delivered:   r.delivered,
		Dropped:     r.dropped,
	}
	for s := range r.subs {
		st.Delivered += s.consumed
		st.Dropped += s.dropped
		if len(s.queue) > s.opts.Queue/2 {
			st.Lagging++
		}
	}
	return st
}
