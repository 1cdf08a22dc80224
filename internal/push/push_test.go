package push

import (
	"sync"
	"testing"
	"time"
)

func ev(step, file int) Event {
	return Event{Step: step, File: file, Path: "p"}
}

func TestSpecMatches(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ev   Event
		want bool
	}{
		{"open-ended matches all", Spec{ToStep: -1}, ev(7, 3), true},
		{"zero matches step 0", Spec{}, ev(0, 2), true},
		{"zero excludes step 1", Spec{}, ev(1, 0), false},
		{"to excludes later", Spec{ToStep: 5}, ev(6, 0), false},
		{"to inclusive", Spec{ToStep: 5}, ev(5, 0), true},
	}
	for _, c := range cases {
		if got := c.spec.Matches(c.ev); got != c.want {
			t.Errorf("%s: Matches = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFanOutDeliversInOrder(t *testing.T) {
	r := NewRegistry()
	defer r.Close()
	var subs []*Subscriber
	for i := 0; i < 4; i++ {
		s, err := r.Subscribe(Spec{ToStep: -1}, Options{Queue: 32})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := r.Publish(ev(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for si, s := range subs {
		for i := 0; i < n; i++ {
			got, ok := s.Next()
			if !ok {
				t.Fatalf("sub %d: closed at event %d", si, i)
			}
			if got.Step != i {
				t.Fatalf("sub %d: event %d has step %d", si, i, got.Step)
			}
			if got.Seq != uint64(i+1) {
				t.Fatalf("sub %d: event %d has seq %d", si, i, got.Seq)
			}
		}
		st := s.Stats()
		if st.Delivered != n || st.Dropped != 0 || st.Matched != n {
			t.Fatalf("sub %d: stats %+v", si, st)
		}
	}
	rs := r.Stats()
	if rs.Published != n || rs.Delivered != int64(n*len(subs)) {
		t.Fatalf("registry stats %+v", rs)
	}
}

func TestDropOldestKeepsRecentSuffix(t *testing.T) {
	r := NewRegistry()
	defer r.Close()
	s, err := r.Subscribe(Spec{ToStep: -1}, Options{Queue: 4, Policy: DropOldest})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Publish(ev(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Queue holds the newest 4 events: steps 6..9.
	for want := 6; want < 10; want++ {
		got, ok := s.Next()
		if !ok || got.Step != want {
			t.Fatalf("got step %d ok=%v, want %d", got.Step, ok, want)
		}
	}
	st := s.Stats()
	if st.Dropped != 6 {
		t.Fatalf("Dropped = %d, want 6", st.Dropped)
	}
	if st.Delivered != 4 {
		t.Fatalf("Delivered = %d, want 4", st.Delivered)
	}
}

func TestBlockPolicyBackpressure(t *testing.T) {
	r := NewRegistry()
	defer r.Close()
	s, err := r.Subscribe(Spec{ToStep: -1}, Options{Queue: 2, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	r.Publish(ev(0, 0))
	r.Publish(ev(1, 0))
	published := make(chan struct{})
	go func() {
		r.Publish(ev(2, 0)) // must block until a slot frees
		close(published)
	}()
	select {
	case <-published:
		t.Fatal("Publish returned with the queue full")
	case <-time.After(50 * time.Millisecond):
	}
	if got, ok := s.Next(); !ok || got.Step != 0 {
		t.Fatalf("Next = %v, %v", got.Step, ok)
	}
	select {
	case <-published:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish still blocked after a slot freed")
	}
	if st := s.Stats(); st.Dropped != 0 {
		t.Fatalf("Block policy dropped %d events", st.Dropped)
	}
}

func TestBlockedPublishUnblocksOnSubscriberClose(t *testing.T) {
	r := NewRegistry()
	defer r.Close()
	s, err := r.Subscribe(Spec{ToStep: -1}, Options{Queue: 1, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	r.Publish(ev(0, 0))
	published := make(chan struct{})
	go func() {
		r.Publish(ev(1, 0))
		close(published)
	}()
	time.Sleep(20 * time.Millisecond)
	s.Close()
	select {
	case <-published:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish still blocked after subscriber close")
	}
}

func TestBlockedPublishUnblocksOnRegistryClose(t *testing.T) {
	r := NewRegistry()
	s, err := r.Subscribe(Spec{ToStep: -1}, Options{Queue: 1, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	r.Publish(ev(0, 0))
	published := make(chan struct{})
	go func() {
		r.Publish(ev(1, 0))
		close(published)
	}()
	time.Sleep(20 * time.Millisecond)
	r.Close()
	select {
	case <-published:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish still blocked after registry close")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("Next returned an event from a closed registry")
	}
	if _, err := r.Publish(ev(2, 0)); err != ErrClosed {
		t.Fatalf("Publish after Close: err = %v, want ErrClosed", err)
	}
	if _, err := r.Subscribe(Spec{ToStep: -1}, Options{}); err != ErrClosed {
		t.Fatalf("Subscribe after Close: err = %v, want ErrClosed", err)
	}
}

func TestSlowSubscriberDoesNotStallOthers(t *testing.T) {
	r := NewRegistry()
	defer r.Close()
	slow, err := r.Subscribe(Spec{ToStep: -1}, Options{Queue: 2, Policy: DropOldest})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := r.Subscribe(Spec{ToStep: -1}, Options{Queue: 64, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if got, ok := fast.Next(); !ok || got.Step != i {
				t.Errorf("fast: event %d: step %d ok=%v", i, got.Step, ok)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		if _, err := r.Publish(ev(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("fast subscriber stalled behind the slow one")
	}
	if st := slow.Stats(); st.Dropped == 0 {
		t.Fatal("slow subscriber dropped nothing")
	}
	if st := fast.Stats(); st.Dropped != 0 || st.Delivered != n {
		t.Fatalf("fast subscriber stats %+v", st)
	}
}

func TestNextTimeout(t *testing.T) {
	r := NewRegistry()
	defer r.Close()
	s, err := r.Subscribe(Spec{ToStep: -1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, closed := s.NextTimeout(20 * time.Millisecond); ok || closed {
		t.Fatalf("empty queue: ok=%v closed=%v, want timeout", ok, closed)
	}
	r.Publish(ev(3, 1))
	got, ok, _ := s.NextTimeout(time.Second)
	if !ok || got.Step != 3 || got.File != 1 {
		t.Fatalf("NextTimeout = %+v ok=%v", got, ok)
	}
	s.Close()
	if _, ok, closed := s.NextTimeout(time.Second); ok || !closed {
		t.Fatalf("closed subscriber: ok=%v closed=%v", ok, closed)
	}
}

// TestConcurrentProducersKeepQueuesSequenceOrdered drives several producers
// into mixed-policy subscribers and asserts every queue stays strictly
// sequence-ordered — including Block queues, whose producers re-enter
// through the FIFO space queue.
func TestConcurrentProducersKeepQueuesSequenceOrdered(t *testing.T) {
	r := NewRegistry()
	defer r.Close()
	block, err := r.Subscribe(Spec{ToStep: -1}, Options{Queue: 8, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	drop, err := r.Subscribe(Spec{ToStep: -1}, Options{Queue: 8, Policy: DropOldest})
	if err != nil {
		t.Fatal(err)
	}
	const producers, perProducer = 4, 50
	const total = producers * perProducer
	var wg sync.WaitGroup
	consume := func(s *Subscriber, name string) {
		defer wg.Done()
		var last uint64
		for {
			got, ok := s.Next()
			if !ok {
				return
			}
			if got.Seq <= last {
				t.Errorf("%s: seq %d after %d", name, got.Seq, last)
				return
			}
			last = got.Seq
			time.Sleep(10 * time.Microsecond)
		}
	}
	wg.Add(2)
	go consume(block, "block")
	go consume(drop, "drop")
	var producerWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		producerWG.Add(1)
		go func(p int) {
			defer producerWG.Done()
			for i := 0; i < perProducer; i++ {
				r.Publish(ev(p*perProducer+i, p))
			}
		}(p)
	}
	producerWG.Wait()
	// The Block subscriber never drops, so its consumer eventually sees
	// every published event; wait for that, then close both subscribers.
	deadline := time.After(10 * time.Second)
	for blockStats := block.Stats(); blockStats.Delivered < total; blockStats = block.Stats() {
		select {
		case <-deadline:
			t.Fatalf("block subscriber delivered %d of %d", blockStats.Delivered, total)
		case <-time.After(2 * time.Millisecond):
		}
	}
	block.Close()
	drop.Close()
	consumersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(consumersDone)
	}()
	select {
	case <-consumersDone:
	case <-time.After(5 * time.Second):
		t.Fatal("consumers still running after close")
	}
	if st := block.Stats(); st.Dropped != 0 {
		t.Fatalf("block subscriber dropped %d", st.Dropped)
	}
	if st := r.Stats(); st.Published != total {
		t.Fatalf("published %d, want %d", st.Published, total)
	}
}
