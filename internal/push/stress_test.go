package push

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubscriptionStress churns the registry for a wall-clock budget:
// producers publish flat out, long-lived mixed-policy subscribers consume
// (one deliberately lagging to force drops), and churners subscribe and
// unsubscribe mid-stream. Every consumer checks the delivery invariant —
// strictly increasing sequence numbers — and teardown checks that closing
// the registry unblocks everyone. The verify gate's push stage runs this
// under the race detector with PUSH_STRESS_TIME=10s; the default keeps
// ordinary test runs fast.
func TestSubscriptionStress(t *testing.T) {
	budget := 200 * time.Millisecond
	if s := os.Getenv("PUSH_STRESS_TIME"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("PUSH_STRESS_TIME: %v", err)
		}
		budget = d
	}

	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var published atomic.Int64

	const producers = 4
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for step := 0; ; step++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.Publish(ev(step, p)); err != nil {
					return // registry closed while we were blocked
				}
				published.Add(1)
			}
		}(p)
	}

	// consume drains sub until it closes, enforcing monotone Seq. Every
	// laggard sleep lets the queue overflow so DropOldest admission runs.
	consume := func(sub *Subscriber, name string, lag time.Duration) {
		defer wg.Done()
		var last uint64
		for {
			got, ok := sub.Next()
			if !ok {
				return
			}
			if got.Seq <= last {
				t.Errorf("%s: seq %d after %d", name, got.Seq, last)
				return
			}
			last = got.Seq
			if lag > 0 {
				time.Sleep(lag)
			}
		}
	}
	longLived := []struct {
		name string
		opts Options
		lag  time.Duration
	}{
		{"block", Options{Policy: Block, Queue: 8}, 0},
		{"drop", Options{Policy: DropOldest, Queue: 4}, 0},
		{"drop-lagged", Options{Policy: DropOldest, Queue: 2}, 200 * time.Microsecond},
	}
	for _, lc := range longLived {
		sub, err := r.Subscribe(Spec{ToStep: -1}, lc.opts)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go consume(sub, lc.name, lc.lag)
	}

	// Churners: subscribe with varying queue depths and policies, take a few
	// events, close, repeat — the registration path under load.
	const churners = 3
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				opts := Options{Policy: DropOldest, Queue: 1 + i%4}
				if (c+i)%2 == 0 {
					opts.Policy = Block
				}
				sub, err := r.Subscribe(Spec{ToStep: -1}, opts)
				if err != nil {
					return // registry closed
				}
				var last uint64
				for n := 0; n < 8; n++ {
					got, ok, closed := sub.NextTimeout(time.Millisecond)
					if closed {
						break
					}
					if ok {
						if got.Seq <= last {
							t.Errorf("churner %d: seq %d after %d", c, got.Seq, last)
						}
						last = got.Seq
					}
				}
				sub.Close()
			}
		}(c)
	}

	time.Sleep(budget)
	// Stop publishers first, then close the registry: Block publishers may
	// be parked in Publish on the lagged queue, and Close must wake them.
	close(stop)
	r.Close()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stress goroutines still running after registry close")
	}

	st := r.Stats()
	if st.Published == 0 || st.Delivered == 0 {
		t.Fatalf("no traffic flowed: %+v", st)
	}
	if st.Dropped == 0 {
		t.Errorf("lagged DropOldest subscriber never overflowed: %+v", st)
	}
	if st.Published != published.Load() {
		t.Errorf("registry counted %d published, producers counted %d",
			st.Published, published.Load())
	}
}
