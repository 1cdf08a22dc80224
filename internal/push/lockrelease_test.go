package push

import (
	"testing"

	"godiva/internal/locktest"
)

// TestMethodsReleaseRegistryLock calls each method that takes the
// registry's mutex and gives it back with a deferred Unlock twice, then
// takes the mutex through Registry.Stats. A method that returns holding the
// mutex hangs the second call, and locktest.Released fails the subtest
// within seconds. Close is idempotent, so its second call takes the mutex
// too.
func TestMethodsReleaseRegistryLock(t *testing.T) {
	calls := []struct {
		name string
		call func(r *Registry, s *Subscriber) error
	}{
		{"Registry.Subscribe", func(r *Registry, _ *Subscriber) error {
			_, err := r.Subscribe(Spec{ToStep: -1}, Options{})
			return err
		}},
		{"Registry.Stats", func(r *Registry, _ *Subscriber) error { r.Stats(); return nil }},
		{"Registry.Close", func(r *Registry, _ *Subscriber) error { r.Close(); return nil }},
		{"Subscriber.Stats", func(_ *Registry, s *Subscriber) error { s.Stats(); return nil }},
		{"Subscriber.Close", func(_ *Registry, s *Subscriber) error { s.Close(); return nil }},
	}
	for _, c := range calls {
		t.Run(c.name, func(t *testing.T) {
			r := NewRegistry()
			s, err := r.Subscribe(Spec{ToStep: -1}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			call := func() {
				if err := c.call(r, s); err != nil {
					t.Error(err)
				}
			}
			locktest.Released(t, call, call, func() { r.Stats() }, r.Close)
		})
	}
}
