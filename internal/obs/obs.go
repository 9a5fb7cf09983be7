// Package obs is the repository's dependency-free metrics substrate: a
// registry of named atomic counters that the engine and search layers
// advance and that callers read back with Counter.Value.
//
// Counter.Add and Counter.Inc are single atomic operations on
// pre-registered instruments — no allocation, no lock, no map lookup — so
// the engine's per-step instrumentation stays inside the zero-alloc budgets
// pinned in engine/alloc_test.go, and concurrent readers see monotone
// values while writers keep writing.
//
// Counters are registered once (Registry.Counter is idempotent per name) and
// then shared by reference. Registration is cheap but locked; do it at
// construction time, not per event.
package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Registry is a named set of counters. Registration is idempotent per name:
// asking for an existing name returns the existing counter, so instrument
// sets built twice over one registry share their counters.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Counter)}
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.byName[name]
	if !ok {
		c = &Counter{}
		r.byName[name] = c
	}
	return c
}
