package obs

import (
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. Increments are
// atomic so counters shared across engine workers stay exact; integer
// addition is commutative, so totals are independent of worker scheduling.
type Counter struct {
	v atomic.Int64
	// reg is the registry that made the counter, nil for a bare Counter.
	reg *Registry
	// pulled is what reg's sources emitted under the counter's name in the
	// registry's read number gen; gen is zero while no source emits the
	// name. Only the registry touches either, with reg.mu held.
	pulled int64
	gen    uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reports the current count: the counter's own increments plus, when
// some collected Source emits its name, everything the sources emit under
// it. Reading a collected name reads every source once, so it must run
// while their kernels are idle (see Registry.Collect).
func (c *Counter) Value() int64 {
	r := c.reg
	if r == nil {
		return c.v.Load()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.gen != 0 {
		r.read()
	}
	return r.total(c)
}

// Source is a component whose counters the registry pulls instead of
// having them pushed: Counters calls emit once per counter it keeps, with
// the registry name and the current total. Sources that emit one name are
// summed, so every mac.Port wired to a registry adds into mac.tx_frames.
// The registry holds its lock while it reads a source, so Counters must
// not call back into the registry.
type Source interface {
	Counters(emit func(name string, v int64))
}

// Registry is a named set of counters read off the components' Stats. A
// counter's total is what the collected Sources emit under its name,
// pulled whenever the registry is read, plus whatever is pushed through
// Counter(name).Add. A Registry is safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter // guarded by mu
	// sources are the collected Sources, in collection order; gen numbers
	// the reads of them (see Counter.pulled).
	sources []Source // guarded by mu
	gen     uint64   // guarded by mu
	// emit is add bound once, so collecting or reading a source hands it a
	// callback without allocating one.
	emit func(name string, v int64)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{counters: make(map[string]*Counter), gen: 1}
	r.emit = r.add
	return r
}

// Counter returns the named counter, creating it on first use, so
// independent components that agree on a name share one total.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counter(name)
}

// counter is Counter with r.mu held.
//
//wile:holds r.mu
func (r *Registry) counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{reg: r}
		r.counters[name] = c
	}
	return c
}

// Collect adds src to the sources the registry reads: every snapshot
// (WriteJSON, TimeSeries.Sample) and every Value of a collected name calls
// src.Counters once. Collect registers the names src emits right away.
// Collecting a source twice changes nothing; src must be comparable (a
// pointer, in practice).
//
// The registry reads a source on whichever goroutine reads the registry,
// without synchronizing with the source's own kernel, so read it only
// while that kernel is idle: from the kernel itself, or after it stopped.
// A registry keeps its sources reachable for as long as it lives.
func (r *Registry) Collect(src Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.sources {
		if s == src {
			return
		}
	}
	src.Counters(r.emit)
	r.sources = append(r.sources, src)
}

// add is the callback sources emit into: it registers name on first sight
// and adds v to the counter's pulled total for this read.
//
//wile:holds r.mu
func (r *Registry) add(name string, v int64) {
	c := r.counter(name)
	if c.gen != r.gen {
		c.gen, c.pulled = r.gen, 0
	}
	c.pulled += v
}

// read starts a new read and recomputes every pulled total in it, calling
// each source once.
//
//wile:holds r.mu
func (r *Registry) read() {
	r.gen++
	for _, s := range r.sources {
		s.Counters(r.emit)
	}
}

// total reports c's pushed increments plus what the sources emitted under
// its name in the latest read.
//
//wile:holds r.mu
func (r *Registry) total(c *Counter) int64 {
	n := c.v.Load()
	if c.gen == r.gen {
		n += c.pulled
	}
	return n
}

// entry is one counter in a registry snapshot: its total at the
// snapshot's instant.
type entry struct {
	name  string
	count int64
}

// snapshot reads every source once and returns the counters sorted by
// name (so the map's order never shows), each total (pushed plus pulled)
// fixed at that instant.
func (r *Registry) snapshot() []entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.read()
	out := make([]entry, 0, len(r.counters))
	for name, c := range r.counters {
		out = append(out, entry{name, r.total(c)})
	}
	slices.SortFunc(out, func(a, b entry) int { return strings.Compare(a.name, b.name) })
	return out
}

// WriteJSON snapshots every counter as one JSON object sorted by name, a
// deterministic serialization of deterministic values, so two identical
// runs snapshot byte-identically.
func (r *Registry) WriteJSON(w io.Writer) error {
	entries := r.snapshot()
	e := newEncoder(w)
	e.lit("{\n  \"counters\": {")
	for i, en := range entries {
		if i > 0 {
			e.lit(",")
		}
		e.lit("\n    ")
		e.quote(en.name)
		e.lit(": ")
		e.num(en.count)
	}
	if len(entries) > 0 {
		e.lit("\n  ")
	}
	e.lit("}\n}\n")
	return e.flush()
}
