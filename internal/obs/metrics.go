package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
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

// Gauge is a last-write-wins float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reports the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Buckets, count and sum update
// and snapshot under one lock, so a snapshot never reports a combination no
// real instant produced: Σ buckets always equals count (the torn-read test
// pins this). Observe must still be called from deterministic call sites (a
// kernel goroutine, or the caller side of an engine sweep) when snapshots
// need to be byte-identical across runs — which is how every histogram in
// this repository is fed.
type Histogram struct {
	bounds  []float64 // inclusive upper bounds, ascending; implicit +Inf last
	nan     atomic.Int64
	mu      sync.Mutex
	buckets []int64 // guarded by mu
	count   int64   // guarded by mu
	sum     float64 // guarded by mu
}

// Observe records one sample. NaN is not a measurement: it would poison
// the running sum for good and has no bucket it meaningfully belongs to,
// so NaN samples are dropped and tallied in a dedicated counter
// (NaNDropped, the "nan" field of the snapshot) instead.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		h.nan.Add(1)
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.buckets[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum reports the total of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// NaNDropped reports how many NaN samples Observe discarded.
func (h *Histogram) NaNDropped() int64 { return h.nan.Load() }

// snapshot reads buckets, count and sum in one critical section, so the
// three always belong to the same observation prefix even when a snapshot
// races an Observe — Σ buckets equals count in every snapshot.
func (h *Histogram) snapshot() (count int64, sum float64, buckets []int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count, h.sum, append([]int64(nil), h.buckets...)
}

// Registry is a named collection of metrics. Metric constructors are
// get-or-create, so independent components that agree on a name share one
// aggregate metric. A counter's total has two parts: what is pushed
// through Counter(name).Add, and what the collected Sources emit under the
// name, pulled whenever the registry is read. A Registry is safe for
// concurrent use.
type Registry struct {
	mu    sync.Mutex
	names []string       // registration order; snapshots sort; guarded by mu
	items map[string]any // guarded by mu
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
	r := &Registry{items: make(map[string]any), gen: 1}
	r.emit = r.add
	return r
}

// Counter returns the named counter, creating it on first use. Registering
// a name twice with different metric kinds panics: it is always a wiring
// bug, and silently returning a fresh metric would split the series.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counter(name)
}

// counter is Counter with r.mu held.
//
//wile:holds r.mu
func (r *Registry) counter(name string) *Counter {
	if it, ok := r.items[name]; ok {
		c, ok := it.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q already registered as %T", name, it))
		}
		return c
	}
	c := &Counter{reg: r}
	r.register(name, c)
	return c
}

// Collect adds src to the sources the registry reads: every snapshot
// (WriteJSON, TimeSeries.Sample) and every Value of a collected name calls
// src.Counters once. Collect registers the names src emits right away, so
// a name already registered as a gauge or histogram panics here, as
// Counter does. Collecting a source twice changes nothing; src must be
// comparable (a pointer, in practice).
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

// add is the callback sources emit into: it registers name as a counter
// on first sight and adds v to the counter's pulled total for this read.
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

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if it, ok := r.items[name]; ok {
		g, ok := it.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q already registered as %T", name, it))
		}
		return g
	}
	g := &Gauge{}
	r.register(name, g)
	return g
}

// Histogram returns the named histogram with the given ascending upper
// bucket bounds (an implicit +Inf bucket is appended), creating it on
// first use. Re-registration returns the existing histogram; the bounds of
// the first registration win.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if it, ok := r.items[name]; ok {
		h, ok := it.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q already registered as %T", name, it))
		}
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending at %d", name, i))
		}
	}
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]int64, len(bounds)+1),
	}
	r.register(name, h)
	return h
}

// register records the metric; the caller holds r.mu.
//
//wile:holds r.mu
func (r *Registry) register(name string, it any) {
	r.items[name] = it
	r.names = append(r.names, name)
}

// entry is one metric in a registry snapshot; count is a counter's total
// at the snapshot's instant.
type entry struct {
	name  string
	it    any
	count int64
}

// snapshot reads every source once and returns the metrics sorted by name,
// each counter's total (pushed plus pulled) fixed at that instant.
func (r *Registry) snapshot() []entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.read()
	out := make([]entry, len(r.names))
	for i, name := range r.names {
		out[i] = entry{name: name, it: r.items[name]}
		if c, ok := out[i].it.(*Counter); ok {
			out[i].count = r.total(c)
		}
	}
	slices.SortFunc(out, func(a, b entry) int { return strings.Compare(a.name, b.name) })
	return out
}

// WriteJSON snapshots every metric as a single JSON object, grouped by
// kind and sorted by name — a deterministic serialization of deterministic
// values, so two identical runs snapshot byte-identically.
func (r *Registry) WriteJSON(w io.Writer) error {
	entries := r.snapshot()
	bw := &errWriter{w: w}
	bw.printf("{\n  \"counters\": {")
	writeKind(bw, entries, func(e *entry) (string, bool) {
		if _, ok := e.it.(*Counter); !ok {
			return "", false
		}
		return strconv.FormatInt(e.count, 10), true
	})
	bw.printf("},\n  \"gauges\": {")
	writeKind(bw, entries, func(e *entry) (string, bool) {
		g, ok := e.it.(*Gauge)
		if !ok {
			return "", false
		}
		return formatValue(g.Value()), true
	})
	bw.printf("},\n  \"histograms\": {")
	writeKind(bw, entries, func(e *entry) (string, bool) {
		h, ok := e.it.(*Histogram)
		if !ok {
			return "", false
		}
		count, sum, buckets := h.snapshot()
		var b []byte
		b = append(b, `{"count":`...)
		b = strconv.AppendInt(b, count, 10)
		b = append(b, `,"sum":`...)
		b = append(b, formatValue(sum)...)
		b = append(b, `,"nan":`...)
		b = strconv.AppendInt(b, h.NaNDropped(), 10)
		b = append(b, `,"buckets":[`...)
		for i := range buckets {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"le":`...)
			if i < len(h.bounds) {
				b = append(b, formatValue(h.bounds[i])...)
			} else {
				b = append(b, `"+Inf"`...)
			}
			b = append(b, `,"count":`...)
			b = strconv.AppendInt(b, buckets[i], 10)
			b = append(b, '}')
		}
		b = append(b, `]}`...)
		return string(b), true
	})
	bw.printf("}\n}\n")
	return bw.err
}

// writeKind emits the "name": value pairs of one metric kind.
func writeKind(bw *errWriter, entries []entry, value func(e *entry) (string, bool)) {
	first := true
	for i := range entries {
		v, ok := value(&entries[i])
		if !ok {
			continue
		}
		if !first {
			bw.printf(",")
		}
		first = false
		bw.printf("\n    %s: %s", quote(entries[i].name), v)
	}
	if !first {
		bw.printf("\n  ")
	}
}
