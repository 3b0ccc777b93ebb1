// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every Wi-LE experiment runs on top of this kernel: the radio medium, the
// MAC state machines and the device power models all schedule work on a
// single virtual clock, and the measurement instrument reads the current
// steps they recorded after the run. Runs are fully deterministic for a
// given seed, which keeps every experiment in EXPERIMENTS.md repeatable.
//
// Events carry an absolute virtual timestamp and fire in time order, FIFO
// among equal timestamps. There is no wall-clock coupling anywhere;
// simulating a 10-minute sleep costs one queue operation.
//
// The pending set is one binary min-heap keyed by (time, seq) (see
// DESIGN.md §11); cancelled events are dropped lazily when they reach its
// head. Its entries hold no pointer: each names a slot in a side table
// that holds the callback, so sifting writes no pointer and never pays
// the collector's write barrier. There is one kind of event, and a figure
// run keeps at most nine of them pending: the 50 kSa/s multimeter
// schedules nothing (see package meter), and a device's scripted current
// profile books one event, at its end (see energy.Recorder).
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp, measured in nanoseconds from the start of the
// simulation. It intentionally mirrors time.Duration semantics (signed 64-bit
// nanoseconds) so arithmetic with time.Duration reads naturally.
type Time int64

// Common conversions.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts t (interpreted as a span) to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the span t-u as a time.Duration.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// String formats the timestamp as seconds with microsecond precision, the
// resolution used throughout the paper's figures.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// FromDuration converts a span to a virtual timestamp measured from zero.
func FromDuration(d time.Duration) Time { return Time(d) }

// Event is the handle At and After return for a scheduled callback.
type Event struct {
	cancel bool
	fired  bool // set at dispatch, so a later Cancel leaves Pending alone
}

// Cancelled reports whether the event was cancelled before it fired.
func (e *Event) Cancelled() bool { return e.cancel }

// entry is one element of the event queue. The key is held inline, so
// sifting never dereferences anything; seq breaks ties in scheduling order.
// The callback lives in slots[slot], so the entry holds no pointer.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

// slot holds a queued event's callback and, for At/After, its handle.
type slot struct {
	fn func()
	ev *Event
}

func (a entry) less(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Scheduler owns the virtual clock and the pending event set.
// The zero value is ready to use.
type Scheduler struct {
	// OnDispatch, when non-nil, observes every fired event just after the
	// clock advances to its timestamp and before its callback runs. It is
	// the kernel's observability hook (obs.ObserveScheduler wires it to a
	// trace recorder); a nil hook costs one branch per dispatch and no
	// allocations. The hook must not schedule or cancel events.
	OnDispatch func(at Time)

	now   Time
	seq   uint64
	fired uint64
	// pending counts the live events in the queue; cancelled ones stay
	// queued until they reach the head.
	pending int

	// queue is a binary min-heap on (at, seq).
	queue []entry
	// slots backs the queue's entries and free lists the unused indices.
	// An event fills a slot when pushed and clears it when popped, so its
	// pointer writes do not grow with how far it sifts.
	slots []slot
	free  []int32
}

// New returns a scheduler with the clock at zero. The heap starts with
// room for 256 entries, the slot table and its free list for 64, which
// every figure run fits in; a larger queue grows them by append. Sized
// like the heap, they would add 5 KB to every short run.
func New() *Scheduler {
	return &Scheduler{queue: make([]entry, 0, 256), slots: make([]slot, 0, 64), free: make([]int32, 0, 64)}
}

// Now reports the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending reports the number of events waiting to fire.
func (s *Scheduler) Pending() int { return s.pending }

// Fired reports how many events have been executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// push queues fn at the absolute virtual time at under the next sequence
// number; ev is its handle, nil for DoAt. Scheduling in the past panics.
func (s *Scheduler) push(at Time, fn func(), ev *Event) {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	k := int32(len(s.slots))
	if n := len(s.free); n > 0 {
		k = s.free[n-1]
		s.free = s.free[:n-1]
		s.slots[k] = slot{fn, ev}
	} else {
		s.slots = append(s.slots, slot{fn, ev})
	}
	x := entry{at, s.seq, k}
	s.seq++
	s.pending++
	// Appending to s.queue in place stores only its length unless the
	// array grows, so the header store writes no pointer either; pop
	// re-slices it in place for the same reason.
	s.queue = append(s.queue, x)
	q := s.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
}

// pop removes the head of the queue and frees its slot, returning what the
// slot held.
func (s *Scheduler) pop() slot {
	q := s.queue
	k := q[0].slot
	sl := s.slots[k]
	s.slots[k] = slot{}
	s.free = append(s.free, k)
	n := len(q) - 1
	x := q[n]
	s.queue = s.queue[:n]
	if n == 0 {
		return sl
	}
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && q[c+1].less(q[c]) {
			c++
		}
		if !q[c].less(x) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = x
	return sl
}

// head drops cancelled events from the front of the queue and returns the
// earliest live one; ok is false when none remain.
func (s *Scheduler) head() (x entry, ok bool) {
	for len(s.queue) > 0 {
		x = s.queue[0]
		if ev := s.slots[x.slot].ev; ev == nil || !ev.cancel {
			return x, true
		}
		s.pop()
	}
	return entry{}, false
}

// At schedules fn to run at the absolute virtual time at. Scheduling in the
// past (at < Now) panics: it is always a logic error in a protocol model,
// and silently reordering time makes power integrals wrong.
func (s *Scheduler) At(at Time, fn func()) *Event {
	e := &Event{}
	s.push(at, fn, e)
	return e
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now.Add(d), fn)
}

// DoAt schedules fn at the absolute virtual time at and returns no handle.
// It is the fire-and-forget variant of At for hot paths that never cancel:
// with no handle to allocate, steady-state scheduling allocates nothing.
// Anything that might need Cancel must use At/After instead.
func (s *Scheduler) DoAt(at Time, fn func()) { s.push(at, fn, nil) }

// DoAfter schedules fn to run d after the current virtual time without a
// handle; see DoAt.
func (s *Scheduler) DoAfter(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.DoAt(s.now.Add(d), fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op, so callers can cancel defensively.
// The entry stays queued, and is dropped when it reaches the head.
func (s *Scheduler) Cancel(e *Event) {
	if e == nil {
		return
	}
	if !e.cancel && !e.fired {
		s.pending--
	}
	e.cancel = true
}

// dispatch fires x, the head of the queue. Its slot is freed before the
// callback runs, so a callback that schedules another event (the
// self-rearming tick pattern) reuses it.
func (s *Scheduler) dispatch(x entry) {
	sl := s.pop()
	if sl.ev != nil {
		sl.ev.fired = true
	}
	s.pending--
	s.now = x.at
	s.fired++
	if s.OnDispatch != nil {
		s.OnDispatch(x.at)
	}
	sl.fn()
}

// Step fires the next pending event, advancing the clock to its
// timestamp. It reports false when nothing remains.
func (s *Scheduler) Step() bool {
	x, ok := s.head()
	if ok {
		s.dispatch(x)
	}
	return ok
}

// Run fires events until none remain.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline and then advances the
// clock to the deadline. Events scheduled beyond the deadline remain
// pending.
func (s *Scheduler) RunUntil(deadline Time) {
	for {
		x, ok := s.head()
		if !ok || x.at > deadline {
			break
		}
		s.dispatch(x)
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor is RunUntil(Now+d).
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }
