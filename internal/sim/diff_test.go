package sim

import (
	"math/rand"
	"testing"
	"time"
)

// refSched is a minimal binary-heap reference dispatcher with the same
// (at, seq) total order as Scheduler. The real scheduler's queue and its
// lazy cancellation must reproduce its firing order and pending count
// exactly; the differential test below (and
// BenchmarkSchedulerDense in sched_bench_test.go) compare the two on
// randomized workloads.
type refSched struct {
	now  Time
	seq  uint64
	live int // scheduled events neither fired nor cancelled
	h    refHeap
}

type refEvent struct {
	at     Time
	seq    uint64
	fn     func()
	cancel bool
	fired  bool
}

type refHeap []*refEvent

func (h refHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *refHeap) push(e *refEvent) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *refHeap) pop() *refEvent {
	old := *h
	n := len(old)
	e := old[0]
	old[0] = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	i, n := 0, n-1
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(l, min) {
			min = l
		}
		if r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		(*h)[i], (*h)[min] = (*h)[min], (*h)[i]
		i = min
	}
	return e
}

func (r *refSched) at(at Time, fn func()) *refEvent {
	e := &refEvent{at: at, seq: r.seq, fn: fn}
	r.seq++
	r.live++
	r.h.push(e)
	return e
}

// cancel mirrors Scheduler.Cancel: a no-op on a fired or cancelled event.
func (r *refSched) cancel(e *refEvent) {
	if !e.cancel && !e.fired {
		r.live--
	}
	e.cancel = true
}

func (r *refSched) step() bool {
	for len(r.h) > 0 {
		e := r.h.pop()
		if e.cancel {
			continue
		}
		e.fired = true
		r.live--
		r.now = e.at
		e.fn()
		return true
	}
	return false
}

// randomDelay mixes zero delays, nanosecond jitter that piles events onto
// shared and adjacent timestamps, and spans from microseconds out to days,
// so the differential workload orders ties as well as wide time gaps.
func randomDelay(rng *rand.Rand) time.Duration {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1, 2, 3:
		return time.Duration(rng.Intn(4096))
	case 4, 5:
		return time.Duration(rng.Intn(1 << 20))
	case 6:
		return time.Duration(rng.Intn(1 << 28))
	case 7:
		return time.Duration(rng.Intn(1 << 36))
	case 8:
		return time.Duration(rng.Intn(1 << 44))
	default:
		return time.Duration(1<<44 + rng.Int63n(1<<45))
	}
}

// diffWorkload is a deterministic self-scheduling program: event i fires,
// optionally spawns children with tape-driven delays, occasionally cancels
// the most recently scheduled event, and occasionally cancels an event
// that has already fired. Both schedulers replay the identical tape, so
// their firing sequences must match exactly.
type diffTape struct {
	delay   []time.Duration
	spawn   []int
	cancelK []int
}

func makeTape(seed int64, n int) diffTape {
	rng := rand.New(rand.NewSource(seed))
	t := diffTape{
		delay:   make([]time.Duration, n),
		spawn:   make([]int, n),
		cancelK: make([]int, n),
	}
	for i := 0; i < n; i++ {
		t.delay[i] = randomDelay(rng)
		t.spawn[i] = rng.Intn(3)
		t.cancelK[i] = rng.Intn(8)
	}
	return t
}

// runDiffWorkload drives the tape through a scheduler abstracted as a
// schedule function (returning a cancel thunk), a step function and a
// pending count. It records the firing order of event IDs and the pending
// count after every step.
func runDiffWorkload(tape diffTape, maxEvents int,
	schedule func(d time.Duration, fn func()) (cancel func()),
	step func() bool, pending func() int) (order, pend []int) {

	var cancels []func()
	handles := make([]func(), maxEvents)
	next := 0

	var body func(id int)
	spawn := func() {
		nid := next
		next++
		d := tape.delay[nid%len(tape.delay)]
		handles[nid] = schedule(d, func() { body(nid) })
		cancels = append(cancels, handles[nid])
	}
	body = func(id int) {
		order = append(order, id)
		for i := 0; i < tape.spawn[id%len(tape.spawn)] && next < maxEvents; i++ {
			spawn()
		}
		switch tape.cancelK[id%len(tape.cancelK)] {
		case 0:
			if len(cancels) > 0 {
				cancels[len(cancels)-1]()
				cancels = cancels[:len(cancels)-1]
			}
		case 1:
			handles[order[len(order)/2]]()
		}
	}
	for i := 0; i < 64 && next < maxEvents; i++ {
		spawn()
	}
	for step() {
		pend = append(pend, pending())
	}
	return order, pend
}

// TestSchedulerMatchesReferenceHeap fires the same randomized
// self-scheduling workload through the scheduler and the reference heap
// and requires an identical firing sequence and pending count.
func TestSchedulerMatchesReferenceHeap(t *testing.T) {
	for trial := int64(0); trial < 25; trial++ {
		tape := makeTape(trial*7919+1, 512)

		s := New()
		got, gotPend := runDiffWorkload(tape, 3000, func(d time.Duration, fn func()) func() {
			e := s.After(d, fn)
			return func() { s.Cancel(e) }
		}, s.Step, s.Pending)

		r := &refSched{}
		want, wantPend := runDiffWorkload(tape, 3000, func(d time.Duration, fn func()) func() {
			e := r.at(r.now.Add(d), fn)
			return func() { r.cancel(e) }
		}, r.step, func() int { return r.live })

		if len(got) != len(want) {
			t.Fatalf("trial %d: scheduler fired %d events, reference fired %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: firing order diverged at index %d: scheduler=%d reference=%d (context got=%v want=%v)",
					trial, i, got[i], want[i], tail(got, i), tail(want, i))
			}
			if gotPend[i] != wantPend[i] {
				t.Fatalf("trial %d: after step %d Pending() = %d, reference holds %d live events",
					trial, i, gotPend[i], wantPend[i])
			}
		}
	}
}

func tail(xs []int, i int) []int {
	lo := i - 3
	if lo < 0 {
		lo = 0
	}
	hi := i + 4
	if hi > len(xs) {
		hi = len(xs)
	}
	return xs[lo:hi]
}
