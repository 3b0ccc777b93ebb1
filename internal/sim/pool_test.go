package sim

import (
	"testing"
	"time"
)

func TestDoAfterPreservesFIFOWithAfter(t *testing.T) {
	// Pooled and unpooled events at the same timestamp must still fire in
	// scheduling order — the seq tie-break applies to both.
	s := New()
	var order []int
	s.After(time.Millisecond, func() { order = append(order, 0) })
	s.DoAfter(time.Millisecond, func() { order = append(order, 1) })
	s.After(time.Millisecond, func() { order = append(order, 2) })
	s.DoAfter(time.Millisecond, func() { order = append(order, 3) })
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("fire order %v, want 0..3", order)
		}
	}
}

func TestDoAfterRecyclesEventNodes(t *testing.T) {
	s := New()
	fn := func() {}
	// Warm the freelist and the heap's backing array.
	s.DoAfter(0, fn)
	s.Step()
	allocs := testing.AllocsPerRun(200, func() {
		s.DoAfter(time.Microsecond, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("DoAfter+Step allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

func TestSelfRearmingTickReusesOneNode(t *testing.T) {
	// The recycle-before-fire ordering in Step means a tick that reschedules
	// itself keeps reusing the node it just fired from.
	s := New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 1000 {
			s.DoAfter(time.Millisecond, tick)
		}
	}
	s.DoAfter(time.Millisecond, tick)
	s.Run()
	if n != 1000 {
		t.Fatalf("tick fired %d times, want 1000", n)
	}
	if len(s.free) != 1 {
		t.Fatalf("freelist holds %d nodes after a single tick chain, want 1", len(s.free))
	}
}

func TestDoAtPanicsOnPastTimestamp(t *testing.T) {
	s := New()
	s.DoAfter(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("DoAt in the past did not panic")
		}
	}()
	s.DoAt(s.Now()-1, func() {})
}

func TestPooledAndCancellableEventsCoexist(t *testing.T) {
	// A cancelled At event must not disturb pooled events around it.
	s := New()
	fired := 0
	e := s.After(time.Millisecond, func() { fired += 100 })
	s.DoAfter(time.Millisecond, func() { fired++ })
	s.Cancel(e)
	s.DoAfter(2*time.Millisecond, func() { fired++ })
	s.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (cancelled event must not run)", fired)
	}
}
