package sim

import (
	"reflect"
	"testing"
	"time"
)

func TestDoAfterPreservesFIFOWithAfter(t *testing.T) {
	// Events with and without a handle at the same timestamp must still
	// fire in scheduling order — the seq tie-break applies to both.
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
	// Warm the slot table, its free list and the heap's backing array.
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

func TestAfterAllocatesOnlyItsHandle(t *testing.T) {
	s := New()
	fn := func() {}
	s.After(0, fn)
	s.Step()
	allocs := testing.AllocsPerRun(200, func() {
		s.After(time.Microsecond, fn)
		s.Step()
	})
	if allocs != 1 {
		t.Fatalf("After+Step allocates %.1f objects/op in steady state, want 1 (the handle)", allocs)
	}
}

func TestSelfRearmingTickReusesOneNode(t *testing.T) {
	// dispatch frees a slot before its callback runs, so a tick that
	// reschedules itself keeps reusing the slot it just fired from.
	s := &Scheduler{}
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
	if len(s.slots) != 1 || len(s.free) != 1 {
		t.Fatalf("a single tick chain used %d slots (%d free), want 1 (1 free)", len(s.slots), len(s.free))
	}
}

// TestQueueEntryHoldsNoPointer keeps the heap pointer-free: a pointer in
// entry would make every sift pay the collector's write barrier and every
// mark phase scan the queue.
func TestQueueEntryHoldsNoPointer(t *testing.T) {
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.Slice, reflect.String:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(entry{}), "entry")
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
	// A cancelled At event must not disturb handle-free events around it.
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
