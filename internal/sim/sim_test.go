package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := New()
	var got []Time
	for _, at := range []Time{5 * Millisecond, Millisecond, 3 * Millisecond, 2 * Millisecond} {
		at := at
		s.At(at, func() { got = append(got, s.Now()) })
	}
	s.Run()
	want := []Time{Millisecond, 2 * Millisecond, 3 * Millisecond, 5 * Millisecond}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSchedulerEqualTimesFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events fired out of order: %v", order)
		}
	}
}

func TestSchedulerAfterRelative(t *testing.T) {
	s := New()
	var at Time
	s.After(100*time.Millisecond, func() {
		s.After(50*time.Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != 150*Millisecond {
		t.Fatalf("nested After fired at %v, want 150ms", at)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := New()
	s.At(Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(Millisecond, func() {})
}

func TestSchedulerCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(Second, func() { fired = true })
	s.Cancel(e)
	s.Cancel(e) // double-cancel is a no-op
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("event does not report cancelled")
	}
}

func TestSchedulerCancelOneOfMany(t *testing.T) {
	s := New()
	var fired []int
	var events []*Event
	for i := 0; i < 5; i++ {
		i := i
		events = append(events, s.At(Time(i+1)*Millisecond, func() { fired = append(fired, i) }))
	}
	s.Cancel(events[2])
	s.Run()
	want := []int{0, 1, 3, 4}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New()
	fired := 0
	s.At(Second, func() { fired++ })
	s.At(3*Second, func() { fired++ })
	s.RunUntil(2 * Second)
	if fired != 1 {
		t.Fatalf("fired %d events by 2s, want 1", fired)
	}
	if s.Now() != 2*Second {
		t.Fatalf("clock at %v, want 2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("%d pending, want 1", s.Pending())
	}
	s.Run()
	if fired != 2 || s.Now() != 3*Second {
		t.Fatalf("after Run: fired=%d now=%v", fired, s.Now())
	}
}

func TestRunForIsRelative(t *testing.T) {
	s := New()
	s.RunFor(time.Second)
	s.RunFor(time.Second)
	if s.Now() != 2*Second {
		t.Fatalf("clock at %v, want 2s", s.Now())
	}
}

func TestEventSchedulingInsideEvent(t *testing.T) {
	// A periodic process implemented by self-rescheduling must fire at
	// exact multiples of its period.
	s := New()
	var times []Time
	var tick func()
	tick = func() {
		times = append(times, s.Now())
		if len(times) < 5 {
			s.After(100*time.Millisecond, tick)
		}
	}
	s.After(100*time.Millisecond, tick)
	s.Run()
	for i, at := range times {
		want := Time(i+1) * 100 * Millisecond
		if at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTimeString(t *testing.T) {
	if got := (1500 * Millisecond).String(); got != "1.500000s" {
		t.Fatalf("String() = %q", got)
	}
}

func TestTimeConversions(t *testing.T) {
	if FromDuration(time.Second) != Second {
		t.Fatal("FromDuration mismatch")
	}
	if Second.Duration() != time.Second {
		t.Fatal("Duration mismatch")
	}
	if (3 * Second).Sub(Second) != 2*time.Second {
		t.Fatal("Sub mismatch")
	}
	if got := Second.Add(500 * time.Millisecond); got != 1500*Millisecond {
		t.Fatalf("Add = %v", got)
	}
	if (250 * Millisecond).Seconds() != 0.25 {
		t.Fatal("Seconds mismatch")
	}
}

// Property: for any set of delays, events fire in nondecreasing time order.
func TestPropertyEventsFireInOrder(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		s := New()
		var fired []Time
		for _, d := range delaysMs {
			s.At(Time(d)*Millisecond, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(delaysMs) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the scheduler fires exactly the events that were not cancelled.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(delaysMs []uint8, cancelMask []bool) bool {
		s := New()
		fired := make(map[int]bool)
		var events []*Event
		for i, d := range delaysMs {
			i := i
			events = append(events, s.At(Time(d)*Millisecond, func() { fired[i] = true }))
		}
		wantFired := len(delaysMs)
		for i, e := range events {
			if i < len(cancelMask) && cancelMask[i] {
				s.Cancel(e)
				wantFired--
			}
		}
		s.Run()
		if len(fired) != wantFired {
			return false
		}
		for i := range events {
			cancelled := i < len(cancelMask) && cancelMask[i]
			if fired[i] == cancelled {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical outputs", same)
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		seen := make(map[int]bool)
		for i := 0; i < 200*n && len(seen) < n; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		if len(seen) != n {
			t.Fatalf("Intn(%d) never produced all values (got %d)", n, len(seen))
		}
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRandNormFloat64Moments(t *testing.T) {
	r := NewRand(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestRandJitterCenteredOnOne(t *testing.T) {
	r := NewRand(17)
	const n = 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		j := r.Jitter(50) // 50 ppm crystal
		if math.Abs(j-1) > 50e-6*6 {
			t.Fatalf("jitter %v implausibly far from 1 for 50ppm", j)
		}
		sum += j
	}
	if mean := sum / n; math.Abs(mean-1) > 1e-6 {
		t.Fatalf("jitter mean = %v, want ~1", mean)
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, func() {})
		s.Step()
	}
}
