package sim

import (
	"fmt"
	"testing"
	"time"
)

// tickerScript schedules a fixed set of one-shot events (some landing
// exactly on tick boundaries, some between them, some spawned from inside
// callbacks) alongside a periodic source, and records the interleaved
// firing order. The periodic source is either a Ticker or a self-rearming
// At chain — the Ticker's documented contract is that the two are
// indistinguishable.
func tickerScript(s *Scheduler, record func(kind string), periodic func(period time.Duration, until Time)) {
	period := 100 * time.Microsecond
	until := FromDuration(10 * time.Millisecond)

	// On-boundary, off-boundary, and zero-delay events.
	s.At(FromDuration(300*time.Microsecond), func() { record("a") }) // on a tick
	s.At(FromDuration(450*time.Microsecond), func() { record("b") }) // between ticks
	s.At(FromDuration(2*time.Millisecond), func() {                  // spawns more
		record("c")
		s.After(0, func() { record("c0") })
		s.After(50*time.Microsecond, func() { record("c1") })
		s.After(700*time.Microsecond, func() { record("c2") }) // lands on a tick
	})
	s.At(FromDuration(9*time.Millisecond+950*time.Microsecond), func() { record("z") })

	periodic(period, until)
}

func runTickerScript(t *testing.T, useTicker, useBatch bool) []string {
	t.Helper()
	s := New()
	var got []string
	record := func(kind string) { got = append(got, fmt.Sprintf("%s@%d", kind, s.Now())) }

	tickerScript(s, record, func(period time.Duration, until Time) {
		if useTicker {
			tk := s.Tick(FromDuration(period), period, func(at Time) { record("t") })
			if useBatch {
				tk.SetBatch(func(from Time, n int) {
					for i := 0; i < n; i++ {
						at := from.Add(time.Duration(i) * period)
						got = append(got, fmt.Sprintf("t@%d", at))
					}
				})
			}
			s.At(until, func() { tk.Stop() })
			return
		}
		var arm func(at Time)
		arm = func(at Time) {
			s.At(at, func() {
				record("t")
				if next := at.Add(period); next < until {
					arm(next)
				}
			})
		}
		arm(FromDuration(period))
	})

	s.RunUntil(FromDuration(11 * time.Millisecond))
	return got
}

// TestTickerMatchesRearmingChain pins the Ticker's per-fire path to the
// self-rearming event chain it replaced: identical interleaving with
// one-shot events, including FIFO order at shared timestamps.
func TestTickerMatchesRearmingChain(t *testing.T) {
	want := runTickerScript(t, false, false)
	got := runTickerScript(t, true, false)
	if len(got) != len(want) {
		t.Fatalf("ticker fired %d records, chain fired %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("diverged at %d: ticker=%q chain=%q", i, got[i], want[i])
		}
	}
}

// TestTickerBatchMatchesPerFire pins the batch fast path to the per-fire
// path: the expanded batch records must be indistinguishable from
// individual fires.
func TestTickerBatchMatchesPerFire(t *testing.T) {
	want := runTickerScript(t, true, false)
	got := runTickerScript(t, true, true)
	if len(got) != len(want) {
		t.Fatalf("batched ticker produced %d records, per-fire produced %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("diverged at %d: batch=%q per-fire=%q", i, got[i], want[i])
		}
	}
}

// TestTickerBatchStopsAtOtherTickers runs a batched 3 µs train next to a
// 5 µs train whose every fire schedules an event 1 ns later. A batch must
// end before the other train's next fire, or that fire runs with the clock
// moving backwards and its event lands after later ticks. The batched run
// must match the same run with OnDispatch set, which fires every tick
// singly.
func TestTickerBatchStopsAtOtherTickers(t *testing.T) {
	batches := 0 // batch calls covering more than one fire
	run := func(firehose bool) []string {
		s := New()
		if firehose {
			s.OnDispatch = func(Time) {}
		}
		var got []string
		record := func(kind string, at Time) { got = append(got, fmt.Sprintf("%s@%d", kind, at)) }
		period := 3 * time.Microsecond
		a := s.Tick(FromDuration(period), period, func(at Time) { record("a", at) })
		a.SetBatch(func(from Time, n int) {
			if n > 1 {
				batches++
			}
			for i := 0; i < n; i++ {
				record("a", from.Add(time.Duration(i)*period))
			}
		})
		s.Tick(5*Microsecond, 5*time.Microsecond, func(at Time) {
			record("b", s.Now())
			s.After(time.Nanosecond, func() { record("e", s.Now()) })
		})
		s.RunUntil(100 * Microsecond)
		return got
	}
	want := run(true)
	got := run(false)
	if batches == 0 {
		t.Fatal("the batched run never fired a batch of more than one tick")
	}
	if len(got) != len(want) {
		t.Fatalf("batched run produced %d records, per-fire run %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("diverged at %d: batched=%q per-fire=%q", i, got[i], want[i])
		}
	}
}

// TestTickerFirehoseDisablesBatching: with an OnDispatch hook installed
// (the scheduler-firehose observability mode), every tick must dispatch
// individually so the hook sees each one; the batch callback must never
// run.
func TestTickerFirehoseDisablesBatching(t *testing.T) {
	s := New()
	dispatches := 0
	s.OnDispatch = func(at Time) { dispatches++ }
	fires := 0
	tk := s.Tick(FromDuration(time.Millisecond), time.Millisecond, func(at Time) { fires++ })
	tk.SetBatch(func(from Time, n int) {
		t.Fatalf("batch callback ran (from=%v n=%d) despite OnDispatch", from, n)
	})
	s.RunUntil(FromDuration(10 * time.Millisecond))
	if fires != 10 {
		t.Fatalf("fires = %d, want 10", fires)
	}
	if dispatches != 10 {
		t.Fatalf("OnDispatch saw %d dispatches, want 10", dispatches)
	}
}

// TestTickerStop verifies Stop halts firing immediately (even from inside
// the fire callback) and removes the ticker from Pending.
func TestTickerStop(t *testing.T) {
	s := New()
	fires := 0
	var tk *Ticker
	tk = s.Tick(FromDuration(time.Millisecond), time.Millisecond, func(at Time) {
		fires++
		if fires == 3 {
			tk.Stop()
		}
	})
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d before run, want 1 (the ticker)", s.Pending())
	}
	s.RunUntil(FromDuration(time.Second))
	if fires != 3 {
		t.Fatalf("fires = %d after Stop at 3, want 3", fires)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after Stop, want 0", s.Pending())
	}
	// Stopping again is a no-op.
	tk.Stop()
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after double Stop, want 0", s.Pending())
	}
}

// TestTickerNextAdvances verifies Next reports the upcoming fire time as
// the run progresses.
func TestTickerNextAdvances(t *testing.T) {
	s := New()
	period := time.Millisecond
	tk := s.Tick(FromDuration(period), period, func(at Time) {})
	if got, want := tk.Next(), FromDuration(period); got != want {
		t.Fatalf("Next = %v before run, want %v", got, want)
	}
	s.RunUntil(FromDuration(3*time.Millisecond + 500*time.Microsecond))
	if got, want := tk.Next(), FromDuration(4*time.Millisecond); got != want {
		t.Fatalf("Next = %v after 3.5 ms, want %v", got, want)
	}
}

// TestTickerRunAdvancesThroughBatch verifies a batched ticker advances the
// clock to the deadline and counts every fire in Fired.
func TestTickerRunAdvancesThroughBatch(t *testing.T) {
	s := New()
	ticks := 0
	tk := s.Tick(FromDuration(time.Millisecond), time.Millisecond, func(at Time) { ticks++ })
	tk.SetBatch(func(from Time, n int) { ticks += n })
	before := s.Fired()
	s.RunUntil(FromDuration(100 * time.Millisecond))
	if ticks != 100 {
		t.Fatalf("ticks = %d over 100 ms at 1 ms period, want 100", ticks)
	}
	if got := s.Fired() - before; got != 100 {
		t.Fatalf("Fired advanced by %d, want 100", got)
	}
	if s.Now() != FromDuration(100*time.Millisecond) {
		t.Fatalf("Now = %v after RunUntil, want 100ms", s.Now())
	}
}

// TestTickerInvalidArgsPanic pins the constructor's contract.
func TestTickerInvalidArgsPanic(t *testing.T) {
	s := New()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero period", func() { s.Tick(FromDuration(time.Millisecond), 0, func(Time) {}) })
	s2 := New()
	s2.DoAt(FromDuration(time.Millisecond), func() {})
	s2.Run()
	mustPanic("past start", func() { s2.Tick(0, time.Millisecond, func(Time) {}) })
}
