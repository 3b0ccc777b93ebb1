package sim

import (
	"testing"
	"time"
)

// The dense workload is a band of periodic streams (beacon TBTT, meter
// ticks, BLE connection events) with one-shot protocol timeouts sprinkled
// between them. The one-shot delays run from zero to 80 s, so far-future
// events pile up under the streams: the queue peaks at several thousand
// pending events, more than any figure run keeps.

const (
	denseEvents  = 100_000
	denseStreams = 64
)

var denseOneshotDelays = [...]time.Duration{
	0,
	3 * time.Microsecond,
	800 * time.Microsecond,
	60 * time.Millisecond,
	2 * time.Second,
	80 * time.Second,
}

// runDense drives the mixed periodic+oneshot workload through a scheduler
// abstracted as schedule/step (the same shape diff_test.go uses) and
// reports how many events fired. The program is deterministic, so both
// lanes of BenchmarkSchedulerDense perform identical scheduling work;
// only the queue behind them differs.
func runDense(schedule func(d time.Duration, fn func()), step func() bool) int {
	fired := 0
	budget := denseEvents

	var arm func(period time.Duration, k int)
	arm = func(period time.Duration, k int) {
		schedule(period, func() {
			fired++
			if k%4 == 0 && budget > 0 {
				budget--
				d := denseOneshotDelays[k%len(denseOneshotDelays)]
				schedule(d, func() { fired++ })
			}
			if budget > 0 {
				budget--
				arm(period, k+1)
			}
		})
	}
	for i := 0; i < denseStreams && budget > 0; i++ {
		budget--
		arm(time.Duration(i%16+1)*25*time.Microsecond, i)
	}
	for step() {
	}
	return fired
}

// BenchmarkSchedulerDense compares the production scheduler against the
// plain binary-heap reference on 100k mixed periodic+oneshot events. The
// wheel lane keeps its name from the timing wheel the scheduler once used,
// so the bench trajectory stays on one lane; it now times the production
// queue, through the handle-free DoAfter path the hot callers use.
func BenchmarkSchedulerDense(b *testing.B) {
	b.Run("wheel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := New()
			n := runDense(func(d time.Duration, fn func()) { s.DoAfter(d, fn) }, s.Step)
			if n < denseEvents {
				b.Fatalf("fired %d events, want >= %d", n, denseEvents)
			}
		}
	})
	b.Run("heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := &refSched{}
			n := runDense(func(d time.Duration, fn func()) { r.at(r.now.Add(d), fn) }, r.step)
			if n < denseEvents {
				b.Fatalf("fired %d events, want >= %d", n, denseEvents)
			}
		}
	})
}

// TestDenseWorkloadLanesAgree pins the two benchmark lanes to identical
// work: same event count fired through the scheduler and the reference
// heap.
func TestDenseWorkloadLanesAgree(t *testing.T) {
	s := New()
	got := runDense(func(d time.Duration, fn func()) { s.DoAfter(d, fn) }, s.Step)
	r := &refSched{}
	want := runDense(func(d time.Duration, fn func()) { r.at(r.now.Add(d), fn) }, r.step)
	if got != want {
		t.Fatalf("scheduler fired %d, reference heap fired %d", got, want)
	}
	if got < denseEvents {
		t.Fatalf("workload fired only %d events, want >= %d", got, denseEvents)
	}
}
