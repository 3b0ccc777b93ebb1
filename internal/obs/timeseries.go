package obs

// Sim-time metrics timeline: a TimeSeries snapshots every counter in a
// Registry on a configurable sim-time cadence, turning end-of-run totals
// into curves (frames, deliveries, drops over the run). Samples are
// recorded as counter events into a Recorder of the series' own, so the
// Chrome export is the trace exporter's.
//
// Like a Recorder, a TimeSeries belongs to one simulation kernel: each
// sample reads the registry's collected sources on the kernel goroutine,
// so the registry must be fed only by that kernel while the series runs,
// or mid-run values (and therefore the series) stop being deterministic.

import (
	"io"
	"time"

	"wile/internal/sim"
)

// DefaultSeriesCadence is the sampling interval used when none is given:
// 200 points over a 2-second figure window.
const DefaultSeriesCadence = 10 * time.Millisecond

// TimeSeries periodically samples a Registry into a Recorder.
type TimeSeries struct {
	reg     *Registry
	rec     *Recorder
	cadence time.Duration
	tracks  map[string]TrackID
	stopped bool
}

// NewTimeSeries builds a series sampler over reg. A non-positive cadence
// means DefaultSeriesCadence.
func NewTimeSeries(reg *Registry, cadence time.Duration) *TimeSeries {
	if cadence <= 0 {
		cadence = DefaultSeriesCadence
	}
	return &TimeSeries{
		reg:     reg,
		rec:     NewRecorder(),
		cadence: cadence,
		tracks:  make(map[string]TrackID),
	}
}

// track returns the series lane for name, registering it on first use.
// Lanes appear in sorted-name order of the first sample that saw them, so
// the track list is a deterministic function of the sampled registry.
func (t *TimeSeries) track(name string) TrackID {
	if id, ok := t.tracks[name]; ok {
		return id
	}
	id := t.rec.Track(name)
	t.tracks[name] = id
	return id
}

// Sample records one point per counter at the given sim time, reading each
// collected source once. Counters registered after a sample join at the
// next one.
func (t *TimeSeries) Sample(at sim.Time) {
	for _, e := range t.reg.snapshot() {
		t.rec.Counter(t.track(e.name), at, float64(e.count))
	}
}

// Run samples immediately and then keeps sampling every cadence of sim
// time until Stop (or the scheduler drains).
func (t *TimeSeries) Run(sched *sim.Scheduler) {
	t.stopped = false
	t.Sample(sched.Now())
	t.tick(sched)
}

func (t *TimeSeries) tick(sched *sim.Scheduler) {
	sched.DoAfter(t.cadence, func() {
		if t.stopped {
			return
		}
		t.Sample(sched.Now())
		t.tick(sched)
	})
}

// Stop ends a running series after the currently scheduled sample.
func (t *TimeSeries) Stop() { t.stopped = true }

// Len reports the number of recorded sample points.
func (t *TimeSeries) Len() int { return t.rec.Len() }

// WriteCSV exports the series in long format (time_us,series,value), one
// row per sampled point in record order.
func (t *TimeSeries) WriteCSV(w io.Writer) error {
	e := newEncoder(w)
	e.lit("time_us,series,value\n")
	for i := range t.rec.events {
		ev := &t.rec.events[i]
		e.micros(ev.At)
		e.lit(",")
		e.lit(t.rec.tracks[ev.Track])
		e.lit(",")
		e.value(ev.Value)
		e.lit("\n")
	}
	return e.flush()
}

// WriteChromeTrace exports the series as Chrome trace-event JSON counter
// lanes, ready for https://ui.perfetto.dev.
func (t *TimeSeries) WriteChromeTrace(w io.Writer) error {
	return t.rec.WriteChromeTrace(w)
}
