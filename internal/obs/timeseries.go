package obs

// Sim-time metrics timeline: a TimeSeries snapshots every metric in a
// Registry on a configurable sim-time cadence, turning end-of-run totals
// into curves (energy, throughput, drop rate over the run). Samples are
// recorded as counter events through the ordinary chunked Recorder/Sink
// pipeline, so long timelines spill to disk exactly like traces and the
// exports inherit the byte-identity contract.
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

// NewTimeSeries builds a series sampler over reg, recording through sink
// (NewMemorySink for figure-scale runs, NewSpillSink for long ones). A
// non-positive cadence means DefaultSeriesCadence.
func NewTimeSeries(reg *Registry, sink Sink, cadence time.Duration) *TimeSeries {
	if cadence <= 0 {
		cadence = DefaultSeriesCadence
	}
	return &TimeSeries{
		reg:     reg,
		rec:     NewStreamRecorder(sink),
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

// Sample records one point per metric at the given sim time, reading each
// collected source once. Counters and gauges sample their value;
// histograms sample two lanes, <name>.count and <name>.sum. Metrics
// registered after a sample join at the next one.
func (t *TimeSeries) Sample(at sim.Time) {
	for _, e := range t.reg.snapshot() {
		switch m := e.it.(type) {
		case *Counter:
			t.rec.Counter(t.track(e.name), at, float64(e.count))
		case *Gauge:
			t.rec.Counter(t.track(e.name), at, m.Value())
		case *Histogram:
			count, sum, _ := m.snapshot()
			t.rec.Counter(t.track(e.name+".count"), at, float64(count))
			t.rec.Counter(t.track(e.name+".sum"), at, sum)
		}
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

// Err reports the first sink error, if any.
func (t *TimeSeries) Err() error { return t.rec.Err() }

// WriteCSV exports the series in long format (time_us,series,value), one
// row per sampled point in record order — a pure function of the replayed
// event stream, byte-identical however the sink chunked or spilled it.
func (t *TimeSeries) WriteCSV(w io.Writer) error {
	t.rec.flush()
	if err := t.rec.Err(); err != nil {
		return err
	}
	e := newEncoder(w)
	e.lit("time_us,series,value\n")
	err := t.rec.sink.Replay(func(chunk []Event) error {
		for i := range chunk {
			ev := &chunk[i]
			e.micros(ev.At)
			e.lit(",")
			e.lit(t.rec.tracks[ev.Track])
			e.lit(",")
			e.value(ev.Value)
			e.lit("\n")
		}
		return e.err()
	})
	if err != nil {
		return err
	}
	return e.flush()
}

// WriteChromeTrace exports the series as Chrome trace-event JSON counter
// lanes, ready for https://ui.perfetto.dev.
func (t *TimeSeries) WriteChromeTrace(w io.Writer) error {
	return t.rec.WriteChromeTrace(w)
}
