// Package meter models the measurement instrument of the paper's §5.1: a
// Keysight 34465A digital multimeter in series with the device's 3.3 V
// supply, sampling current 50,000 times per second. Figures 3a/3b are this
// sampler's output; Table 1's energies are integrals of it.
//
// The sampled waveform is piecewise constant: only events change the
// device's current, and the device's energy.Recorder logs every change as
// a step. So the meter schedules nothing. Start and Stop note the window,
// and Stop reads the step history once and records the samples as a step
// history of their own, a few dozen steps for a 2-second 50 kS/s window:
// each device step moves up to the first sample instant at or after it,
// so the sample at t reads the current after every event at t. Every
// query (the integral, the CSV export, Walk) reads those steps. Stop also
// expands them into Samples, sample for sample what a reading at each
// instant would give, as the equivalence property tests pin.
package meter

import (
	"fmt"
	"io"
	"sync"
	"time"

	"wile/internal/energy"
	"wile/internal/obs"
	"wile/internal/sim"
	"wile/internal/units"
)

// DefaultSampleRate is the 34465A's digitizing rate used in the paper.
const DefaultSampleRate = 50_000 // samples per second

// Probe supplies the waveform the meter reads: a step history in time
// order, each step's current holding until the next step's time, as
// energy.Recorder (and so every device) keeps it.
type Probe interface {
	Steps() []energy.Step
}

// Sample is one reading.
type Sample struct {
	At      sim.Time
	Current units.Amps
}

// Meter samples a probe at a fixed rate on the simulation clock.
type Meter struct {
	sched *sim.Scheduler
	probe Probe
	// Samples holds the per-sample trace, expanded from steps at Stop for
	// callers that want the raw readings as a slice.
	Samples []Sample

	period  time.Duration
	running bool
	// start is the first sample's instant, set by Start.
	start sim.Time

	// steps is the sampled waveform: the samples from a step's instant up
	// to the next step's read its current, and the last step's run up to
	// last, the last sample's instant. Every step sits on a sample
	// instant, and neighbours differ.
	steps []energy.Step
	last  sim.Time

	// rec/track carry the optional trace recorder (TraceTo). The waveform
	// is piecewise-constant, so one counter per step carries the full
	// signal and a 2-second 50 kS/s run costs dozens of trace events
	// instead of 100k.
	rec   *obs.Recorder
	track obs.TrackID
}

// New builds a meter for the probe at rate samples/second.
func New(sched *sim.Scheduler, probe Probe, rate int) *Meter {
	if rate <= 0 {
		panic(fmt.Sprintf("meter: invalid sample rate %d", rate))
	}
	return &Meter{sched: sched, probe: probe, period: time.Second / time.Duration(rate)}
}

// samplePool recycles materialized trace buffers across runs; experiment
// benchmarks and engine sweeps return finished traces through
// RecycleSamples so back-to-back figure runs reuse one 100k-sample buffer.
var samplePool sync.Pool

// acquireSamples returns an empty sample buffer with at least the given
// capacity, reusing a pooled buffer when one is large enough.
func acquireSamples(capacity int) []Sample {
	if v := samplePool.Get(); v != nil {
		s := v.([]Sample)
		if cap(s) >= capacity {
			return s[:0]
		}
	}
	return make([]Sample, 0, capacity)
}

// RecycleSamples returns a sample buffer to the shared pool for reuse by a
// later Reserve. The caller must not use the slice afterwards. Small
// buffers are dropped: pooling only pays for figure-scale traces.
func RecycleSamples(s []Sample) {
	if cap(s) >= 4096 {
		samplePool.Put(s[:0]) //nolint — slice header boxing is once per run
	}
}

// Reserve preallocates Samples capacity for a trace of the given
// duration at the meter's sample rate. A 2-second Figure-3 window at the
// default 50 kS/s is 100k samples; reserving once replaces the ~17
// doubling reallocations append would otherwise perform while sampling.
func (m *Meter) Reserve(window time.Duration) {
	if window <= 0 {
		return
	}
	need := int(window/m.period) + 1
	if cap(m.Samples)-len(m.Samples) >= need {
		return
	}
	grown := acquireSamples(len(m.Samples) + need)
	grown = grown[:len(m.Samples)]
	copy(grown, m.Samples)
	m.Samples = grown
}

// Start begins sampling: the first sample is at the current instant.
func (m *Meter) Start() {
	if m.running {
		return
	}
	m.running = true
	m.start = m.sched.Now()
}

// TraceTo attaches the meter to a trace recorder: at Stop, each step
// feeds the given counter track one reading, in milliamperes, at its
// first sample. Passing a nil recorder detaches.
func (m *Meter) TraceTo(r *obs.Recorder, track obs.TrackID) {
	m.rec = r
	m.track = track
}

// read records the samples at m.start, m.start+period, ... up to stop from
// the probe's step history. Each device step moves up to the first sample
// instant at or after it, so the sample at t reads the last step at or
// before t: the current after every event at t. Before the first device
// step, nothing is drawn.
func (m *Meter) read(stop sim.Time) {
	// Index arithmetic runs on raw nanosecond counts: sample k sits at
	// start + k*period, a Time again only after the multiply.
	p := int64(m.period)
	m.last = m.start + sim.Time(int64(stop-m.start)/p*p)
	m.steps = append(m.steps[:0], energy.Step{At: m.start})
	for _, s := range m.probe.Steps() {
		at := m.start
		if s.At > at {
			at += sim.Time((int64(s.At-m.start) + p - 1) / p * p)
		}
		if at > m.last {
			break
		}
		// A later step on the same instant replaces the earlier one, and
		// equal neighbours merge.
		n := len(m.steps)
		if m.steps[n-1].At == at {
			n--
			m.steps = m.steps[:n]
		}
		if n == 0 || m.steps[n-1].Current != s.Current {
			m.steps = append(m.steps, energy.Step{At: at, Current: s.Current})
		}
	}
	if m.rec != nil {
		for _, s := range m.steps {
			m.rec.Counter(m.track, s.At, s.Current.Milli())
		}
	}
}

// Stop ends sampling at the current instant, records the samples from the
// probe's step history and materializes the per-sample trace. Call it once
// every event at that instant has run, as RunUntil leaves the clock: a
// step recorded after Stop is not read.
func (m *Meter) Stop() {
	if m.running {
		m.running = false
		m.read(m.sched.Now())
	}
	m.materialize()
}

// until is the instant the run of samples reading step i ends: the next
// step's, or one period past the last sample.
func (m *Meter) until(i int) sim.Time {
	if i+1 < len(m.steps) {
		return m.steps[i+1].At
	}
	return m.last + sim.Time(m.period)
}

// materialize expands the recorded steps into the public Samples slice,
// exactly as the per-sample stepper would have appended them. It is Walk
// inlined, with no call per sample: Stop runs it over the 100k samples of
// every figure run.
func (m *Meter) materialize() {
	m.Samples = m.Samples[:0]
	p := sim.Time(m.period)
	for i, s := range m.steps {
		for at, end := s.At, m.until(i); at < end; at += p {
			m.Samples = append(m.Samples, Sample{At: at, Current: s.Current})
		}
	}
}

// Charge integrates the sampled current between t0 and t1 using the
// rectangle rule (each sample holds until the next, the last until t1) —
// the same numeric integration a bench engineer applies to exported
// multimeter data. Consecutive samples of one value hold it with no gap,
// so the rule is the integral of the recorded steps: each step's current
// times the part of [t0, t1) it holds, the last step held to t1.
func (m *Meter) Charge(t0, t1 sim.Time) units.Coulombs {
	var total units.Coulombs
	for i, s := range m.steps {
		from, to := max(s.At, t0), t1
		if i+1 < len(m.steps) {
			to = min(m.steps[i+1].At, t1)
		}
		if to > from {
			total += units.Charge(s.Current, to.Sub(from))
		}
	}
	return total
}

// Energy integrates energy between t0 and t1 at the rail voltage v.
func (m *Meter) Energy(t0, t1 sim.Time, v units.Volts) units.Joules {
	return m.Charge(t0, t1).Energy(v)
}

// Walk calls visit on every sample in time order, expanded from the
// recorded steps, until visit returns false.
func (m *Meter) Walk(visit func(Sample) bool) {
	p := sim.Time(m.period)
	for i, s := range m.steps {
		for at, end := s.At, m.until(i); at < end; at += p {
			if !visit(Sample{At: at, Current: s.Current}) {
				return
			}
		}
	}
}

// WriteCSV writes the trace as "time_s,current_mA" rows, preceded by
// comment lines for each mark — the format the repository's plotting
// scripts (and any spreadsheet) consume to redraw Figures 3a/3b.
func (m *Meter) WriteCSV(w io.Writer, marks []energy.Mark) error {
	for _, a := range marks {
		if _, err := fmt.Fprintf(w, "# %s at %.6f s\n", a.Label, a.At.Seconds()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "time_s,current_mA"); err != nil {
		return err
	}
	var err error
	m.Walk(func(s Sample) bool {
		_, err = fmt.Fprintf(w, "%.6f,%.4f\n", s.At.Seconds(), s.Current.Milli())
		return err == nil
	})
	return err
}
