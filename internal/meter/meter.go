// Package meter models the measurement instrument of the paper's §5.1: a
// Keysight 34465A digital multimeter in series with the device's 3.3 V
// supply, sampling current 50,000 times per second. Figures 3a/3b are this
// sampler's output; Table 1's energies are integrals of it.
//
// The sampled waveform is piecewise constant: only events change the
// device's current, and the device's energy.Recorder logs every change as
// a step. So the meter schedules nothing. Start and Stop note the window,
// and Stop reads the step history once and records the samples as
// plateaus (start, sample count, value), a few dozen for a 2-second
// 50 kS/s window. The sample at t reads the current after every event at
// t. Every query (the integral, the peak, the CSV export, Walk) reads the
// plateaus. Stop also expands them into Samples, sample for sample what a
// reading at each instant would give, as the equivalence property tests
// pin.
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

// plateau is a run of consecutive samples with identical value: n readings
// of val at from, from+period, ..., from+(n-1)*period.
type plateau struct {
	from sim.Time
	n    int64
	val  units.Amps
}

// Meter samples a probe at a fixed rate on the simulation clock.
type Meter struct {
	sched *sim.Scheduler
	probe Probe
	// Samples holds the per-sample trace, expanded from the plateaus at
	// Stop for callers that want the raw readings as a slice.
	Samples []Sample

	period  time.Duration
	running bool
	// start is the first sample's instant, set by Start.
	start sim.Time

	// plateaus is the compact waveform.
	plateaus []plateau

	// rec/track carry the optional trace recorder (TraceTo). The waveform
	// is piecewise-constant, so one counter per plateau carries the full
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

// TraceTo attaches the meter to a trace recorder: at Stop, each plateau
// feeds the given counter track one reading, in milliamperes, at its
// first sample. Passing a nil recorder detaches.
func (m *Meter) TraceTo(r *obs.Recorder, track obs.TrackID) {
	m.rec = r
	m.track = track
}

// read records the samples at m.start, m.start+period, ... up to stop from
// the probe's step history. The sample at t reads the last step at or
// before t, so it sees the current after every event at t; a run of
// samples with no step between them is one observe call.
func (m *Meter) read(stop sim.Time) {
	steps := m.probe.Steps()
	p := int64(m.period)
	n := int64(stop-m.start)/p + 1
	var a units.Amps // no step yet: nothing drawn
	i := 0
	for k := int64(0); k < n; {
		at := m.start + sim.Time(k*p)
		for i < len(steps) && steps[i].At <= at {
			a = steps[i].Current
			i++
		}
		// a holds until steps[i]: samples k up to the first one at or
		// after it read a.
		next := n
		if i < len(steps) {
			next = min(n, (int64(steps[i].At-m.start)+p-1)/p)
		}
		m.observe(at, next-k, a)
		k = next
	}
}

// observe records n consecutive samples of a starting at from: it extends
// the last plateau when that one is contiguous and equal, and otherwise
// starts a plateau and feeds it to the counter track.
func (m *Meter) observe(from sim.Time, n int64, a units.Amps) {
	if k := len(m.plateaus); k > 0 {
		last := &m.plateaus[k-1]
		if last.val == a && last.from+sim.Time(last.n*int64(m.period)) == from {
			last.n += n
			return
		}
	}
	m.plateaus = append(m.plateaus, plateau{from: from, n: n, val: a})
	if m.rec != nil {
		m.rec.Counter(m.track, from, a.Milli())
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

// materialize expands the recorded plateaus into the public Samples slice,
// exactly as the per-sample stepper would have appended them. It is Walk
// inlined, with no call per sample: Stop runs it over the 100k samples of
// every figure run.
func (m *Meter) materialize() {
	m.Samples = m.Samples[:0]
	p := sim.Time(m.period)
	for _, pl := range m.plateaus {
		at := pl.from
		for j := int64(0); j < pl.n; j++ {
			m.Samples = append(m.Samples, Sample{At: at, Current: pl.val})
			at += p
		}
	}
}

// Charge integrates the sampled current between t0 and t1 using the
// rectangle rule (each sample holds until the next) — the same numeric
// integration a bench engineer applies to exported multimeter data. It
// runs on the plateau record: sample j of a plateau holds for one period
// (interior) or until the next plateau's first sample (last), so the
// interior of each plateau integrates in closed form (one multiply per
// plateau instead of one per sample), and only samples clipped by t0/t1
// or holding across a plateau boundary are handled individually.
func (m *Meter) Charge(t0, t1 sim.Time) units.Coulombs {
	var total units.Coulombs
	// Index arithmetic runs on raw nanosecond counts: sample j of a plateau
	// sits at from + j*period, a Time again only after the multiply.
	perNs := int64(m.period)
	for i, pl := range m.plateaus {
		if pl.from >= t1 {
			break
		}
		// Hold boundary for the plateau's last sample: the next plateau's
		// first sample, or the end of the integration window.
		lastEnd := t1
		if i+1 < len(m.plateaus) && m.plateaus[i+1].from < t1 {
			lastEnd = m.plateaus[i+1].from
		}
		addSample := func(j int64) {
			at := pl.from + sim.Time(j*perNs)
			if at >= t1 {
				return
			}
			end := at + sim.Time(perNs)
			if j == pl.n-1 {
				end = lastEnd
			}
			if end > t1 {
				end = t1
			}
			start := at
			if start < t0 {
				start = t0
			}
			if end > start {
				total += units.Charge(pl.val, end.Sub(start))
			}
		}
		// j0: the sample whose interval contains t0 (0 when the plateau
		// starts inside the window).
		j0 := int64(0)
		if t0 > pl.from {
			j0 = int64(t0-pl.from) / perNs
			if j0 > pl.n-1 {
				j0 = pl.n - 1
			}
		}
		// Interior samples in [jf0, jf1) are fully inside [t0, t1] and
		// hold exactly one period each: integrate them in one step.
		jf0 := j0
		if pl.from+sim.Time(j0*perNs) < t0 {
			jf0 = j0 + 1
		}
		jf1 := pl.n - 1
		if limit := int64(t1-pl.from) / perNs; limit < jf1 {
			jf1 = limit
		}
		if jf1 > jf0 {
			total += units.Charge(pl.val, time.Duration(jf1-jf0)*m.period)
		}
		// Boundary samples: the t0 straddler and the t1-clipped interior
		// sample (at most one each), then the plateau's last sample.
		if j0 < jf0 && j0 < pl.n-1 {
			addSample(j0)
		}
		if jf1 >= jf0 && jf1 < pl.n-1 {
			addSample(jf1)
		}
		addSample(pl.n - 1)
	}
	return total
}

// Energy integrates energy between t0 and t1 at the rail voltage v.
func (m *Meter) Energy(t0, t1 sim.Time, v units.Volts) units.Joules {
	return m.Charge(t0, t1).Energy(v)
}

// MeanCurrent reports the average current between t0 and t1.
func (m *Meter) MeanCurrent(t0, t1 sim.Time) units.Amps {
	if t1 <= t0 {
		return 0
	}
	return units.MeanCurrent(m.Charge(t0, t1), t1.Sub(t0))
}

// PeakCurrent reports the largest sample in [t0, t1).
func (m *Meter) PeakCurrent(t0, t1 sim.Time) units.Amps {
	var peak units.Amps
	perNs := int64(m.period)
	for _, pl := range m.plateaus {
		if pl.from >= t1 {
			break
		}
		// The plateau's first sample at or after t0.
		j := int64(0)
		if t0 > pl.from {
			j = (int64(t0-pl.from) + perNs - 1) / perNs
		}
		if j < pl.n && pl.from+sim.Time(j*perNs) < t1 && pl.val > peak {
			peak = pl.val
		}
	}
	return peak
}

// Walk calls visit on every sample in time order, expanded from the
// plateau record, until visit returns false.
func (m *Meter) Walk(visit func(Sample) bool) {
	p := sim.Time(m.period)
	for _, pl := range m.plateaus {
		at := pl.from
		for j := int64(0); j < pl.n; j++ {
			if !visit(Sample{At: at, Current: pl.val}) {
				return
			}
			at += p
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
