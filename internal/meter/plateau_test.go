package meter

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"wile/internal/energy"
	"wile/internal/obs"
	"wile/internal/sim"
	"wile/internal/units"
)

// currentChange is one scheduled current step in a random waveform
// program. A step with a lead is scheduled by an event lead earlier, so it
// can land on a sample instant less than one period after it was queued.
type currentChange struct {
	at   sim.Time
	lead sim.Time
	val  units.Amps
}

// makeChangeProgram builds a random piecewise-constant waveform: current
// steps at random instants, some aligned exactly on sample boundaries,
// some queued less than a period ahead, some repeating the previous value
// (so the meter's step merging and the counter feed's change-dedup both
// get exercised).
func makeChangeProgram(rng *rand.Rand, window sim.Time, period time.Duration) []currentChange {
	levels := []units.Amps{0, 10e-6, 10e-6, 0.027, 0.095, 0.200, 0.310}
	n := 1 + rng.Intn(40)
	changes := make([]currentChange, 0, n)
	for i := 0; i < n; i++ {
		var at sim.Time
		if rng.Intn(3) == 0 {
			// Exactly on a sample instant.
			at = sim.Time(rng.Int63n(int64(window)/int64(period))) * sim.Time(period)
		} else {
			at = sim.Time(rng.Int63n(int64(window)))
		}
		var lead sim.Time
		if rng.Intn(3) == 0 {
			lead = min(at, sim.Time(rng.Int63n(int64(period))))
		}
		changes = append(changes, currentChange{at: at, lead: lead, val: levels[rng.Intn(len(levels))]})
	}
	return changes
}

// playChanges schedules the program's steps on p's scheduler.
func playChanges(s *sim.Scheduler, p *energy.Recorder, changes []currentChange) {
	for _, c := range changes {
		set := func() { p.Set(c.val) }
		if c.lead == 0 {
			s.DoAt(c.at, set)
			continue
		}
		s.DoAt(c.at-c.lead, func() { s.DoAt(c.at, set) })
	}
}

// runMeter drives the program into a recorder, meters it with the
// real Meter, and returns the meter (its Samples materialized), the
// recorder and the meter's Chrome-trace counter feed.
func runMeter(t *testing.T, changes []currentChange, window sim.Time, rate int) (*Meter, *energy.Recorder, []byte) {
	t.Helper()
	s := sim.New()
	p := wave(s, 0.5)
	m := New(s, p, rate)
	rec := obs.NewRecorder()
	m.TraceTo(rec, rec.Track("current_mA"))
	playChanges(s, p, changes)
	m.Start()
	s.RunUntil(window)
	m.Stop()
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return m, p, buf.Bytes()
}

// runStepperReference replays the identical program and reads it one
// sample at a time: it runs the kernel up to each sample instant, so every
// event at that instant has fired, and reads the recorder's current. It
// feeds the counter track one reading per change of value, which is the
// meter's one counter per step. It is the oracle for the meter's one
// rule: the sample at t reads the current after every event at t.
func runStepperReference(t *testing.T, changes []currentChange, window sim.Time, rate int) ([]Sample, []byte) {
	t.Helper()
	s := sim.New()
	p := wave(s, 0.5)
	period := time.Second / time.Duration(rate)
	rec := obs.NewRecorder()
	track := rec.Track("current_mA")
	var samples []Sample
	lastTraced := units.Amps(-1)
	playChanges(s, p, changes)
	for at := s.Now(); at <= window; at = at.Add(period) {
		s.RunUntil(at)
		steps := p.Steps()
		a := steps[len(steps)-1].Current
		if a != lastTraced {
			lastTraced = a
			rec.Counter(track, at, a.Milli())
		}
		samples = append(samples, Sample{At: at, Current: a})
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return samples, buf.Bytes()
}

// TestPlateauMatchesStepper is the equivalence property test pinning the
// meter, which reads the step history once at Stop, to the per-sample
// stepper: identical samples (value and timestamp, sample for sample) and
// a byte-identical counter-track export, across randomized waveforms.
func TestPlateauMatchesStepper(t *testing.T) {
	for trial := int64(0); trial < 30; trial++ {
		rng := rand.New(rand.NewSource(trial*104729 + 13))
		rate := []int{50_000, 10_000, 1_000}[rng.Intn(3)]
		period := time.Second / time.Duration(rate)
		window := sim.Time(1+rng.Int63n(200)) * sim.Millisecond
		changes := makeChangeProgram(rng, window, period)

		m, _, gotTrace := runMeter(t, changes, window, rate)
		got := m.Samples
		want, wantTrace := runStepperReference(t, changes, window, rate)

		if len(got) != len(want) {
			t.Fatalf("trial %d: meter produced %d samples, stepper %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: sample %d diverged: meter=%+v stepper=%+v", trial, i, got[i], want[i])
			}
		}
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Fatalf("trial %d: counter-track export diverged:\nmeter: %s\nstepper: %s", trial, gotTrace, wantTrace)
		}
	}
}

// TestSampleReadsEveryEventAtItsInstant pins the tie rule: the sample at t
// reads the current after every event at t, however late that event was
// queued. Two steps land on sample instants: one queued 5 µs before the
// instant it lands on, a quarter of the 20 µs period, and one at the Start
// instant, caused by an event dispatched after Start.
func TestSampleReadsEveryEventAtItsInstant(t *testing.T) {
	s := sim.New()
	s.RunUntil(sim.Millisecond)
	start := s.Now()
	p := wave(s, 0.010)
	m := New(s, p, DefaultSampleRate)
	m.Start()
	s.DoAt(start, func() { p.Set(0.100) })
	late := start + 100*sim.Microsecond
	s.DoAt(late-5*sim.Microsecond, func() {
		s.DoAt(late, func() { p.Set(0.180) })
	})
	s.RunUntil(start + sim.Millisecond)
	m.Stop()
	for _, c := range []struct {
		what string
		i    int
		want units.Amps
	}{
		{"the Start instant", 0, 0.100},
		{"the sample before the late step", 4, 0.100},
		{"the late step's instant", 5, 0.180},
	} {
		if got := m.Samples[c.i]; got.Current != c.want {
			t.Errorf("sample %d at %v (%s) reads %v, want %v", c.i, got.At, c.what, got.Current, c.want)
		}
	}
	if got := m.Samples[5].At; got != late {
		t.Fatalf("sample 5 at %v, want %v", got, late)
	}
}

// TestChargeWithinRectangleBound is the rectangle bound as a property over
// random step histories at the three rates: a sample reads a step less
// than one period after it, so a step of ΔI moves the meter's integral by
// at most |ΔI|·period, and |meter − recorder| ≤ Σ|ΔI|·period. The bound
// gets 1e-12 of the exact charge on top for float rounding.
func TestChargeWithinRectangleBound(t *testing.T) {
	for trial := int64(0); trial < 60; trial++ {
		rng := rand.New(rand.NewSource(trial*3571 + 11))
		rate := []int{50_000, 10_000, 1_000}[trial%3]
		period := time.Second / time.Duration(rate)
		window := sim.Time(1+rng.Int63n(200)) * sim.Millisecond
		m, p, _ := runMeter(t, makeChangeProgram(rng, window, period), window, rate)

		steps := p.Steps()
		var swing units.Amps
		for i := 1; i < len(steps); i++ {
			d := steps[i].Current - steps[i-1].Current
			swing += max(d, -d)
		}
		exact := p.Charge()
		bound := units.Charge(swing, period) + units.Scale(exact, 1e-12)
		if diff := m.Charge(0, window) - exact; diff > bound || -diff > bound {
			t.Fatalf("trial %d (%d Sa/s, %v): meter − recorder = %v C, over the bound %v C", trial, rate, window, diff, bound)
		}
	}
}

// chargeSamples is the per-sample rectangle rule the step integral must
// reproduce: each sample holds its reading until the next sample (the last
// until t1), clipped to [t0, t1].
func chargeSamples(samples []Sample, t0, t1 sim.Time) units.Coulombs {
	var total units.Coulombs
	for i, s := range samples {
		if s.At >= t1 {
			break
		}
		end := t1
		if i+1 < len(samples) && samples[i+1].At < t1 {
			end = samples[i+1].At
		}
		start := s.At
		if start < t0 {
			start = t0
		}
		if end > start {
			total += units.Charge(s.Current, end.Sub(start))
		}
	}
	return total
}

// TestChargePlateausMatchesChargeSamples pins the integral over the
// meter's steps to the per-sample rectangle rule over random integration
// windows, including windows clipping a step's interior and boundaries.
func TestChargePlateausMatchesChargeSamples(t *testing.T) {
	for trial := int64(0); trial < 20; trial++ {
		rng := rand.New(rand.NewSource(trial*7907 + 5))
		rate := 10_000
		period := time.Second / time.Duration(rate)
		window := sim.Time(1+rng.Int63n(100)) * sim.Millisecond
		changes := makeChangeProgram(rng, window, period)

		m, _, _ := runMeter(t, changes, window, rate)
		samples := m.Samples

		for q := 0; q < 50; q++ {
			t0 := sim.Time(rng.Int63n(int64(window)))
			t1 := sim.Time(rng.Int63n(int64(window)))
			if t1 < t0 {
				t0, t1 = t1, t0
			}
			got := float64(m.Charge(t0, t1))
			want := float64(chargeSamples(samples, t0, t1))
			tol := math.Max(math.Abs(want)*1e-12, 1e-18)
			if math.Abs(got-want) > tol {
				t.Fatalf("trial %d: Charge(%v, %v): steps=%v samples=%v (diff %g)",
					trial, t0, t1, got, want, got-want)
			}
		}
		// Whole-window and out-of-range queries.
		if got, want := float64(m.Charge(0, window)), float64(chargeSamples(samples, 0, window)); math.Abs(got-want) > math.Abs(want)*1e-12 {
			t.Fatalf("trial %d: full-window charge diverged: steps=%v samples=%v", trial, got, want)
		}
		if got := float64(m.Charge(window, window.Add(time.Second))); got != float64(chargeSamples(samples, window, window.Add(time.Second))) {
			t.Fatalf("trial %d: past-end charge diverged", trial)
		}
	}
}

// TestPlateauQueriesMatchSamples pins the queries that read the meter's
// steps — Walk and the CSV export — to the same queries over the
// materialized samples, across randomized waveforms.
func TestPlateauQueriesMatchSamples(t *testing.T) {
	for trial := int64(0); trial < 20; trial++ {
		rng := rand.New(rand.NewSource(trial*6151 + 3))
		rate := []int{50_000, 10_000, 1_000}[rng.Intn(3)]
		period := time.Second / time.Duration(rate)
		window := sim.Time(1+rng.Int63n(100)) * sim.Millisecond
		m, _, _ := runMeter(t, makeChangeProgram(rng, window, period), window, rate)
		samples := m.Samples

		var walked []Sample
		m.Walk(func(s Sample) bool { walked = append(walked, s); return true })
		if !slices.Equal(walked, samples) {
			t.Fatalf("trial %d: Walk visited %d samples, Samples holds %d, or their values differ", trial, len(walked), len(samples))
		}
		stopped := 0
		m.Walk(func(Sample) bool { stopped++; return stopped < 3 })
		if stopped != min(3, len(samples)) {
			t.Fatalf("trial %d: Walk went on for %d samples after visit returned false at the third", trial, stopped)
		}

		var got, want bytes.Buffer
		if err := m.WriteCSV(&got, nil); err != nil {
			t.Fatal(err)
		}
		want.WriteString("time_s,current_mA\n")
		for _, s := range samples {
			fmt.Fprintf(&want, "%.6f,%.4f\n", s.At.Seconds(), s.Current.Milli())
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d: CSV export differs from the samples' rows", trial)
		}
	}
}

// TestPlateauMergeCompression checks the meter's step record actually
// stays compact on a constant waveform rather than silently degenerating
// to one step per sample: one device step, one meter step.
func TestPlateauMergeCompression(t *testing.T) {
	s := sim.New()
	p := wave(s, 0.042)
	m := New(s, p, 50_000)
	m.Start()
	s.RunUntil(sim.Time(2) * sim.Second)
	m.Stop()
	if len(m.Samples) < 100_000 {
		t.Fatalf("materialized %d samples, want >= 100000", len(m.Samples))
	}
	if len(m.steps) != 1 {
		t.Fatalf("constant 2 s waveform produced %d steps, want 1", len(m.steps))
	}
}
