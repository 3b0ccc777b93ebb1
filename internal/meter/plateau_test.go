package meter

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"wile/internal/obs"
	"wile/internal/sim"
	"wile/internal/units"
)

// currentChange is one scheduled probe step in a random waveform program.
type currentChange struct {
	at  sim.Time
	val units.Amps
}

// makeChangeProgram builds a random piecewise-constant waveform: current
// steps at random instants, some aligned exactly on sample boundaries,
// some repeating the previous value (so the meter's plateau merging and
// the counter feed's change-dedup both get exercised).
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
		changes = append(changes, currentChange{at: at, val: levels[rng.Intn(len(levels))]})
	}
	return changes
}

// runPlateauMeter drives the program through the real (plateau-batched)
// Meter and returns its materialized samples, its Chrome-trace counter
// feed, and the meter itself for Charge queries.
func runPlateauMeter(t *testing.T, changes []currentChange, window sim.Time, rate int) (*Meter, []Sample, []byte) {
	t.Helper()
	s := sim.New()
	p := &rampProbe{a: 0.5}
	m := New(s, p, rate)
	rec := obs.NewRecorder()
	m.TraceTo(rec, rec.Track("current_mA"))
	for _, c := range changes {
		c := c
		s.DoAt(c.at, func() { p.a = c.val })
	}
	m.Start()
	s.RunUntil(window)
	m.Stop()
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return m, m.Samples, buf.Bytes()
}

// runStepperReference replays the identical program through a per-sample
// reference stepper: a self-rearming event chain that appends one sample
// per tick and feeds the counter track with the same on-change dedup the
// meter documents. This is the pre-plateau implementation, inlined as the
// oracle.
func runStepperReference(t *testing.T, changes []currentChange, window sim.Time, rate int) ([]Sample, []byte) {
	t.Helper()
	s := sim.New()
	p := &rampProbe{a: 0.5}
	period := time.Second / time.Duration(rate)
	rec := obs.NewRecorder()
	track := rec.Track("current_mA")
	var samples []Sample
	lastTraced := units.Amps(-1)
	observe := func(at sim.Time) {
		a := p.Current()
		if a != lastTraced {
			lastTraced = a
			rec.Counter(track, at, a.Milli())
		}
		samples = append(samples, Sample{At: at, Current: a})
	}
	for _, c := range changes {
		c := c
		s.DoAt(c.at, func() { p.a = c.val })
	}
	// Meter.Start: immediate first sample, then one event per period.
	observe(s.Now())
	var arm func(at sim.Time)
	arm = func(at sim.Time) {
		s.At(at, func() {
			observe(at)
			arm(at.Add(period))
		})
	}
	arm(s.Now().Add(period))
	s.RunUntil(window)
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return samples, buf.Bytes()
}

// TestPlateauMatchesStepper is the equivalence property test pinning the
// plateau-batched meter to the per-sample stepper it replaced: identical
// samples (value and timestamp, sample for sample) and a byte-identical
// counter-track export, across randomized waveforms.
func TestPlateauMatchesStepper(t *testing.T) {
	for trial := int64(0); trial < 30; trial++ {
		rng := rand.New(rand.NewSource(trial*104729 + 13))
		rate := []int{50_000, 10_000, 1_000}[rng.Intn(3)]
		period := time.Second / time.Duration(rate)
		window := sim.Time(1+rng.Int63n(200)) * sim.Millisecond
		changes := makeChangeProgram(rng, window, period)

		_, got, gotTrace := runPlateauMeter(t, changes, window, rate)
		want, wantTrace := runStepperReference(t, changes, window, rate)

		if len(got) != len(want) {
			t.Fatalf("trial %d: plateau meter produced %d samples, stepper %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: sample %d diverged: plateau=%+v stepper=%+v", trial, i, got[i], want[i])
			}
		}
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Fatalf("trial %d: counter-track export diverged:\nplateau: %s\nstepper: %s", trial, gotTrace, wantTrace)
		}
	}
}

// chargeSamples is the per-sample rectangle rule the plateau integral must
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

// TestChargePlateausMatchesChargeSamples pins the closed-form plateau
// integration to the per-sample rectangle rule over random integration
// windows, including windows clipping plateau interiors and boundaries.
func TestChargePlateausMatchesChargeSamples(t *testing.T) {
	for trial := int64(0); trial < 20; trial++ {
		rng := rand.New(rand.NewSource(trial*7907 + 5))
		rate := 10_000
		period := time.Second / time.Duration(rate)
		window := sim.Time(1+rng.Int63n(100)) * sim.Millisecond
		changes := makeChangeProgram(rng, window, period)

		m, samples, _ := runPlateauMeter(t, changes, window, rate)

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
				t.Fatalf("trial %d: Charge(%v, %v): plateau=%v samples=%v (diff %g)",
					trial, t0, t1, got, want, got-want)
			}
		}
		// Whole-window and out-of-range queries.
		if got, want := float64(m.Charge(0, window)), float64(chargeSamples(samples, 0, window)); math.Abs(got-want) > math.Abs(want)*1e-12 {
			t.Fatalf("trial %d: full-window charge diverged: plateau=%v samples=%v", trial, got, want)
		}
		if got := float64(m.Charge(window, window.Add(time.Second))); got != float64(chargeSamples(samples, window, window.Add(time.Second))) {
			t.Fatalf("trial %d: past-end charge diverged", trial)
		}
	}
}

// TestPlateauQueriesMatchSamples pins the queries that read the plateau
// record — Walk, PeakCurrent and the CSV export — to the same queries over
// the materialized samples, across randomized waveforms and windows.
func TestPlateauQueriesMatchSamples(t *testing.T) {
	for trial := int64(0); trial < 20; trial++ {
		rng := rand.New(rand.NewSource(trial*6151 + 3))
		rate := []int{50_000, 10_000, 1_000}[rng.Intn(3)]
		period := time.Second / time.Duration(rate)
		window := sim.Time(1+rng.Int63n(100)) * sim.Millisecond
		m, samples, _ := runPlateauMeter(t, makeChangeProgram(rng, window, period), window, rate)

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

		for q := 0; q < 50; q++ {
			t0 := sim.Time(rng.Int63n(int64(window)))
			t1 := sim.Time(rng.Int63n(int64(window)))
			if t1 < t0 {
				t0, t1 = t1, t0
			}
			var want units.Amps
			for _, s := range samples {
				if s.At >= t0 && s.At < t1 && s.Current > want {
					want = s.Current
				}
			}
			if got := m.PeakCurrent(t0, t1); got != want {
				t.Fatalf("trial %d: PeakCurrent(%v, %v) = %v, samples say %v", trial, t0, t1, got, want)
			}
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

// TestPlateauMergeCompression checks the plateau record actually stays
// compact on a constant waveform — the whole point of batching — rather
// than silently degenerating to one plateau per sample.
func TestPlateauMergeCompression(t *testing.T) {
	s := sim.New()
	p := &rampProbe{a: 0.042}
	m := New(s, p, 50_000)
	m.Start()
	s.RunUntil(sim.Time(2) * sim.Second)
	m.Stop()
	if len(m.Samples) < 100_000 {
		t.Fatalf("materialized %d samples, want >= 100000", len(m.Samples))
	}
	if len(m.plateaus) > 4 {
		t.Fatalf("constant 2 s waveform produced %d plateaus, want a handful", len(m.plateaus))
	}
}
