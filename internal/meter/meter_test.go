package meter

import (
	"math"
	"strings"
	"testing"
	"time"

	"wile/internal/energy"
	"wile/internal/sim"
	"wile/internal/units"
)

// wave is a probe whose current the test sets from events: the step
// history a device keeps, without the device.
func wave(s *sim.Scheduler, a units.Amps) *energy.Recorder {
	return energy.NewRecorder(s, func() units.Amps { return a }, nil)
}

func TestSamplingRateAndCount(t *testing.T) {
	s := sim.New()
	p := wave(s, 0.1)
	m := New(s, p, DefaultSampleRate)
	m.Start()
	s.RunUntil(sim.Time(100) * sim.Millisecond)
	m.Stop()
	// 100 ms at 50 kSa/s = 5000 samples (+1 for the t=0 sample).
	if got := len(m.Samples); got < 5000 || got > 5001 {
		t.Fatalf("collected %d samples, want ≈5000", got)
	}
	// Uniform spacing of 20 µs.
	for i := 1; i < 100; i++ {
		if d := m.Samples[i].At - m.Samples[i-1].At; d != 20*sim.Microsecond {
			t.Fatalf("sample spacing %v", d)
		}
	}
}

func TestChargeIntegrationConstantCurrent(t *testing.T) {
	s := sim.New()
	p := wave(s, 0.05)
	m := New(s, p, 10_000)
	m.Start()
	s.RunUntil(sim.Second)
	m.Stop()
	got := float64(m.Charge(0, sim.Second))
	if math.Abs(got-0.05) > 0.05*0.001 {
		t.Fatalf("charge = %v C, want 0.05", got)
	}
	if mean := float64(units.MeanCurrent(m.Charge(0, sim.Second), time.Second)); math.Abs(mean-0.05) > 1e-6 {
		t.Fatalf("mean = %v", mean)
	}
	if e := float64(m.Energy(0, sim.Second, units.Volts(3.3))); math.Abs(e-0.05*3.3) > 0.001 {
		t.Fatalf("energy = %v", e)
	}
}

func TestChargeIntegrationStepChange(t *testing.T) {
	s := sim.New()
	p := wave(s, 0.01)
	m := New(s, p, 10_000)
	m.Start()
	s.After(500*time.Millisecond, func() { p.Set(0.03) })
	s.RunUntil(sim.Second)
	m.Stop()
	want := 0.01*0.5 + 0.03*0.5
	got := float64(m.Charge(0, sim.Second))
	if math.Abs(got-want) > want*0.001 {
		t.Fatalf("charge = %v, want %v", got, want)
	}
	// Sub-window integration.
	first := float64(m.Charge(0, 500*sim.Millisecond))
	if math.Abs(first-0.005) > 0.005*0.01 {
		t.Fatalf("first half charge = %v", first)
	}
}

func TestPeakCurrent(t *testing.T) {
	s := sim.New()
	p := wave(s, 0.001)
	m := New(s, p, 50_000)
	m.Start()
	s.After(10*time.Millisecond, func() { p.Set(0.18) })
	s.After(11*time.Millisecond, func() { p.Set(0.001) })
	s.RunUntil(20 * sim.Millisecond)
	m.Stop()
	peak := func(t0, t1 sim.Time) units.Amps {
		var a units.Amps
		for _, s := range m.Samples {
			if s.At >= t0 && s.At < t1 {
				a = max(a, s.Current)
			}
		}
		return a
	}
	if peak := peak(0, 20*sim.Millisecond); peak != units.Amps(0.18) {
		t.Fatalf("peak = %v", peak)
	}
	if peak := peak(12*sim.Millisecond, 20*sim.Millisecond); peak != units.Amps(0.001) {
		t.Fatalf("post-burst peak = %v", peak)
	}
}

func TestStopActuallyStops(t *testing.T) {
	s := sim.New()
	p := wave(s, 0)
	m := New(s, p, 1000)
	m.Start()
	// The meter reads the step history at Stop: it schedules nothing.
	if n := s.Pending(); n != 0 {
		t.Fatalf("Start left %d events pending, want 0", n)
	}
	s.RunUntil(10 * sim.Millisecond)
	m.Stop()
	if n := s.Fired(); n != 0 {
		t.Fatalf("a metered run with no other event fired %d events, want 0", n)
	}
	n := len(m.Samples)
	s.RunUntil(sim.Second)
	if len(m.Samples) != n {
		t.Fatalf("meter kept sampling after Stop: %d → %d", n, len(m.Samples))
	}
	// Idempotent start/stop.
	m.Start()
	m.Start()
	s.RunUntil(sim.Second + 10*sim.Millisecond)
	m.Stop()
	m.Stop()
}

func TestWriteCSV(t *testing.T) {
	s := sim.New()
	p := wave(s, 0.0025)
	m := New(s, p, 1000)
	m.Start()
	s.RunUntil(2 * sim.Millisecond)
	m.Stop()
	var sb strings.Builder
	err := m.WriteCSV(&sb, []energy.Mark{{At: sim.Millisecond, Label: "Tx"}})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "# Tx at 0.001000 s\n") {
		t.Fatalf("missing annotation header:\n%s", out)
	}
	if !strings.Contains(out, "time_s,current_mA") {
		t.Fatal("missing CSV header")
	}
	if !strings.Contains(out, "0.000000,2.5000") {
		t.Fatalf("missing first sample row:\n%s", out)
	}
}

func TestInvalidRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate did not panic")
		}
	}()
	s := sim.New()
	New(s, wave(s, 0), 0)
}

func TestReservePreallocatesTraceCapacity(t *testing.T) {
	s := sim.New()
	m := New(s, wave(s, 0.01), DefaultSampleRate)
	window := 100 * time.Millisecond
	m.Reserve(window)
	if got, want := cap(m.Samples), 5000; got < want {
		t.Fatalf("Reserve(%v) capacity %d, want >= %d", window, got, want)
	}
	before := cap(m.Samples)
	m.Start()
	s.RunUntil(sim.FromDuration(window))
	m.Stop()
	if cap(m.Samples) != before {
		t.Fatalf("sampling within the reserved window reallocated: cap %d -> %d", before, cap(m.Samples))
	}
	if len(m.Samples) < 5000 {
		t.Fatalf("collected %d samples, want >= 5000", len(m.Samples))
	}
	// Reserving again with room to spare must be a no-op, and a
	// non-positive window must not panic.
	m.Reserve(0)
	m.Reserve(-time.Second)
}
