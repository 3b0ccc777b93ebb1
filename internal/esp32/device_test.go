package esp32

import (
	"math"
	"reflect"
	"testing"
	"time"

	"wile/internal/energy"
	"wile/internal/sim"
	"wile/internal/units"
)

func TestStateCurrentsMatchPaper(t *testing.T) {
	// Table 1 idle currents and §5.1 figures.
	cases := map[State]units.Amps{
		StateDeepSleep:   units.Amps(2.5e-6),
		StateLightSleep:  units.Amps(0.8e-3),
		StateWiFiPSIdle:  units.Amps(4.5e-3),
		StateCPUActive:   units.Amps(30e-3),
		StateNetworkWait: units.Amps(20e-3),
		StateRadioListen: units.Amps(100e-3),
	}
	for s, want := range cases {
		if got := StateCurrent(s); got != want {
			t.Errorf("%v current = %v, want %v", s, got, want)
		}
	}
}

// current is d's draw now: the current of the last step of its history.
func current(d *Device) units.Amps {
	steps := d.Steps()
	return steps[len(steps)-1].Current
}

func TestDeviceStartsInDeepSleep(t *testing.T) {
	s := sim.New()
	d := New(s)
	if d.GetState() != StateDeepSleep {
		t.Fatalf("initial state %v", d.GetState())
	}
	if current(d) != units.Amps(2.5e-6) {
		t.Fatalf("initial current %v", current(d))
	}
}

func TestChargeIntegralExact(t *testing.T) {
	s := sim.New()
	d := New(s)
	// 1 s deep sleep + 1 s CPU active + 1 s deep sleep.
	s.After(time.Second, func() { d.SetState(StateCPUActive) })
	s.After(2*time.Second, func() { d.SetState(StateDeepSleep) })
	s.RunUntil(3 * sim.Second)
	want := 2.5e-6*2 + 30e-3*1
	if got := float64(d.Charge()); math.Abs(got-want) > 1e-12 {
		t.Fatalf("charge = %v C, want %v", got, want)
	}
	if got := float64(d.Energy()); math.Abs(got-want*float64(Voltage)) > 1e-12 {
		t.Fatalf("energy = %v J", got)
	}
}

func TestTxBurstOverridesState(t *testing.T) {
	s := sim.New()
	d := New(s)
	d.SetState(StateRadioListen)
	d.RadioTx(60 * time.Microsecond)
	if current(d) != TxBurstCurrent {
		t.Fatalf("current during burst = %v", current(d))
	}
	s.Run()
	if current(d) != StateCurrent(StateRadioListen) {
		t.Fatalf("current after burst = %v", current(d))
	}
	// Energy of the burst window is (ramp+airtime) at TX current.
	want := float64(units.Charge(TxBurstCurrent, TxRampUp+60*time.Microsecond))
	got := float64(d.Charge()) // burst started at t=0
	if math.Abs(got-want) > want*0.01 {
		t.Fatalf("burst charge = %v, want ≈%v", got, want)
	}
}

func TestOverlappingTxBurstsExtend(t *testing.T) {
	s := sim.New()
	d := New(s)
	d.SetState(StateRadioListen)
	d.RadioTx(100 * time.Microsecond)
	s.After(50*time.Microsecond, func() { d.RadioTx(100 * time.Microsecond) })
	s.Run()
	if current(d) != StateCurrent(StateRadioListen) {
		t.Fatalf("current after overlapping bursts = %v", current(d))
	}
	// Union of the two windows: 50µs offset + ramp+100µs = ramp+150µs total.
	want := float64(units.Charge(TxBurstCurrent, TxRampUp+150*time.Microsecond))
	if got := float64(d.Charge()); math.Abs(got-want) > want*0.01 {
		t.Fatalf("charge = %v, want ≈%v", got, want)
	}
}

func TestStateChangeDuringBurstDefersToBurst(t *testing.T) {
	s := sim.New()
	d := New(s)
	d.SetState(StateRadioListen)
	d.RadioTx(200 * time.Microsecond)
	s.After(50*time.Microsecond, func() { d.SetState(StateDeepSleep) })
	s.RunUntil(sim.Time(50) * sim.Microsecond)
	if current(d) != TxBurstCurrent {
		t.Fatal("state change mid-burst dropped the TX current")
	}
	s.Run()
	if current(d) != StateCurrent(StateDeepSleep) {
		t.Fatalf("post-burst current %v, want deep sleep", current(d))
	}
}

func TestStepsRecordWaveform(t *testing.T) {
	s := sim.New()
	d := New(s)
	s.After(time.Second, func() { d.SetState(StateCPUActive) })
	s.After(2*time.Second, func() { d.SetState(StateDeepSleep) })
	s.RunUntil(3 * sim.Second)
	steps := d.Steps()
	if len(steps) != 3 {
		t.Fatalf("%d steps, want 3", len(steps))
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].At <= steps[i-1].At {
			t.Fatal("steps not strictly ordered")
		}
		if steps[i].Current == steps[i-1].Current {
			t.Fatal("redundant step recorded")
		}
	}
}

func TestPlaySegments(t *testing.T) {
	s := sim.New()
	d := New(s)
	done := false
	d.PlaySegments(BootWiFi(), func() { done = true })
	s.Run()
	if !done {
		t.Fatal("done callback never ran")
	}
	if s.Now() != sim.FromDuration(energy.ProfileDuration(BootWiFi())) {
		t.Fatalf("boot took %v, want %v", s.Now(), energy.ProfileDuration(BootWiFi()))
	}
	// After the profile the device returns to its state current.
	if current(d) != StateCurrent(StateDeepSleep) {
		t.Fatalf("post-profile current %v", current(d))
	}
	if len(d.Marks()) == 0 || d.Marks()[0].Label != "MC/WiFi init" {
		t.Fatalf("marks = %+v", d.Marks())
	}
}

func TestBootProfilesMatchFigure3Durations(t *testing.T) {
	// Figure 3a: MCU/WiFi init runs 0.2 s → 0.85 s ⇒ 650 ms.
	if got := energy.ProfileDuration(BootWiFi()); got != 650*time.Millisecond {
		t.Errorf("WiFi boot = %v, want 650ms", got)
	}
	// Figure 3b: Wi-LE init is visibly shorter (§5.2 "this step is
	// shorter when compared with the WiFi case").
	if energy.ProfileDuration(BootWiLE()) >= energy.ProfileDuration(BootWiFi()) {
		t.Error("Wi-LE boot not shorter than WiFi boot")
	}
}

func TestMarkPhase(t *testing.T) {
	s := sim.New()
	d := New(s)
	s.After(time.Second, func() { d.MarkPhase("Tx") })
	s.Run()
	marks := d.Marks()
	if len(marks) != 1 || marks[0].Label != "Tx" || marks[0].At != sim.Second {
		t.Fatalf("marks = %+v", marks)
	}
}

// A profile's labeled boundary is applied lazily, so MarkPhase must apply
// it first: with no read between the boundary and the mark, the marks
// still come out in time order.
func TestMarkPhaseFollowsLabeledBoundary(t *testing.T) {
	s := sim.New()
	d := New(s)
	d.PlaySegments([]energy.Segment{
		{D: 2 * time.Millisecond, Current: units.MilliAmps(40), Label: "A"},
		{D: 3 * time.Millisecond, Current: units.MilliAmps(70), Label: "B"},
		{D: 5 * time.Millisecond, Current: units.MilliAmps(35)},
	}, nil)
	s.After(4*time.Millisecond, func() { d.MarkPhase("X") })
	s.Run()
	want := []energy.Mark{{At: 0, Label: "A"}, {At: 2 * sim.Millisecond, Label: "B"}, {At: 4 * sim.Millisecond, Label: "X"}}
	if got := d.Marks(); !reflect.DeepEqual(got, want) {
		t.Fatalf("marks = %+v, want %+v", got, want)
	}
}

func TestStateStringsTotal(t *testing.T) {
	for _, s := range []State{StateDeepSleep, StateLightSleep, StateWiFiPSIdle,
		StateCPUActive, StateNetworkWait, StateRadioListen} {
		if s.String() == "" {
			t.Errorf("state %d has empty name", s)
		}
	}
}

func TestUnknownStatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown state did not panic")
		}
	}()
	StateCurrent(State(99))
}
