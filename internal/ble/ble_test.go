package ble

import (
	"math"
	"testing"
	"time"

	"wile/internal/sim"
	"wile/internal/units"
)

func TestConnectionEventEnergyMatchesTable1(t *testing.T) {
	// Paper Table 1: BLE energy/packet = 71 µJ.
	got := ConnectionEventEnergy()
	if math.Abs(float64(got)-71e-6) > 71e-6*0.05 {
		t.Fatalf("connection event energy = %.1f µJ, want 71 µJ ±5%%", got.Micro())
	}
	// And the event is single-digit milliseconds, as in the app note.
	if d := ConnectionEventDuration(); d < time.Millisecond || d > 5*time.Millisecond {
		t.Fatalf("connection event duration = %v", d)
	}
}

// current is d's draw now: the current of the last step of its history.
func current(d *Device) units.Amps {
	steps := d.Steps()
	return steps[len(steps)-1].Current
}

func TestDeviceSleepsAtTableIdleCurrent(t *testing.T) {
	s := sim.New()
	d := NewDevice(s)
	if current(d) != CC2541SleepCurrent {
		t.Fatalf("sleep current = %v", current(d))
	}
	s.RunUntil(10 * sim.Second)
	want := 10 * float64(CC2541SleepCurrent)
	if got := float64(d.Charge()); math.Abs(got-want) > want*1e-6 {
		t.Fatalf("10 s sleep charge = %v, want %v", got, want)
	}
}

func TestPlayConnectionEventEnergy(t *testing.T) {
	s := sim.New()
	d := NewDevice(s)
	finished := false
	d.PlayConnectionEvent(func() { finished = true })
	s.Run()
	if !finished {
		t.Fatal("event never completed")
	}
	if current(d) != CC2541SleepCurrent {
		t.Fatal("device not back asleep")
	}
	got := float64(d.Energy())
	want := float64(ConnectionEventEnergy())
	if math.Abs(got-want) > want*0.01 {
		t.Fatalf("device energy %v, analytic %v", got, want)
	}
}
