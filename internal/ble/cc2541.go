package ble

import (
	"time"

	"wile/internal/energy"
	"wile/internal/sim"
	"wile/internal/units"
)

// CC2541 power model.
//
// The paper does not use the ESP32's own BLE radio ("their Bluetooth
// implementation is inefficient in terms of power consumption") but the
// TI CC2541, quoting the manufacturer's measurement report [15]
// (swra347a, "Measuring Bluetooth Low Energy Power Consumption"). That
// report decomposes one connection event into the phase sequence modeled
// here; the phase durations and currents below follow the report's
// waveform, trimmed so the integral lands on the paper's Table 1 value of
// 71 µJ per packet at 3 V.

// CC2541Voltage is the coin-cell supply voltage of the TI reference
// measurement.
const CC2541Voltage = units.Volts(3.0)

// CC2541SleepCurrent is the between-events sleep current with the
// 32.768 kHz sleep oscillator running (Table 1: 1.1 µA idle).
const CC2541SleepCurrent = units.Amps(1.1e-6)

// connectionEvent is the swra347a phase decomposition of one slave
// connection event (wake → pre-processing → radio prep → RX master packet
// → turnaround → TX our data packet → post-processing).
var connectionEvent = []energy.Segment{
	{Label: "wake-up", D: 400 * time.Microsecond, Current: units.Amps(6.0e-3)},
	{Label: "pre-processing", D: 340 * time.Microsecond, Current: units.Amps(7.4e-3)},
	{Label: "pre-rx", D: 352 * time.Microsecond, Current: units.Amps(11.0e-3)},
	{Label: "rx", D: 190 * time.Microsecond, Current: units.Amps(17.5e-3)},
	{Label: "rx-tx-transition", D: 105 * time.Microsecond, Current: units.Amps(7.4e-3)},
	{Label: "tx", D: 115 * time.Microsecond, Current: units.Amps(18.2e-3)},
	{Label: "post-processing", D: 1190 * time.Microsecond, Current: units.Amps(7.4e-3)},
}

// ConnectionEventDuration is how long one connection event keeps the chip
// awake.
func ConnectionEventDuration() time.Duration { return energy.ProfileDuration(connectionEvent) }

// ConnectionEventEnergy integrates one event's energy — the BLE "energy
// per packet" of Table 1.
func ConnectionEventEnergy() units.Joules {
	return energy.ProfileCharge(connectionEvent).Energy(CC2541Voltage)
}

// Device is a simulated CC2541 slave: it sleeps at CC2541SleepCurrent and
// plays a connection event per transmission on the same waveform recorder
// as the esp32 model (piecewise-constant current, exact charge integral).
type Device struct {
	*energy.Recorder
}

// NewDevice builds a sleeping CC2541.
func NewDevice(sched *sim.Scheduler) *Device {
	return &Device{Recorder: energy.NewRecorder(sched, sleepCurrent, nil)}
}

func sleepCurrent() units.Amps { return CC2541SleepCurrent }

// Energy reports the exact energy drawn since construction.
func (d *Device) Energy() units.Joules { return d.Charge().Energy(CC2541Voltage) }

// PlayConnectionEvent runs one slave connection event, then returns to
// sleep and calls done.
func (d *Device) PlayConnectionEvent(done func()) { d.Play(connectionEvent, done) }
