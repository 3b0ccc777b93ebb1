// Package energy holds the paper's energy bookkeeping: the device current
// waveform every energy figure integrates (Recorder, waveform.go), the §5.5
// average power model (Equation 1), battery-life estimation, and
// human-readable formatting for the quantities Table 1 reports. All quantities are
// dimensioned (internal/units); bare float64 appears only at the
// formatting boundary. A scripted current profile (a boot, a BLE
// connection event) costs the scheduler one event, at its end: the
// recorder applies the boundaries inside it when the waveform is next
// read or set.
package energy

import (
	"time"

	"wile/internal/units"
)

// Scenario captures one row of Table 1: the cost of a transmission episode
// and the idle draw between episodes.
type Scenario struct {
	// Name labels the technology ("Wi-LE", "BLE", "WiFi-DC", "WiFi-PS").
	Name string
	// EnergyPerPacket is the energy of one transmission episode,
	// including all per-episode overheads (Ptx·Ttx in Equation 1 terms).
	EnergyPerPacket units.Joules
	// TxDuration is Ttx: how long the episode keeps the device out of its
	// idle state.
	TxDuration time.Duration
	// IdleCurrent is the between-transmissions current.
	IdleCurrent units.Amps
	// Voltage is the supply voltage (3.3 V for the ESP32 scenarios, 3 V
	// for the CC2541 reference).
	Voltage units.Volts
}

// IdlePower reports the idle power draw.
func (s Scenario) IdlePower() units.Watts { return units.Power(s.Voltage, s.IdleCurrent) }

// AveragePower evaluates Equation 1 of the paper:
//
//	Pavg = (1/INT) · (Ptx·Ttx + Pidle·(INT − Ttx))
//
// for a transmission interval INT. Ptx·Ttx is the per-episode energy.
func (s Scenario) AveragePower(interval time.Duration) units.Watts {
	if interval <= 0 {
		panic("energy: non-positive transmission interval")
	}
	idle := interval - s.TxDuration
	if idle < 0 {
		idle = 0
	}
	return units.AveragePower(s.EnergyPerPacket+units.Energy(s.IdlePower(), idle), interval)
}

// BatteryLife estimates how long a battery of the given capacity powers
// the scenario at a transmission interval, saturating at the
// time.Duration ceiling. A CR2032 coin cell is ~225 mAh at 3 V — the
// "small button battery" the paper credits BLE with running on "for over
// a year".
func (s Scenario) BatteryLife(capacity units.AmpHours, interval time.Duration) time.Duration {
	return units.BatteryLife(capacity.Energy(s.Voltage), s.AveragePower(interval))
}

// CR2032Capacity is the nominal capacity of the coin cell used in
// battery-life estimates.
var CR2032Capacity = units.MilliAmpHours(225)

// FormatJoules renders an energy with the unit Table 1 uses (µJ, mJ or
// J). Kept as a free function for call-site symmetry with the other
// formatters; the normalization lives on units.Joules.
func FormatJoules(j units.Joules) string { return j.String() }

// FormatAmps renders a current in µA, mA or A.
func FormatAmps(a units.Amps) string { return a.String() }

// FormatWatts renders a power in µW, mW or W.
func FormatWatts(w units.Watts) string { return w.String() }
