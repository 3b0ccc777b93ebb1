// Package units defines the dimensioned value types the energy pipeline
// is built from. The paper's headline claim is a 13 µJ delta (84 µJ Wi-LE
// vs 71 µJ BLE per message), so a silent µJ-vs-mJ or mA-vs-µA mix-up
// anywhere in the integration invalidates the reproduction. Each quantity
// is a distinct named float64 — cross-unit arithmetic does not compile,
// and the checked helpers below (Power, Energy, Charge, ...) are the only
// sanctioned ways to move between dimensions.
//
// Constructors divide by an exactly-representable power of ten
// (MicroAmps(2.5) == Amps(2.5e-6) bit-for-bit), and the Micro/Milli
// accessors multiply by the same factor, so migrating a literal through a
// constructor never perturbs a golden trace or an exact-equality test.
//
// The unitsafety analyzer (internal/analysis) treats this package as the
// unit home: outside it, bare numeric literals may not become unit-typed
// values, same-unit multiplication/division is flagged (use Ratio), and
// bare-float64 fields or parameters with unit-suffixed names (*J, *A,
// *MAh, ...) are rejected.
package units

import (
	"fmt"
	"math"
	"time"
)

// The guarded quantity types. All are defined types over float64 in SI
// base units (joules, watts, amperes, volts, coulombs, ohms, farads);
// AmpHours is the one non-SI carrier because battery datasheets quote
// capacity in mAh.
type (
	// Joules is an energy in joules.
	Joules float64
	// Watts is a power in watts.
	Watts float64
	// Amps is a current in amperes.
	Amps float64
	// Volts is an electric potential in volts.
	Volts float64
	// Coulombs is an electric charge in coulombs (ampere-seconds).
	Coulombs float64
	// AmpHours is a battery capacity in ampere-hours.
	AmpHours float64
	// Ohms is a resistance in ohms.
	Ohms float64
	// Farads is a capacitance in farads.
	Farads float64
)

// MicroJoules builds an energy from a µJ magnitude: MicroJoules(84) is the
// paper's Wi-LE per-message cost.
func MicroJoules(x float64) Joules { return Joules(x / 1e6) }

// MilliJoules builds an energy from a mJ magnitude.
func MilliJoules(x float64) Joules { return Joules(x / 1e3) }

// MicroAmps builds a current from a µA magnitude: MicroAmps(2.5) is the
// ESP32 deep-sleep floor.
func MicroAmps(x float64) Amps { return Amps(x / 1e6) }

// MilliAmps builds a current from a mA magnitude.
func MilliAmps(x float64) Amps { return Amps(x / 1e3) }

// MicroWatts builds a power from a µW magnitude.
func MicroWatts(x float64) Watts { return Watts(x / 1e6) }

// MilliWatts builds a power from a mW magnitude.
func MilliWatts(x float64) Watts { return Watts(x / 1e3) }

// MilliAmpHours builds a capacity from the mAh figure on a battery
// datasheet: MilliAmpHours(225) is a CR2032 coin cell.
func MilliAmpHours(x float64) AmpHours { return AmpHours(x / 1e3) }

// Micro reports the energy in µJ.
func (j Joules) Micro() float64 { return float64(j) * 1e6 }

// Milli reports the energy in mJ.
func (j Joules) Milli() float64 { return float64(j) * 1e3 }

// Micro reports the current in µA.
func (a Amps) Micro() float64 { return float64(a) * 1e6 }

// Milli reports the current in mA.
func (a Amps) Milli() float64 { return float64(a) * 1e3 }

// Micro reports the power in µW.
func (w Watts) Micro() float64 { return float64(w) * 1e6 }

// Milli reports the power in mW.
func (w Watts) Milli() float64 { return float64(w) * 1e3 }

// Milli reports the capacity in mAh.
func (ah AmpHours) Milli() float64 { return float64(ah) * 1e3 }

// Micro reports the capacitance in µF.
func (f Farads) Micro() float64 { return float64(f) * 1e6 }

// Power is P = V·I.
func Power(v Volts, a Amps) Watts { return Watts(float64(v) * float64(a)) }

// Energy is E = P·t.
func Energy(p Watts, d time.Duration) Joules { return Joules(float64(p) * d.Seconds()) }

// Charge is Q = I·t.
func Charge(a Amps, d time.Duration) Coulombs { return Coulombs(float64(a) * d.Seconds()) }

// Energy is E = Q·V: the energy a charge integral represents at a supply
// voltage.
func (c Coulombs) Energy(v Volts) Joules { return Joules(float64(c) * float64(v)) }

// Energy is the energy a full battery of this capacity stores at its
// nominal voltage (1 Ah at 1 V is 3600 J).
func (ah AmpHours) Energy(v Volts) Joules { return Joules(float64(ah) * 3600 * float64(v)) }

// MeanCurrent is I = Q/t: the average current behind a charge integral.
func MeanCurrent(c Coulombs, d time.Duration) Amps { return Amps(float64(c) / d.Seconds()) }

// AveragePower is P = E/t.
func AveragePower(e Joules, d time.Duration) Watts { return Watts(float64(e) / d.Seconds()) }

// IRDrop is V = I·R: the terminal-voltage sag a load current causes
// across an internal resistance.
func IRDrop(a Amps, r Ohms) Volts { return Volts(float64(a) * float64(r)) }

// MinCapacitance sizes the bulk capacitor that keeps the rail above minV
// while supplying load for d, starting from startV. +Inf when startV does
// not exceed minV: no capacitor is large enough.
func MinCapacitance(startV, minV Volts, load Amps, d time.Duration) Farads {
	if startV <= minV {
		return Farads(math.Inf(1))
	}
	return Farads(float64(load) * d.Seconds() / float64(startV-minV))
}

// BatteryLife is t = E/P, saturating at the time.Duration ceiling (~292
// years) instead of overflowing: a 2.5 µA sleeper on a fat battery
// legitimately computes lifetimes beyond int64 nanoseconds.
func BatteryLife(e Joules, p Watts) time.Duration {
	if p <= 0 {
		return time.Duration(1<<63 - 1)
	}
	seconds := float64(e) / float64(p)
	const maxSec = float64(1<<63-1) / float64(time.Second)
	if seconds > maxSec {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(seconds * float64(time.Second))
}

// Scale multiplies a quantity by a dimensionless factor, for lerp-style
// math (plot thresholds, duty cycles) that cross-type arithmetic rules
// would otherwise reject.
func Scale[T ~float64](x T, k float64) T { return T(float64(x) * k) }

// Ratio is the dimensionless quotient of two like quantities — the
// sanctioned spelling for energy errors and duty cycles (same-unit
// division is flagged by unitsafety).
func Ratio[T ~float64](a, b T) float64 { return float64(a) / float64(b) }

// String renders the energy with the unit Table 1 uses (µJ, mJ or J),
// choosing the scale by magnitude so negative values keep their natural
// unit (-0.5 µJ, not -500000.0 µJ... or a µJ rendering of -0.5 J).
func (j Joules) String() string {
	switch abs := math.Abs(float64(j)); {
	case abs < 1e-3:
		return fmt.Sprintf("%.1f µJ", float64(j)*1e6)
	case abs < 1:
		return fmt.Sprintf("%.1f mJ", float64(j)*1e3)
	default:
		return fmt.Sprintf("%.2f J", float64(j))
	}
}

// String renders the current in µA, mA or A, scaled by magnitude.
func (a Amps) String() string {
	switch abs := math.Abs(float64(a)); {
	case abs < 1e-3:
		return fmt.Sprintf("%.1f µA", float64(a)*1e6)
	case abs < 1:
		return fmt.Sprintf("%.1f mA", float64(a)*1e3)
	default:
		return fmt.Sprintf("%.2f A", float64(a))
	}
}

// String renders the power in µW, mW or W, scaled by magnitude.
func (w Watts) String() string {
	switch abs := math.Abs(float64(w)); {
	case abs < 1e-3:
		return fmt.Sprintf("%.2f µW", float64(w)*1e6)
	case abs < 1:
		return fmt.Sprintf("%.2f mW", float64(w)*1e3)
	default:
		return fmt.Sprintf("%.2f W", float64(w))
	}
}
