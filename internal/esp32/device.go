// Package esp32 models the evaluation platform of the paper: an ESP32
// WiFi/BLE system-on-chip powered from a clean 3.3 V rail, observed by a
// series ammeter. The model is a piecewise-constant current waveform driven
// by the protocol simulation: every power-state change, boot segment and
// transmit burst becomes a step in the waveform, and energies are exact
// integrals of that waveform — the same methodology as the paper's
// Keysight 34465A measurements (§5.1).
//
// Current calibration. The plateau values come from the ESP32 datasheet
// and the paper's own text/figures:
//
//   - deep sleep 2.5 µA ("the current draw in deep sleep mode is as low as
//     2.5 µA", §5.1)
//   - light sleep 0.8 mA (§5.1)
//   - automatic light sleep with WiFi association kept: about 5 mA (§5.1);
//     with the paper's aggressive listen-interval-3 setting Table 1 reports
//     4.5 mA, which is what WiFiPSIdle uses
//   - MCU active at 80 MHz: ~30 mA (datasheet, DFS floor ~20 mA)
//   - radio listening: ~100 mA (datasheet RX 95–100 mA)
//   - radio transmitting: ~180 mA average over a burst at low TX power
//     (datasheet TX 120–240 mA depending on power; Figure 3 spikes)
package esp32

import (
	"fmt"
	"time"

	"wile/internal/energy"
	"wile/internal/obs"
	"wile/internal/sim"
	"wile/internal/units"
)

// Rail voltage: the paper powers the module from a bench supply at 3.3 V
// with the regulator removed.
const Voltage = units.Volts(3.3)

// State is a coarse power state with a fixed current draw.
type State int

// Power states.
const (
	// StateDeepSleep: CPU and RAM off, RTC timer running.
	StateDeepSleep State = iota
	// StateLightSleep: RAM retained, fast wake.
	StateLightSleep
	// StateWiFiPSIdle: associated, automatic light sleep, waking for every
	// third beacon (the WiFi-PS idle mode of Table 1).
	StateWiFiPSIdle
	// StateCPUActive: MCU running at 80 MHz, radio off.
	StateCPUActive
	// StateNetworkWait: DFS + automatic light sleep between network-layer
	// messages — the 20–30 mA plateau of Figure 3a's DHCP/ARP phase.
	StateNetworkWait
	// StateRadioListen: radio on and receiving/carrier-sensing.
	StateRadioListen
)

// StateCurrent reports the current draw of s.
func StateCurrent(s State) units.Amps {
	switch s {
	case StateDeepSleep:
		return units.MicroAmps(2.5)
	case StateLightSleep:
		return units.MilliAmps(0.8)
	case StateWiFiPSIdle:
		return units.MilliAmps(4.5)
	case StateCPUActive:
		return units.MilliAmps(30)
	case StateNetworkWait:
		return units.MilliAmps(20)
	case StateRadioListen:
		return units.MilliAmps(100)
	}
	panic(fmt.Sprintf("esp32: unknown state %d", s))
}

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateDeepSleep:
		return "deep-sleep"
	case StateLightSleep:
		return "light-sleep"
	case StateWiFiPSIdle:
		return "wifi-ps-idle"
	case StateCPUActive:
		return "cpu-active"
	case StateNetworkWait:
		return "network-wait"
	case StateRadioListen:
		return "radio-listen"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// TxBurstCurrent is the average current during a transmit burst.
const TxBurstCurrent = units.Amps(180e-3)

// TxRampUp is the radio settle/PA ramp time charged at TX current before
// each burst. Together with the PHY airtime this reproduces the measured
// per-transmission radio-on window behind Table 1's 84 µJ Wi-LE figure.
const TxRampUp = 95 * time.Microsecond

// BurstEnergy is the energy of one transmit burst of the given airtime: the
// amplifier draws TxBurstCurrent from the rail for TxRampUp+airtime.
func BurstEnergy(airtime time.Duration) units.Joules {
	return units.Energy(units.Power(Voltage, TxBurstCurrent), TxRampUp+airtime)
}

// Device is one simulated ESP32 module. Its waveform — the step history
// and the exact charge integral — is the embedded recorder's; the device
// drives it from a coarse power state, TX bursts and boot profiles.
type Device struct {
	*energy.Recorder

	sched   *sim.Scheduler
	state   State
	txUntil sim.Time
	// burstEnd is endBurst, bound once: every TX burst books it.
	burstEnd func()
	marks    []energy.Mark

	// rec/track carry the optional trace recorder (TraceTo): power states
	// become nested slices, phase marks instants, TX bursts spans.
	rec   *obs.Recorder
	track obs.TrackID
}

// New builds a device in deep sleep at the scheduler's current time.
func New(sched *sim.Scheduler) *Device {
	d := &Device{sched: sched, state: StateDeepSleep}
	d.Recorder = energy.NewRecorder(sched, d.effectiveCurrent, d.mark)
	d.burstEnd = d.endBurst
	return d
}

// effectiveCurrent reports the current the state machine implies now.
func (d *Device) effectiveCurrent() units.Amps {
	if d.sched.Now() < d.txUntil {
		return TxBurstCurrent
	}
	return StateCurrent(d.state)
}

// TraceTo attaches the device to a trace recorder: the current power state
// opens as a slice on the given track, and every later transition closes
// one slice and opens the next. Passing a nil recorder detaches.
func (d *Device) TraceTo(r *obs.Recorder, track obs.TrackID) {
	d.rec = r
	d.track = track
	if r != nil {
		r.Begin(track, d.sched.Now(), d.state.String())
	}
}

// SetState moves the device to s immediately.
func (d *Device) SetState(s State) {
	if d.rec != nil && s != d.state {
		now := d.sched.Now()
		d.rec.End(d.track, now)
		d.rec.Begin(d.track, now, s.String())
	}
	d.state = s
	d.Set(d.effectiveCurrent())
}

// GetState reports the current coarse power state.
func (d *Device) GetState() State { return d.state }

// RadioTx implements mac.RadioListener: the amplifier turns on for
// TxRampUp+airtime, overriding the state current.
func (d *Device) RadioTx(airtime time.Duration) {
	until := d.sched.Now().Add(TxRampUp + airtime)
	if until > d.txUntil {
		d.txUntil = until
	}
	if d.rec != nil {
		d.rec.Span(d.track, d.sched.Now(), until, "tx-burst")
	}
	d.Set(TxBurstCurrent)
	d.sched.DoAt(until, d.burstEnd)
}

// endBurst drops back to the state current once the last burst is over.
func (d *Device) endBurst() {
	if d.sched.Now() >= d.txUntil {
		d.Set(d.effectiveCurrent())
	}
}

// MarkPhase records a labeled instant for figure annotation. A profile's
// labeled boundaries up to now mark first, so marks stay in time order.
func (d *Device) MarkPhase(label string) {
	d.CatchUp()
	d.mark(d.sched.Now(), label)
}

// mark records label at t; it is also the recorder's label callback.
func (d *Device) mark(t sim.Time, label string) {
	d.marks = append(d.marks, energy.Mark{At: t, Label: label})
	if d.rec != nil {
		d.rec.Instant(d.track, t, label)
	}
}

// Marks returns the recorded phase annotations.
func (d *Device) Marks() []energy.Mark { return d.marks }

// Energy reports the total energy drawn since construction.
func (d *Device) Energy() units.Joules { return d.Charge().Energy(Voltage) }

// PlaySegments runs a boot profile on the recorder (see Recorder.Play),
// then restores the device's state current and calls done. Labels become
// phase marks.
func (d *Device) PlaySegments(segs []energy.Segment, done func()) { d.Play(segs, done) }

// Boot profiles, calibrated against Figure 3. Durations are the paper's
// phase boundaries; currents are the plateau levels visible in the traces.
// Both are shared tables: callers must not modify them.
var (
	bootWiFi = bootProfile(120*time.Millisecond, 330*time.Millisecond)
	bootWiLE = bootProfile(100*time.Millisecond, 50*time.Millisecond)
)

// BootWiFi is the deep-sleep wake path of the full WiFi client
// (Figure 3a, 0.2 s → 0.85 s): ROM boot, flash image load, RF calibration,
// WiFi stack bring-up in station mode.
func BootWiFi() []energy.Segment { return bootWiFi }

// BootWiLE is the deep-sleep wake path of the Wi-LE transmitter
// (Figure 3b): the same ROM/flash phases but no station-mode stack — "the
// chip does not need to prepare to connect to the AP as a client; it can
// simply enable the WiFi radio to inject a packet" (§5.2).
func BootWiLE() []energy.Segment { return bootWiLE }

// bootProfile builds a wake path: ROM boot, the 170 ms flash image load,
// RF calibration at 70 mA for rfCal, and stack bring-up at 35 mA for
// stack. The image load alternates flash-read bursts and
// decompress/copy stretches; the sub-segments average exactly 50 mA so the
// calibrated phase charge is unchanged, and only the waveform texture
// (visible in Figure 3's traces) differs from a flat plateau.
func bootProfile(rfCal, stack time.Duration) []energy.Segment {
	const bursts = 8
	slice := 170 * time.Millisecond / (2 * bursts)
	segs := []energy.Segment{{D: 30 * time.Millisecond, Current: units.MilliAmps(40), Label: "MC/WiFi init"}}
	for i := 0; i < bursts; i++ {
		segs = append(segs,
			energy.Segment{D: slice, Current: units.MilliAmps(62)}, // SPI flash read burst
			energy.Segment{D: slice, Current: units.MilliAmps(38)}, // CPU copy/decompress
		)
	}
	return append(segs,
		energy.Segment{D: rfCal, Current: units.MilliAmps(70)},
		energy.Segment{D: stack, Current: units.MilliAmps(35)},
	)
}
