package core

import (
	"fmt"
	"time"

	"wile/internal/dot11"
	"wile/internal/esp32"
	"wile/internal/mac"
	"wile/internal/medium"
	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
)

// injectionPower is every sensor's transmit power. With the injection
// rate, HT MCS7 at the short guard interval (72 Mb/s), it is what §5.4
// measures Wi-LE at.
const injectionPower phy.DBm = 0

// SensorConfig parameterizes a Wi-LE transmitter.
type SensorConfig struct {
	// DeviceID is the unique identifier embedded in every message and in
	// the beacon's (locally administered) BSSID.
	DeviceID uint32
	// Position places the device on the medium.
	Position medium.Position
	// Period is the reporting interval (the paper's example: "periodically
	// wakes up (e.g., every 10 minutes) to send its temperature reading").
	Period time.Duration
	// Channel is advertised in the DS parameter element.
	Channel int
	// Key, when non-nil, encrypts and authenticates every message (§6).
	Key *Key
	// JitterPPM models the wake-timer crystal tolerance. The paper §6
	// argues co-periodic transmitters "automatically differ away from each
	// other due to the jitter of their clocks"; 40 ppm is a typical IoT
	// crystal and the default. Negative means a perfect (jitter-free)
	// clock, for studies that need the pathological case.
	JitterPPM float64
	// RxWindow, when nonzero, announces a post-beacon receive window in
	// every message (§6 two-way extension) and keeps the radio on for it.
	RxWindow time.Duration
	// SkipBoot omits the deep-sleep boot profile on each wake. Power
	// studies leave it false; protocol-only tests may set it.
	SkipBoot bool
	// Seed seeds the per-device randomness (jitter, backoff).
	Seed uint64
}

func (c SensorConfig) withDefaults() SensorConfig {
	if c.Channel == 0 {
		c.Channel = 6
	}
	if c.JitterPPM == 0 {
		c.JitterPPM = 40
	}
	if c.Seed == 0 {
		c.Seed = uint64(c.DeviceID)*0x9e3779b9 + 1
	}
	return c
}

// Sensor is one Wi-LE IoT device.
type Sensor struct {
	Cfg SensorConfig
	// Dev is the device power model.
	Dev *esp32.Device
	// Port is the MAC entity used for injection.
	Port *mac.Port
	// Sample supplies the readings for each transmission. Defaults to a
	// single monotonic counter.
	Sample func() []Reading
	// OnDownlink receives §6 two-way responses that arrive inside an
	// announced receive window.
	OnDownlink func(*Message)
	// Stats accumulates transmitter-side counters.
	Stats SensorStats

	sched   *sim.Scheduler
	rng     *sim.Rand
	seq     uint16
	running bool
	// pendingSeq tracks the in-flight sequence number for downlink match.
	windowOpen bool

	// rec/track carry the optional trace recorder (TraceTo).
	rec   *obs.Recorder
	track obs.TrackID
}

// SensorStats counts transmitter events.
type SensorStats struct {
	Messages  int
	Fragments int
	Downlinks int
}

// Counters emits the Stats as wile.* counters (obs.Source).
func (s *SensorStats) Counters(emit func(name string, v int64)) {
	emit("wile.tx_messages", int64(s.Messages))
	emit("wile.tx_fragments", int64(s.Fragments))
	emit("wile.rx_downlinks", int64(s.Downlinks))
}

// NewSensor builds a sleeping sensor attached to the medium.
func NewSensor(sched *sim.Scheduler, med *medium.Medium, cfg SensorConfig) *Sensor {
	cfg = cfg.withDefaults()
	s := &Sensor{
		Cfg:   cfg,
		Dev:   esp32.New(sched),
		sched: sched,
		rng:   sim.NewRand(cfg.Seed),
	}
	s.Sample = func() []Reading {
		return []Reading{Counter(uint32(s.Stats.Messages))}
	}
	s.Port = mac.New(sched, med, fmt.Sprintf("wile:%08x", cfg.DeviceID), cfg.Position,
		s.BSSID(), phy.RateHTMCS7SGI, injectionPower, phy.SensitivityWiFiMCS7, sim.NewRand(cfg.Seed^0xbeef))
	s.Port.Radio = s.Dev
	s.Port.AutoACK = false // a Wi-LE device never ACKs anything
	s.Port.Handler = s.handleFrame
	return s
}

// BSSID reports the device's beacon BSSID, derived from the device ID.
func (s *Sensor) BSSID() dot11.MAC { return dot11.LocalMAC(s.Cfg.DeviceID) }

// TraceTo attaches the sensor and its device/MAC to a trace recorder,
// registering one track per layer: power states, MAC activity, and the
// sensor's own injection instants. Passing a nil recorder detaches.
func (s *Sensor) TraceTo(r *obs.Recorder) {
	s.rec = r
	if r == nil {
		s.Dev.TraceTo(nil, 0)
		s.Port.TraceTo(nil, 0)
		return
	}
	name := fmt.Sprintf("wile:%08x", s.Cfg.DeviceID)
	s.Dev.TraceTo(r, r.Track(name+" power"))
	s.Port.TraceTo(r, r.Track(name+" mac"))
	s.track = r.Track(name)
}

// Observe collects the sensor's MAC and protocol Stats into the registry.
func (s *Sensor) Observe(reg *obs.Registry) {
	s.Port.Observe(reg)
	reg.Collect(&s.Stats)
}

// BuildBeacon constructs the injected frame for the given message: hidden
// SSID (§4.1), DS parameter, basic rates, and the message fragments as
// vendor-specific elements.
func BuildBeacon(bssid dot11.MAC, channel int, m *Message, key *Key) (*dot11.Beacon, error) {
	frags, err := m.Encode(key)
	if err != nil {
		return nil, err
	}
	els := dot11.Elements{
		dot11.SSIDElement(""), // hidden: keeps phone AP lists clean
		dot11.DefaultRates(),
		dot11.DSParamElement(channel),
	}
	for _, f := range frags {
		ve, err := dot11.VendorElement(OUI, f)
		if err != nil {
			return nil, err
		}
		els = append(els, ve)
	}
	// Beacon interval field: we are not a real AP, but scanners may use
	// the field to predict the next transmission; encode the period in TU
	// saturating at the field width.
	return dot11.NewBeacon(bssid, 100, 0 /* neither ESS nor IBSS */, els), nil
}

// TransmitOnce performs one full wake cycle: boot (unless SkipBoot),
// inject the beacon carrying readings, optionally hold the receive window
// open, then deep-sleep. done (optional) reports MAC-level completion.
func (s *Sensor) TransmitOnce(readings []Reading, done func(ok bool)) {
	finish := func(ok bool) {
		if done != nil {
			done(ok)
		}
	}
	inject := func() {
		msg := &Message{
			DeviceID: s.Cfg.DeviceID,
			Seq:      s.seq,
			Readings: readings,
			RxWindow: s.Cfg.RxWindow,
		}
		s.seq++
		beacon, err := BuildBeacon(s.BSSID(), s.Cfg.Channel, msg, s.Cfg.Key)
		if err != nil {
			// Only possible with oversized payloads: surface loudly.
			panic(fmt.Sprintf("core: building beacon: %v", err))
		}
		s.Stats.Messages++
		s.Stats.Fragments += len(beacon.Elements.Vendors(OUI))
		if s.rec != nil {
			s.rec.Instant(s.track, s.sched.Now(), "inject-beacon")
		}
		s.Port.SetRadioOn(true)
		s.Dev.SetState(esp32.StateRadioListen)
		err = s.Port.Send(beacon, func(ok bool) {
			if s.Cfg.RxWindow > 0 {
				// §6: hold the radio on for the announced window so a
				// base station can inject a response.
				s.windowOpen = true
				s.sched.DoAfter(s.Cfg.RxWindow, func() {
					s.windowOpen = false
					s.sleep()
					finish(ok)
				})
				return
			}
			s.sleep()
			finish(ok)
		})
		if err != nil {
			panic(fmt.Sprintf("core: sending beacon: %v", err))
		}
	}
	s.Dev.SetState(esp32.StateCPUActive)
	if s.Cfg.SkipBoot {
		inject()
		return
	}
	s.Dev.PlaySegments(esp32.BootWiLE(), inject)
}

// sleep powers everything down.
func (s *Sensor) sleep() {
	s.Port.SetRadioOn(false)
	s.Dev.MarkPhase("Sleep")
	s.Dev.SetState(esp32.StateDeepSleep)
}

// handleFrame watches for downlink responses during open windows.
func (s *Sensor) handleFrame(f dot11.Frame, rx medium.Reception) {
	if !s.windowOpen || s.OnDownlink == nil {
		return
	}
	beacon, ok := f.(*dot11.Beacon)
	if !ok {
		return
	}
	msg, err := DecodeBeacon(beacon, func(uint32) *Key { return s.Cfg.Key })
	if err != nil || !msg.Downlink || msg.DeviceID != s.Cfg.DeviceID {
		return
	}
	s.Stats.Downlinks++
	s.OnDownlink(msg)
}

// Run starts the periodic reporting loop. Each cycle wakes the device,
// samples, transmits, and schedules the next wake with crystal jitter.
func (s *Sensor) Run() {
	if s.running {
		return
	}
	s.running = true
	s.scheduleNext()
}

// Stop halts the loop after the current cycle.
func (s *Sensor) Stop() { s.running = false }

func (s *Sensor) scheduleNext() {
	if !s.running {
		return
	}
	interval := time.Duration(float64(s.Cfg.Period) * s.rng.Jitter(s.Cfg.JitterPPM))
	s.sched.DoAfter(interval, func() {
		if !s.running {
			return
		}
		s.TransmitOnce(s.Sample(), func(bool) { s.scheduleNext() })
	})
}

// Seq reports the next sequence number (for tests).
func (s *Sensor) Seq() uint16 { return s.seq }
