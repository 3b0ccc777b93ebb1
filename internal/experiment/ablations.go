package experiment

import (
	"fmt"
	"io"
	"slices"
	"time"

	"wile/internal/ble"
	"wile/internal/core"
	"wile/internal/dot11"
	"wile/internal/energy"
	"wile/internal/engine"
	"wile/internal/esp32"
	"wile/internal/medium"
	"wile/internal/phy"
	"wile/internal/sim"
	"wile/internal/units"
)

// Ablations for the design choices DESIGN.md calls out. Each isolates one
// knob the paper fixes and shows why the paper's setting wins.

// frameCost is what one injected frame costs: its marshalled size, and its
// airtime and TX-burst energy at the §5.4 injection rate.
type frameCost struct {
	Bytes   int
	Airtime time.Duration
	Energy  units.Joules
}

// costOf marshals f and prices it at the injection rate.
func costOf(f dot11.Frame) (frameCost, error) {
	raw, err := dot11.Marshal(f)
	if err != nil {
		return frameCost{}, err
	}
	at := phy.FrameAirtime(phy.RateHTMCS7SGI, len(raw))
	return frameCost{Bytes: len(raw), Airtime: at, Energy: esp32.BurstEnergy(at)}, nil
}

// beaconCost builds the channel-6 beacon sensor msg.DeviceID injects for
// msg and prices it.
func beaconCost(msg *core.Message) (*dot11.Beacon, frameCost, error) {
	beacon, err := core.BuildBeacon(dot11.LocalMAC(msg.DeviceID), 6, msg, nil)
	if err != nil {
		return nil, frameCost{}, err
	}
	c, err := costOf(beacon)
	return beacon, c, err
}

// --- Bitrate ablation (§5.4 fixes 72 Mb/s) ---

// BitratePoint is one rate's Wi-LE TX energy.
type BitratePoint struct {
	Rate    phy.Rate
	Airtime time.Duration
	// Energy is the TX-window energy for one standard beacon.
	Energy units.Joules
}

// RunBitrateAblation computes the Wi-LE per-message TX energy across every
// 802.11 rate for a standard temperature beacon. It shows why §5.4
// transmits at the highest rate: the PHY bits cost the same current for
// less time.
func RunBitrateAblation() ([]BitratePoint, error) {
	_, c, err := beaconCost(&core.Message{DeviceID: 0x1001, Seq: 1, Readings: []core.Reading{core.Temperature(17)}})
	if err != nil {
		return nil, err
	}
	out := engine.MapValues(Pool(), len(phy.WiFiRates), func(i int) BitratePoint {
		r := phy.WiFiRates[i]
		airtime := phy.FrameAirtime(r, c.Bytes)
		return BitratePoint{Rate: r, Airtime: airtime, Energy: esp32.BurstEnergy(airtime)}
	})
	return out, nil
}

// RenderBitrate prints the ablation.
func RenderBitrate(w io.Writer, points []BitratePoint) {
	fmt.Fprintln(w, "Ablation: Wi-LE TX energy vs injection bitrate (one temperature beacon)")
	fmt.Fprintf(w, "%-12s %10s %12s\n", "rate", "airtime", "energy")
	for _, p := range points {
		fmt.Fprintf(w, "%-12s %10s %12s\n", p.Rate.Name, p.Airtime, energy.FormatJoules(p.Energy))
	}
}

// --- Payload ablation ---

// PayloadPoint is one payload size's cost.
type PayloadPoint struct {
	PayloadBytes int
	Fragments    int
	BeaconBytes  int
	Airtime      time.Duration
	Energy       units.Joules
}

// RunPayloadAblation sweeps the message payload from a few bytes to past
// the single-element limit, exposing the fragmentation kink at 243 bytes
// and the per-message fixed cost that makes tiny payloads expensive per
// bit.
func RunPayloadAblation(sizes []int) ([]PayloadPoint, error) {
	if len(sizes) == 0 {
		for n := 4; n <= 720; n += 4 {
			sizes = append(sizes, n)
		}
	}
	return engine.Map(Pool(), len(sizes), func(i int) (PayloadPoint, error) {
		n := sizes[i]
		var readings []core.Reading
		remaining := n
		for remaining > 0 {
			chunk := remaining
			if chunk > 255 {
				chunk = 255
			}
			readings = append(readings, core.RawReading(make([]byte, chunk)))
			remaining -= chunk
		}
		beacon, c, err := beaconCost(&core.Message{DeviceID: 1, Seq: 1, Readings: readings})
		if err != nil {
			return PayloadPoint{}, err
		}
		return PayloadPoint{
			PayloadBytes: n,
			Fragments:    len(beacon.Elements.Vendors(core.OUI)),
			BeaconBytes:  c.Bytes,
			Airtime:      c.Airtime,
			Energy:       c.Energy,
		}, nil
	})
}

// --- Listen-interval ablation (WiFi-PS idle current) ---

// ListenIntervalPoint is one listen-interval's idle current.
type ListenIntervalPoint struct {
	ListenInterval int
	IdleCurrent    units.Amps
}

// WiFiPSIdleModel computes the WiFi-PS idle current for a listen interval:
// a light-sleep floor plus the beacon-reception duty cycle, the radio
// listening (esp32.StateRadioListen) through a wake window at every
// beacon it wakes for. The floor is esp32.StateWiFiPSIdle less that duty
// at LI=3, so LI=3 is Table 1's idle current (§5.3: "the WiFi chip wakes
// up only for every third beacon").
func WiFiPSIdleModel(listenInterval int) units.Amps {
	const (
		tableLI      = 3                     // Table 1's listen interval
		wakeWindow   = 11 * time.Millisecond // radio+MCU on around each beacon
		beaconPeriod = 102400 * time.Microsecond
	)
	wake := esp32.StateCurrent(esp32.StateRadioListen)
	listening := func(li int) units.Amps {
		return units.Scale(wake, wakeWindow.Seconds()/(float64(li)*beaconPeriod.Seconds()))
	}
	floor := esp32.StateCurrent(esp32.StateWiFiPSIdle) - listening(tableLI)
	return floor + listening(listenInterval)
}

// RunListenIntervalAblation sweeps LI 1..10.
func RunListenIntervalAblation() []ListenIntervalPoint {
	return engine.MapValues(Pool(), 10, func(i int) ListenIntervalPoint {
		li := i + 1
		return ListenIntervalPoint{ListenInterval: li, IdleCurrent: WiFiPSIdleModel(li)}
	})
}

// --- Jitter/collision study (§6) ---

// JitterPoint is one crystal-tolerance setting's outcome.
type JitterPoint struct {
	PPM float64
	// Cycles is the number of reporting cycles simulated per sensor.
	Cycles int
	// Delivered counts messages received across both sensors.
	Delivered int
	// ContendedCycles counts cycles where the two sensors' transmissions
	// landed within 5 ms of each other, forcing CSMA to arbitrate. With
	// real crystal jitter the schedules drift apart and contention decays
	// to the first few cycles — the §6 mechanism.
	ContendedCycles int
	// DeliveryRate is Delivered over the sensors' Transmissions (the
	// scanner sends nothing): a fast crystal fits one more wake into the
	// window than 2×Cycles.
	DeliveryRate float64
	Run
}

// RunJitterStudy places two co-located sensors with identical periods and
// identical initial phase, and sweeps the crystal tolerance. §6 argues
// "their transmissions will automatically differ away from each other due
// to the jitter of their clocks"; with zero jitter only CSMA separates
// them, with real crystals the schedules drift apart entirely.
func RunJitterStudy(ppms []float64, cycles int) []JitterPoint {
	if len(ppms) == 0 {
		ppms = []float64{0, 10, 40, 100}
	}
	if cycles <= 0 {
		cycles = 200
	}
	// Each tolerance setting simulates its own world on its own kernel, so
	// the sweep shards across engine workers without the points seeing each
	// other. Seeds are per-sensor constants, not scheduling-dependent, which
	// keeps the parallel run byte-identical to the serial one.
	return engine.MapValues(Pool(), len(ppms), func(pi int) JitterPoint {
		return runJitterPoint(newWorld(nil), ppms[pi], cycles)
	})
}

// runJitterPoint runs one tolerance setting of the jitter study on w for
// the given number of 10 s cycles, the window holding one more.
func runJitterPoint(w world, ppm float64, cycles int) JitterPoint {
	const period = 10 * time.Second
	for i := 0; i < 2; i++ {
		s := core.NewSensor(w.sched, w.med, core.SensorConfig{
			DeviceID: uint32(0x200 + i),
			Position: medium.Position{X: float64(i)},
			Period:   period,
			// A negative value means "no jitter at all"; zero would
			// take the 40 ppm default.
			JitterPPM: jitterOrNone(ppm),
			SkipBoot:  true,
			Seed:      uint64(31 + i),
		})
		s.Run()
	}
	scanner := core.NewScanner(w.sched, w.med, core.ScannerConfig{Position: medium.Position{X: 0.5, Y: 0.5}})
	scanner.Start()
	delivered := 0
	var arrivals []sim.Time
	scanner.OnMessage = func(m *core.Message, meta core.Meta) {
		delivered++
		arrivals = append(arrivals, meta.At)
	}
	w.sched.RunUntil(sim.FromDuration(time.Duration(cycles+1) * period))

	contended := 0
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i].Sub(arrivals[i-1]) < 5*time.Millisecond {
			contended++
		}
	}
	p := JitterPoint{PPM: ppm, Cycles: cycles, Delivered: delivered, ContendedCycles: contended, Run: w.run()}
	p.DeliveryRate = float64(delivered) / float64(p.Transmissions)
	return p
}

// --- Hidden-SSID overhead ---

// HiddenSSIDResult compares the injected beacon with hidden vs visible
// SSID (§4.1's design choice costs nothing and keeps AP lists clean).
type HiddenSSIDResult struct {
	HiddenBytes, VisibleBytes     int
	HiddenAirtime, VisibleAirtime time.Duration
}

// RunHiddenSSIDAblation measures the two variants.
func RunHiddenSSIDAblation() (*HiddenSSIDResult, error) {
	beacon, hidden, err := beaconCost(&core.Message{DeviceID: 1, Seq: 1, Readings: []core.Reading{core.Temperature(17)}})
	if err != nil {
		return nil, err
	}
	// Swap in a 20-char SSID, the kind that would spam AP lists.
	beacon.Elements[0] = dot11.SSIDElement("wile-sensor-00001001")
	visible, err := costOf(beacon)
	if err != nil {
		return nil, err
	}
	return &HiddenSSIDResult{
		HiddenBytes:    hidden.Bytes,
		VisibleBytes:   visible.Bytes,
		HiddenAirtime:  hidden.Airtime,
		VisibleAirtime: visible.Airtime,
	}, nil
}

// --- Battery-life projection (motivating claim: BLE "can run on a small
// button battery for over a year") ---

// BatteryPoint is one technology's projected CR2032 life.
type BatteryPoint struct {
	Name string
	Life time.Duration
}

// RunBatteryProjection estimates coin-cell life at the given reporting
// interval from the measured Table-1 episodes.
func RunBatteryProjection(table *Table1Result, interval time.Duration) []BatteryPoint {
	scenarios := table.Scenarios()
	return engine.MapValues(Pool(), len(scenarios), func(i int) BatteryPoint {
		return BatteryPoint{
			Name: scenarios[i].Name,
			Life: scenarios[i].BatteryLife(energy.CR2032Capacity, interval),
		}
	})
}

// jitterOrNone maps the study's 0-ppm point to the sensor config's
// explicit "no jitter" sentinel.
func jitterOrNone(ppm float64) float64 {
	if ppm == 0 {
		return -1
	}
	return ppm
}

// --- Channel-count / hopper study ---

// HopperPoint is one channel-count's capture rate. Its Run sums the
// channel media's Stats; Events counts their one shared kernel.
type HopperPoint struct {
	Channels    int
	Dwell       time.Duration
	Captured    int
	CaptureRate float64
	Run
}

// RunHopperStudy measures a scanning receiver's capture rate as the number
// of channels grows — the cost side of §1's 5 GHz advantage: more spectrum
// means more places for a beacon to hide from a hopping phone. One sensor
// per channel reports every second; the hopper dwells 250 ms per channel.
func RunHopperStudy(channelCounts []int) []HopperPoint {
	if len(channelCounts) == 0 {
		channelCounts = []int{1, 3, 8}
	}
	// One engine point per channel count: each builds its own kernel,
	// media, sensors and hopper, so the heaviest ablation sweeps in
	// parallel without any cross-point state.
	return engine.MapValues(Pool(), len(channelCounts), func(pi int) HopperPoint {
		return runHopperPoint(hopperWorlds(channelCounts[pi]))
	})
}

// hopperWorlds builds n channel worlds on one kernel, on channels 1 to 13
// and round again.
func hopperWorlds(n int) []world {
	s := sim.New()
	ws := make([]world, n)
	for c := range ws {
		ws[c] = world{sched: s, med: medium.New(s, phy.WiFi24Channel(1+c%13))}
	}
	return ws
}

// runHopperPoint runs the hopper study on ws, one sensor per channel world
// and one hopping scanner across them, for 120 one-second cycles.
func runHopperPoint(ws []world) HopperPoint {
	const period = time.Second
	const dwell = 250 * time.Millisecond
	const cycles = 120
	sched := ws[0].sched
	scanners := make([]*core.Scanner, len(ws))
	for c, w := range ws {
		s := core.NewSensor(sched, w.med, core.SensorConfig{
			DeviceID: uint32(0x800 + c),
			Position: medium.Position{X: 0},
			Period:   period,
			SkipBoot: true,
			Seed:     uint64(300 + c),
		})
		s.Run()
		scanners[c] = core.NewScanner(sched, w.med, core.ScannerConfig{
			Name: "hop", Position: medium.Position{X: 1}, Seed: uint64(400 + c),
		})
	}
	hopper := core.NewChannelHopper(sched, dwell, scanners...)
	hopper.Start()
	sched.RunUntil(sim.FromDuration(time.Duration(cycles) * period))
	hopper.Stop()
	p := HopperPoint{Channels: len(ws), Dwell: dwell, Captured: hopper.Messages()}
	for _, w := range ws {
		r := w.run()
		p.Events = r.Events
		p.Transmissions += r.Transmissions
		p.Deliveries += r.Deliveries
		p.Collisions += r.Collisions
	}
	p.CaptureRate = float64(p.Captured) / float64(p.Transmissions)
	return p
}

// --- Channel capacity (§6 "network of IoT devices") ---

// CapacityResult bounds how many Wi-LE devices one channel sustains.
type CapacityResult struct {
	Period        time.Duration
	BeaconAirtime time.Duration
	// PerTxAirtime includes the DCF overhead around each injection.
	PerTxAirtime time.Duration
	// MaxAt10Util is the device count at 10% channel utilization — a
	// conservative operating point that leaves CSMA effectively
	// collision-free (the 100-sensor simulation delivers >99% there).
	MaxAt10Util int
}

// RunCapacityStudy computes the airtime-limited capacity of one channel
// for a standard temperature beacon at the given reporting period.
func RunCapacityStudy(period time.Duration) (*CapacityResult, error) {
	_, beacon, err := beaconCost(&core.Message{DeviceID: 1, Seq: 1, Readings: []core.Reading{core.Temperature(17)}})
	if err != nil {
		return nil, err
	}
	t := phy.Timing(phy.RateHTMCS7SGI)
	// Average per-transmission channel occupancy: DIFS + mean backoff +
	// the frame itself.
	perTx := t.DIFS() + time.Duration(t.CWMin/2)*t.Slot + beacon.Airtime
	maxDevices := func(util float64) int {
		return int(util * float64(period) / float64(perTx))
	}
	return &CapacityResult{
		Period:        period,
		BeaconAirtime: beacon.Airtime,
		PerTxAirtime:  perTx,
		MaxAt10Util:   maxDevices(0.10),
	}, nil
}

// --- Goodput per joule (the "data rates comparable with BLE" claim) ---

// GoodputResult compares payload capacity and energy per delivered byte.
type GoodputResult struct {
	// WiLEPayloadPerMsg is one vendor element's application capacity.
	WiLEPayloadPerMsg int
	// WiLEMaxPerBeacon is the multi-fragment ceiling in one beacon.
	WiLEMaxPerBeacon int
	// BLEPayloadPerMsg is one advertising event's AdvData capacity.
	BLEPayloadPerMsg int
	// Energy per application byte at the respective maxima, in J/B.
	WiLEJoulesPerByte float64
	BLEJoulesPerByte  float64
}

// RunGoodputStudy quantifies §1's "obtains data rates comparable with
// Bluetooth Low Energy": at equal reporting rates Wi-LE moves ~8× more
// payload per message for near-equal energy, so its per-byte energy is
// far lower.
func RunGoodputStudy() (*GoodputResult, error) {
	// Wi-LE: a full single-fragment beacon.
	payload := make([]byte, core.FragmentCapacity-2) // minus the TLV header
	_, wile, err := beaconCost(&core.Message{DeviceID: 1, Seq: 1, Readings: []core.Reading{core.RawReading(payload)}})
	if err != nil {
		return nil, err
	}

	bleEnergy := ble.ConnectionEventEnergy()
	return &GoodputResult{
		WiLEPayloadPerMsg: len(payload),
		WiLEMaxPerBeacon:  core.MaxPayload,
		BLEPayloadPerMsg:  ble.MaxAdvData,
		WiLEJoulesPerByte: float64(wile.Energy) / float64(len(payload)),
		BLEJoulesPerByte:  float64(bleEnergy) / float64(ble.MaxAdvData),
	}, nil
}

// --- Interference study (§1's "increasingly crowded 2.4 GHz spectrum") ---

// InterferencePoint is one channel-occupancy level's outcome.
type InterferencePoint struct {
	// Duty is the interferer's channel occupancy (0..1).
	Duty float64
	// DeliveryRate is delivered/expected for the Wi-LE sensor.
	DeliveryRate float64
	// MeanDelay is the average extra latency CSMA deferral added to each
	// delivered message, relative to the clean-channel baseline (which
	// absorbs the sensor's own scheduling drift).
	MeanDelay time.Duration
	// Run is the point's own world, the interferer's bursts included.
	// When the sweep has no 0-duty point, the extra clean-channel run the
	// delays are measured against is not in it.
	Run
}

// RunInterferenceStudy shares the sensor's channel with a non-CSMA
// interferer (think microwave oven or a saturating neighbor) at several
// duty cycles. Wi-LE's beacons are so short that CSMA keeps delivery
// near-complete even on a heavily occupied channel — the cost shows up as
// deferral delay, not loss.
func RunInterferenceStudy(duties []float64) []InterferencePoint {
	if len(duties) == 0 {
		duties = []float64{0, 0.25, 0.5, 0.8}
	}
	// The duty sweep shards; every point builds a fresh world, so
	// concurrent points never touch the same kernel. Every delay is
	// measured against the clean channel: the sweep's own 0-duty point
	// when it has one, else one extra run.
	points := engine.MapValues(Pool(), len(duties), func(i int) InterferencePoint {
		return runInterferencePoint(newWorld(nil), duties[i])
	})
	var baseline time.Duration
	if i := slices.Index(duties, 0); i >= 0 {
		baseline = points[i].MeanDelay
	} else {
		baseline = runInterferencePoint(newWorld(nil), 0).MeanDelay
	}
	for i := range points {
		points[i].MeanDelay = max(points[i].MeanDelay-baseline, 0)
	}
	return points
}

// runInterferencePoint runs one duty cycle of the interference study on w
// for 100 one-second cycles, its MeanDelay not yet against the baseline.
func runInterferencePoint(w world, duty float64) InterferencePoint {
	const (
		period      = time.Second
		cycles      = 100
		burstPeriod = 10 * time.Millisecond
	)
	sensor := core.NewSensor(w.sched, w.med, core.SensorConfig{
		DeviceID: 0x4e, Position: medium.Position{X: 0},
		Period: period, JitterPPM: -1, SkipBoot: true, Seed: 41,
	})
	scanner := core.NewScanner(w.sched, w.med, core.ScannerConfig{Position: medium.Position{X: 2}})
	scanner.Start()
	var totalDelay time.Duration
	delivered := 0
	scanner.OnMessage = func(m *core.Message, meta core.Meta) {
		delivered++
		expected := sim.FromDuration(time.Duration(m.Seq+1) * period)
		totalDelay += meta.At.Sub(expected)
	}

	if duty > 0 {
		// The interferer transmits fixed junk bursts without carrier
		// sensing; burst length sets the duty cycle.
		jam := w.med.Attach("interferer", medium.Position{X: 1}, phy.DBm(10), phy.SensitivityWiFi1M)
		jam.SetOn(true)
		// DSSS-1 airtime: 192 µs preamble + 8 µs/byte.
		burstAir := time.Duration(duty * float64(burstPeriod))
		junkBytes := int((burstAir - 192*time.Microsecond) / (8 * time.Microsecond))
		if junkBytes < 1 {
			junkBytes = 1
		}
		junk := make([]byte, junkBytes)
		var tick func()
		tick = func() {
			w.med.Transmit(jam, junk, phy.RateDSSS1)
			w.sched.DoAfter(burstPeriod, tick)
		}
		w.sched.DoAfter(burstPeriod, tick)
	}

	sensor.Run()
	w.sched.RunUntil(sim.FromDuration(time.Duration(cycles) * period))
	sensor.Stop()

	point := InterferencePoint{Duty: duty, DeliveryRate: float64(delivered) / (cycles - 1), Run: w.run()}
	if delivered > 0 {
		point.MeanDelay = totalDelay / time.Duration(delivered)
	}
	return point
}

// --- Carrier-frame ablation (why beacons, §4) ---

// CarrierPoint describes one candidate carrier frame for the same payload.
type CarrierPoint struct {
	Carrier string
	// Receivable notes whether a stock (non-monitor-mode) receiver's MAC
	// delivers the frame to software — the property §4 pivots on.
	Receivable string
	Bytes      int
	Airtime    time.Duration
	Energy     units.Joules
}

// RunCarrierAblation compares the three plausible connection-less carrier
// frames for one temperature reading: the beacon the paper chooses, a
// probe request (some deployed systems smuggle data there), and a
// vendor-specific Action frame. Airtime differences are negligible — the
// beacon wins on receivability, not efficiency.
func RunCarrierAblation() ([]CarrierPoint, error) {
	msg := &core.Message{DeviceID: 0x1001, Seq: 1, Readings: []core.Reading{core.Temperature(17)}}
	frags, err := msg.Encode(nil)
	if err != nil {
		return nil, err
	}
	payload := frags[0]
	from := dot11.LocalMAC(0x1001)

	_, beacon, err := beaconCost(msg)
	if err != nil {
		return nil, err
	}
	ve, err := dot11.VendorElement(core.OUI, payload)
	if err != nil {
		return nil, err
	}
	probe := &dot11.ProbeReq{Elements: dot11.Elements{dot11.SSIDElement(""), ve}}
	probe.Header.Addr1 = dot11.Broadcast
	probe.Header.Addr2 = from
	probe.Header.Addr3 = dot11.Broadcast
	action := dot11.NewVendorAction(from, core.OUI, payload)

	point := func(name, rx string, c frameCost) CarrierPoint {
		return CarrierPoint{Carrier: name, Receivable: rx, Bytes: c.Bytes, Airtime: c.Airtime, Energy: c.Energy}
	}
	out := make([]CarrierPoint, 0, 3)
	out = append(out, point("beacon (paper)", "yes: scan results on every OS", beacon))
	for _, c := range []struct {
		name, rx string
		f        dot11.Frame
	}{
		{"probe request", "APs only (stations ignore)", probe},
		{"action frame", "no: dropped without monitor mode", action},
	} {
		cost, err := costOf(c.f)
		if err != nil {
			return nil, err
		}
		out = append(out, point(c.name, c.rx, cost))
	}
	return out, nil
}
