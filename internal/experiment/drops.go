package experiment

import (
	"fmt"
	"time"

	"wile/internal/core"
	"wile/internal/dot11"
	"wile/internal/mac"
	"wile/internal/medium"
	"wile/internal/phy"
	"wile/internal/sim"
)

// DropResult summarizes a RunDropScenario run for tests and benches. The
// provenance ledger itself lives in the Obs bundle the caller passed in.
type DropResult struct {
	Run
	// Near is the close-in scanner's protocol tally.
	Near core.ScannerStats
}

// dropWindow is the scenario length; activity stops early enough that every
// in-flight frame resolves before the window closes.
const dropWindow = 2 * time.Second

// RunDropScenario runs a deliberately lossy multi-device world in which
// every reason in the drop taxonomy occurs: periodic sensors feed a nearby
// scanner (delivered), a scanner 300 m out (below_sensitivity) and a
// never-started scanner (radio_off); an encrypted sensor defeats the
// keyless scanners (decode_error); a raw transmitter repeats one message
// verbatim (dedup_filtered); another injects a corrupted frame (fcs_error);
// two raw radios fire at the same instant (collided); and a MAC port sends
// with its radio down (queue_drop). Everything is seeded and single-world,
// so two runs — at any GOMAXPROCS — produce byte-identical reports.
func RunDropScenario(o *Obs) (*DropResult, error) {
	w := newWorld(o)
	w.firehose(o)

	// Periodic reporters. SkipBoot keeps the run protocol-only.
	sensor := core.NewSensor(w.sched, w.med, core.SensorConfig{
		DeviceID: 0x2001, Position: medium.Position{X: 3, Y: 0},
		Period: 50 * time.Millisecond, SkipBoot: true,
	})
	key, err := core.NewKey([]byte("drop-scenario-16"))
	if err != nil {
		return nil, fmt.Errorf("experiment: drop scenario key: %w", err)
	}
	sensorEnc := core.NewSensor(w.sched, w.med, core.SensorConfig{
		DeviceID: 0x2002, Position: medium.Position{X: 4, Y: 0},
		Period: 70 * time.Millisecond, SkipBoot: true, Key: key,
	})

	// Receivers: one in range, one far beyond the MCS7 sensitivity, one
	// whose radio never powers on. None holds the encryption key, so the
	// encrypted sensor's messages die as decode errors.
	scanNear := core.NewScanner(w.sched, w.med, core.ScannerConfig{
		Name: "scan-near", Position: medium.Position{X: 0, Y: 0}})
	scanFar := core.NewScanner(w.sched, w.med, core.ScannerConfig{
		Name: "scan-far", Position: medium.Position{X: 300, Y: 0}})
	core.NewScanner(w.sched, w.med, core.ScannerConfig{
		Name: "scan-dark", Position: medium.Position{X: 1, Y: 0}})

	// Raw transceivers for the injected pathologies. No Handler means the
	// medium resolves their own receptions as radio_off, keeping the
	// ledger's conservation exact without a MAC behind them.
	rawA := w.med.Attach("raw-a", medium.Position{X: 1.5, Y: 0}, 0, phy.SensitivityWiFiMCS7)
	rawB := w.med.Attach("raw-b", medium.Position{X: 2, Y: 0}, 0, phy.SensitivityWiFiMCS7)
	dedupTx := w.med.Attach("dedup-tx", medium.Position{X: 2.5, Y: 0}, 0, phy.SensitivityWiFiMCS7)
	fcsTx := w.med.Attach("fcs-tx", medium.Position{X: 2.2, Y: 0}, 0, phy.SensitivityWiFiMCS7)
	for _, t := range []*medium.Transceiver{rawA, rawB, dedupTx, fcsTx} {
		t.SetOn(true)
	}

	// A MAC port whose radio never powers on: its Send fails at the
	// transmit step and lands in the TX-side queue_drop bucket.
	qdrop := mac.New(w.sched, w.med, "qdrop", medium.Position{X: 2.8, Y: 0},
		dot11.MustParseMAC("02:aa:00:00:00:0f"), phy.RateHTMCS7SGI, 0,
		phy.SensitivityWiFiMCS7, sim.NewRand(0xd20b))

	rawBeacon := func(deviceID uint32, seq uint16) []byte {
		b, err := core.BuildBeacon(dot11.LocalMAC(deviceID), 6,
			&core.Message{DeviceID: deviceID, Seq: seq,
				Readings: []core.Reading{core.Temperature(17.0)}}, nil)
		if err != nil {
			panic(fmt.Sprintf("experiment: drop scenario beacon: %v", err))
		}
		raw, err := dot11.Marshal(b)
		if err != nil {
			panic(fmt.Sprintf("experiment: drop scenario marshal: %v", err))
		}
		return raw
	}

	scanNear.Start()
	scanFar.Start()
	sensor.Run()
	sensorEnc.Run()

	// t=31 ms: send from a dead radio → queue_drop.
	w.sched.DoAfter(31*time.Millisecond, func() {
		q, err := core.BuildBeacon(dot11.LocalMAC(0x4001), 6,
			&core.Message{DeviceID: 0x4001, Seq: 1,
				Readings: []core.Reading{core.Temperature(17.0)}}, nil)
		if err != nil {
			panic(fmt.Sprintf("experiment: drop scenario beacon: %v", err))
		}
		if err := qdrop.Send(q, nil); err != nil {
			panic(fmt.Sprintf("experiment: drop scenario send: %v", err))
		}
	})

	// t=41/46 ms: the same message bytes twice → dedup_filtered at the
	// scanner that decoded the first copy.
	dup := rawBeacon(0x3001, 7)
	w.sched.DoAfter(41*time.Millisecond, func() { w.med.Transmit(dedupTx, dup, phy.RateHTMCS7SGI) })
	w.sched.DoAfter(46*time.Millisecond, func() { w.med.Transmit(dedupTx, dup, phy.RateHTMCS7SGI) })

	// t=53 ms: a frame corrupted in flight → fcs_error everywhere it lands.
	bad := rawBeacon(0x3002, 9)
	bad[len(bad)/2] ^= 0x55
	w.sched.DoAfter(53*time.Millisecond, func() { w.med.Transmit(fcsTx, bad, phy.RateHTMCS7SGI) })

	// t=101 ms: two raw radios fire at the same instant, too close in power
	// for capture → collided at every receiver in range.
	colA := rawBeacon(0x3003, 3)
	colB := rawBeacon(0x3004, 4)
	w.sched.DoAfter(101*time.Millisecond, func() { w.med.Transmit(rawA, colA, phy.RateHTMCS7SGI) })
	w.sched.DoAfter(101*time.Millisecond, func() { w.med.Transmit(rawB, colB, phy.RateHTMCS7SGI) })

	// Stop the periodic traffic well before the window closes so every
	// delivery event lands inside the run (the ledger must balance).
	w.sched.DoAfter(1500*time.Millisecond, func() {
		sensor.Stop()
		sensorEnc.Stop()
	})
	w.sched.RunUntil(sim.FromDuration(dropWindow))

	if scanNear.Stats.Messages == 0 {
		return nil, fmt.Errorf("experiment: drop scenario delivered nothing to the near scanner")
	}
	return &DropResult{Run: w.run(), Near: scanNear.Stats}, nil
}
