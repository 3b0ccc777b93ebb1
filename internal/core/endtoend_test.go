package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"wile/internal/dot11"
	"wile/internal/energy"
	"wile/internal/esp32"
	"wile/internal/medium"
	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
	"wile/internal/units"
)

func pos(x, y float64) medium.Position { return medium.Position{X: x, Y: y} }

type rig struct {
	sched *sim.Scheduler
	med   *medium.Medium
}

func newRig() *rig {
	s := sim.New()
	return &rig{sched: s, med: medium.New(s, phy.WiFi24Channel(6))}
}

func TestSensorToScannerEndToEnd(t *testing.T) {
	r := newRig()
	sensor := NewSensor(r.sched, r.med, SensorConfig{DeviceID: 0x1001, Position: pos(0, 0)})
	scanner := NewScanner(r.sched, r.med, ScannerConfig{Position: pos(3, 0)})
	scanner.Start()

	var got []*Message
	var metas []Meta
	scanner.OnMessage = func(m *Message, meta Meta) {
		got = append(got, m)
		metas = append(metas, meta)
	}

	sensor.TransmitOnce([]Reading{Temperature(17.0)}, nil)
	r.sched.Run()

	if len(got) != 1 {
		t.Fatalf("scanner received %d messages, want 1", len(got))
	}
	m := got[0]
	if m.DeviceID != 0x1001 || m.Seq != 0 {
		t.Fatalf("message header: %+v", m)
	}
	if len(m.Readings) != 1 || m.Readings[0].Celsius() != 17.0 {
		t.Fatalf("reading: %+v", m.Readings)
	}
	if metas[0].BSSID != dot11.LocalMAC(0x1001) {
		t.Fatalf("BSSID = %v", metas[0].BSSID)
	}
	if metas[0].RSSI >= 0 || metas[0].RSSI < -70 {
		t.Fatalf("RSSI = %v", metas[0].RSSI)
	}
	if sensor.Dev.GetState() != esp32.StateDeepSleep {
		t.Fatal("sensor not back in deep sleep")
	}
}

func TestInjectedBeaconIsHiddenSSID(t *testing.T) {
	// §4.1: injected beacons must use the hidden SSID so phones' AP lists
	// stay clean, and must advertise neither ESS nor IBSS.
	msg := &Message{DeviceID: 7, Seq: 1, Readings: []Reading{Temperature(17)}}
	b, err := BuildBeacon(dot11.LocalMAC(7), 6, msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, hidden, ok := b.Elements.SSID()
	if !ok || !hidden {
		t.Fatal("injected beacon SSID not hidden")
	}
	if b.Capability.Has(dot11.CapESS) || b.Capability.Has(dot11.CapIBSS) {
		t.Fatal("injected beacon claims to be a network")
	}
	if !b.BSSID().IsLocal() {
		t.Fatal("injected BSSID is not locally administered")
	}
	// And it round-trips the wire format.
	raw, err := dot11.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	back, err := dot11.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeBeacon(back.(*dot11.Beacon), nil)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.DeviceID != 7 {
		t.Fatalf("decoded device %d", decoded.DeviceID)
	}
}

func TestWiLEEnergyPerPacketMatchesTable1(t *testing.T) {
	// Table 1: Wi-LE energy/packet = 84 µJ, counting "only the time
	// required to transmit the packet" (§5.4) — the radio-on TX window.
	r := newRig()
	sensor := NewSensor(r.sched, r.med, SensorConfig{DeviceID: 1, Position: pos(0, 0)})
	scanner := NewScanner(r.sched, r.med, ScannerConfig{Position: pos(2, 0)})
	scanner.Start()

	sensor.TransmitOnce([]Reading{Temperature(17.0)}, nil)
	r.sched.Run()

	// Extract the TX burst energy from the waveform: the charge drawn at
	// TX current.
	tx := energy.ChargeAt(sensor.Dev.Steps(), esp32.TxBurstCurrent, r.sched.Now()).Energy(esp32.Voltage)
	t.Logf("Wi-LE TX-window energy: %.1f µJ (paper: 84 µJ)", tx.Micro())
	if tx < units.Scale(units.MicroJoules(84), 0.85) || tx > units.Scale(units.MicroJoules(84), 1.15) {
		t.Errorf("TX energy %.1f µJ outside ±15%% of 84 µJ", tx.Micro())
	}
}

func TestSensorIdleCurrentMatchesTable1(t *testing.T) {
	// Table 1: Wi-LE idle current = 2.5 µA (deep sleep).
	r := newRig()
	sensor := NewSensor(r.sched, r.med, SensorConfig{DeviceID: 1, Position: pos(0, 0)})
	r.sched.RunUntil(10 * sim.Second)
	steps := sensor.Dev.Steps()
	if got := steps[len(steps)-1].Current; got != units.MicroAmps(2.5) {
		t.Fatalf("idle current = %v A, want 2.5 µA", float64(got))
	}
}

func TestPeriodicRunDeliversSeries(t *testing.T) {
	r := newRig()
	sensor := NewSensor(r.sched, r.med, SensorConfig{
		DeviceID: 0xaa, Position: pos(0, 0), Period: 10 * time.Second,
	})
	temp := 20.0
	sensor.Sample = func() []Reading {
		temp += 0.25
		return []Reading{Temperature(temp)}
	}
	scanner := NewScanner(r.sched, r.med, ScannerConfig{Position: pos(2, 0)})
	scanner.Start()
	var seqs []uint16
	scanner.OnMessage = func(m *Message, meta Meta) { seqs = append(seqs, m.Seq) }

	sensor.Run()
	r.sched.RunUntil(65 * sim.Second)
	sensor.Stop()

	if len(seqs) != 6 {
		t.Fatalf("received %d messages in 65 s at 10 s period, want 6", len(seqs))
	}
	for i, s := range seqs {
		if int(s) != i {
			t.Fatalf("sequence numbers %v", seqs)
		}
	}
	rec, ok := scanner.Device(0xaa)
	if !ok || rec.Messages != 6 || rec.Lost != 0 {
		t.Fatalf("record: %+v", rec)
	}
	if rec.Last.Readings[0].Celsius() != 21.5 {
		t.Fatalf("last temperature %v", rec.Last.Readings[0].Celsius())
	}
}

func TestScannerLossAccounting(t *testing.T) {
	r := newRig()
	sensor := NewSensor(r.sched, r.med, SensorConfig{DeviceID: 0xbb, Position: pos(0, 0), SkipBoot: true})
	scanner := NewScanner(r.sched, r.med, ScannerConfig{Position: pos(2, 0)})
	scanner.Start()

	// First message received; scanner off for the middle two; back for
	// the last.
	send := func() {
		sensor.TransmitOnce([]Reading{Counter(1)}, nil)
		r.sched.RunFor(time.Second)
	}
	send()
	scanner.Stop()
	send()
	send()
	scanner.Start()
	send()

	rec, ok := scanner.Device(0xbb)
	if !ok {
		t.Fatal("device unknown")
	}
	if rec.Messages != 2 {
		t.Fatalf("messages = %d, want 2", rec.Messages)
	}
	if rec.Lost != 2 {
		t.Fatalf("lost = %d, want 2 (seq gap)", rec.Lost)
	}
}

func TestScannerIgnoresRealAPBeacons(t *testing.T) {
	r := newRig()
	scanner := NewScanner(r.sched, r.med, ScannerConfig{Position: pos(2, 0)})
	scanner.Start()
	// A plain AP-style beacon with no Wi-LE elements.
	apPort := NewSensor(r.sched, r.med, SensorConfig{DeviceID: 0xcc, Position: pos(0, 0), SkipBoot: true})
	apBeacon := dot11.NewBeacon(dot11.MustParseMAC("aa:bb:cc:00:00:01"), 100, dot11.CapESS,
		dot11.Elements{dot11.SSIDElement("home-wifi"), dot11.DefaultRates()})
	apPort.Port.SetRadioOn(true)
	apPort.Port.Send(apBeacon, nil)
	r.sched.Run()

	if scanner.Stats.Messages != 0 {
		t.Fatal("scanner decoded a message from a plain beacon")
	}
	if scanner.Stats.OtherBeacons != 1 {
		t.Fatalf("OtherBeacons = %d", scanner.Stats.OtherBeacons)
	}
}

func TestScannerDedupAcrossRetransmission(t *testing.T) {
	// The same sequence number heard twice counts once.
	r := newRig()
	sensor := NewSensor(r.sched, r.med, SensorConfig{DeviceID: 0xdd, Position: pos(0, 0), SkipBoot: true})
	scanner := NewScanner(r.sched, r.med, ScannerConfig{Position: pos(2, 0)})
	scanner.Start()
	var count int
	scanner.OnMessage = func(*Message, Meta) { count++ }

	msg := &Message{DeviceID: 0xdd, Seq: 7, Readings: []Reading{Counter(1)}}
	b, err := BuildBeacon(sensor.BSSID(), 6, msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sensor.Port.SetRadioOn(true)
	sensor.Port.Send(b, nil)
	r.sched.RunFor(time.Second)
	b2, _ := BuildBeacon(sensor.BSSID(), 6, msg, nil)
	sensor.Port.Send(b2, nil)
	r.sched.RunFor(time.Second)

	if count != 1 {
		t.Fatalf("OnMessage fired %d times for a duplicate", count)
	}
	rec, _ := scanner.Device(0xdd)
	if rec.Duplicates != 1 {
		t.Fatalf("duplicates = %d", rec.Duplicates)
	}
}

func TestEncryptedEndToEnd(t *testing.T) {
	r := newRig()
	key, _ := NewKey([]byte("0123456789abcdef"))
	sensor := NewSensor(r.sched, r.med, SensorConfig{DeviceID: 0x22, Position: pos(0, 0), Key: key, SkipBoot: true})

	good := NewScanner(r.sched, r.med, ScannerConfig{Name: "good", Position: pos(2, 0), DefaultKey: key})
	good.Start()
	eaves := NewScanner(r.sched, r.med, ScannerConfig{Name: "eavesdropper", Position: pos(2, 1)})
	eaves.Start()

	var plain *Message
	good.OnMessage = func(m *Message, meta Meta) { plain = m }

	sensor.TransmitOnce([]Reading{Temperature(99.99)}, nil)
	r.sched.Run()

	if plain == nil || plain.Readings[0].Celsius() != 99.99 {
		t.Fatalf("keyed scanner failed: %+v", plain)
	}
	if eaves.Stats.Messages != 0 {
		t.Fatal("keyless scanner decoded an encrypted message")
	}
	if eaves.Stats.EncryptedDrops != 1 {
		t.Fatalf("EncryptedDrops = %d", eaves.Stats.EncryptedDrops)
	}
}

// TestScannerRejectsSealedReplay: a scanner hears seqs 0, 1 and 2, a third
// radio injects a beacon, then the sensor sends seq 3. A byte-for-byte
// replay of the sealed seq-0 beacon is dropped as a duplicate and resolved
// dedup_filtered, so the ledger agrees with the scanner's counts. A keyless
// scanner still accepts an unsealed replay, which anyone could forge
// anyway, and books the sequence gap it claims. A keyed scanner drops an
// unsealed forgery far ahead, so it cannot shut the sealed stream's window.
func TestScannerRejectsSealedReplay(t *testing.T) {
	key, err := NewKey([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	const forgedSeq = 2 + 0x7fff
	for _, tc := range []struct {
		name  string
		key   *Key     // the sensor's and the scanner's
		forge bool     // inject a plaintext forgery instead of the captured seq-0 beacon
		want  []uint16 // seqs OnMessage sees
		dups  int
		lost  int
	}{
		{"sealed replay", key, false, []uint16{0, 1, 2, 3}, 1, 0},
		{"unsealed replay", nil, false, []uint16{0, 1, 2, 0, 3}, 0, 2},
		{"unsealed forgery", key, true, []uint16{0, 1, 2, 3}, 0, 0},
	} {
		r := newRig()
		prov := obs.NewProvenance()
		r.med.ObserveProvenance(prov)
		sensor := NewSensor(r.sched, r.med, SensorConfig{DeviceID: 0xee, Position: pos(0, 0), Key: tc.key, SkipBoot: true})
		scanner := NewScanner(r.sched, r.med, ScannerConfig{Position: pos(2, 0), DefaultKey: tc.key})
		scanner.Start()
		var seqs []uint16
		scanner.OnMessage = func(m *Message, _ Meta) { seqs = append(seqs, m.Seq) }
		var inject []byte
		handle := scanner.Port.Monitor
		scanner.Port.Monitor = func(f dot11.Frame, rx medium.Reception) obs.DropReason {
			if inject == nil {
				inject = append([]byte(nil), rx.Data...)
			}
			return handle(f, rx)
		}
		send := func() {
			sensor.TransmitOnce([]Reading{Counter(1)}, nil)
			r.sched.RunFor(time.Second)
		}
		send()
		send()
		send()
		if tc.forge {
			msg := &Message{DeviceID: 0xee, Seq: forgedSeq, Readings: []Reading{Counter(1)}}
			b, err := BuildBeacon(sensor.BSSID(), 6, msg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if inject, err = dot11.Marshal(b); err != nil {
				t.Fatal(err)
			}
		}
		injector := r.med.Attach("injector", pos(1, 1), 20, phy.SensitivityWiFiMCS7)
		injector.SetOn(true)
		r.med.Transmit(injector, inject, sensor.Port.Rate)
		r.sched.RunFor(time.Second)
		send()

		if !slices.Equal(seqs, tc.want) {
			t.Fatalf("%s: OnMessage saw seqs %v, want %v", tc.name, seqs, tc.want)
		}
		rec, _ := scanner.Device(0xee)
		if rec.Duplicates != tc.dups || scanner.Stats.Duplicates != tc.dups || rec.Lost != tc.lost {
			t.Fatalf("%s: record %+v, scanner %+v; want %d duplicates, %d lost", tc.name, rec, scanner.Stats, tc.dups, tc.lost)
		}
		if err := prov.Verify(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := prov.Outcomes()[obs.DropDedupFiltered]; got != int64(tc.dups) {
			t.Fatalf("%s: ledger dedup_filtered = %d, want %d", tc.name, got, tc.dups)
		}
	}
}

// TestKeyedScannerDropsPlaintextForgery: a scanner keyed for device 0x22
// hears the sensor's sealed seq 0, then a plaintext beacon claiming 0x22
// seq 999 from another radio, then the sensor's seq 1. The forgery counts
// as an encrypted drop, resolves decode_error and moves nothing the
// scanner keeps for the device.
func TestKeyedScannerDropsPlaintextForgery(t *testing.T) {
	key, err := NewKey([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	r := newRig()
	prov := obs.NewProvenance()
	r.med.ObserveProvenance(prov)
	sensor := NewSensor(r.sched, r.med, SensorConfig{DeviceID: 0x22, Position: pos(0, 0), Key: key, SkipBoot: true})
	scanner := NewScanner(r.sched, r.med, ScannerConfig{Position: pos(2, 0), Keys: map[uint32]*Key{0x22: key}})
	scanner.Start()
	var seqs []uint16
	scanner.OnMessage = func(m *Message, _ Meta) { seqs = append(seqs, m.Seq) }

	sensor.TransmitOnce([]Reading{Counter(1)}, nil)
	r.sched.RunFor(time.Second)
	b, err := BuildBeacon(sensor.BSSID(), 6, &Message{DeviceID: 0x22, Seq: 999, Readings: []Reading{Counter(1)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := dot11.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	forger := r.med.Attach("forger", pos(1, 1), 20, phy.SensitivityWiFiMCS7)
	forger.SetOn(true)
	r.med.Transmit(forger, forged, sensor.Port.Rate)
	r.sched.RunFor(time.Second)
	if rec, _ := scanner.Device(0x22); rec.LastSeq != 0 || rec.Lost != 0 || rec.Messages != 1 {
		t.Fatalf("after the forgery the record reads %+v, want seq 0 alone", rec)
	}
	sensor.TransmitOnce([]Reading{Counter(1)}, nil)
	r.sched.RunFor(time.Second)

	if !slices.Equal(seqs, []uint16{0, 1}) {
		t.Fatalf("OnMessage saw seqs %v, want [0 1]", seqs)
	}
	if rec, _ := scanner.Device(0x22); rec.LastSeq != 1 || rec.Lost != 0 || rec.Duplicates != 0 {
		t.Fatalf("record %+v, want seq 1 with nothing lost or duplicated", rec)
	}
	if scanner.Stats.EncryptedDrops != 1 {
		t.Fatalf("EncryptedDrops = %d, want 1", scanner.Stats.EncryptedDrops)
	}
	if err := prov.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := prov.Outcomes()[obs.DropDecodeError]; got != 1 {
		t.Fatalf("ledger decode_error = %d, want 1", got)
	}
}

// TestTwoWayExchange runs the exchange twice, the second time with a
// provenance ledger attached: the responder's Monitor settles every frame
// its radio decodes, so the ledger must balance.
func TestTwoWayExchange(t *testing.T) {
	for _, ledger := range []bool{false, true} {
		var prov *obs.Provenance
		if ledger {
			prov = obs.NewProvenance()
		}
		twoWayExchange(t, prov)
		if prov == nil {
			continue
		}
		if err := prov.Verify(); err != nil {
			t.Error(err)
		}
		if got := prov.Outcomes()[obs.Delivered]; got == 0 {
			t.Error("ledger recorded no delivered frame")
		}
	}
}

// twoWayExchange runs §6's exchange: the device announces a receive
// window; the base station injects a response inside it. A non-nil prov
// is attached to the medium first.
func twoWayExchange(t *testing.T, prov *obs.Provenance) {
	t.Helper()
	r := newRig()
	if prov != nil {
		r.med.ObserveProvenance(prov)
	}
	sensor := NewSensor(r.sched, r.med, SensorConfig{
		DeviceID: 0x33, Position: pos(0, 0), RxWindow: 30 * time.Millisecond, SkipBoot: true,
	})
	responder := NewResponder(r.sched, r.med, "base", pos(2, 0), 6)
	responder.Queue(0x33, []Reading{RawReading([]byte("set-interval=60"))})

	var downlink *Message
	sensor.OnDownlink = func(m *Message) { downlink = m }

	var txOK *bool
	sensor.TransmitOnce([]Reading{Temperature(17)}, func(ok bool) { txOK = &ok })
	r.sched.Run()

	if txOK == nil || !*txOK {
		t.Fatal("uplink failed")
	}
	if downlink == nil {
		t.Fatal("no downlink received in the window")
	}
	if string(downlink.Readings[0].Raw) != "set-interval=60" {
		t.Fatalf("downlink payload %q", downlink.Readings[0].Raw)
	}
	if !downlink.Downlink || downlink.Seq != 0 {
		t.Fatalf("downlink header: %+v", downlink)
	}
	if responder.Stats.Responses != 1 || responder.Stats.WindowsSeen != 1 {
		t.Fatalf("responder stats: %+v", responder.Stats)
	}
	if responder.PendingFor(0x33) {
		t.Fatal("queue not drained")
	}
	if sensor.Stats.Downlinks != 1 {
		t.Fatalf("sensor downlinks = %d", sensor.Stats.Downlinks)
	}
	// After the window the device is asleep again.
	if sensor.Dev.GetState() != esp32.StateDeepSleep {
		t.Fatal("sensor not asleep after window")
	}
}

func TestTwoWayNoDataNoResponse(t *testing.T) {
	r := newRig()
	sensor := NewSensor(r.sched, r.med, SensorConfig{
		DeviceID: 0x44, Position: pos(0, 0), RxWindow: 20 * time.Millisecond, SkipBoot: true,
	})
	responder := NewResponder(r.sched, r.med, "base", pos(2, 0), 6)
	got := false
	sensor.OnDownlink = func(*Message) { got = true }
	sensor.TransmitOnce([]Reading{Temperature(1)}, nil)
	r.sched.Run()
	if got {
		t.Fatal("downlink without queued data")
	}
	if responder.Stats.WindowsSeen != 1 {
		t.Fatalf("windows seen = %d", responder.Stats.WindowsSeen)
	}
}

func TestDownlinkMissesClosedWindow(t *testing.T) {
	// A downlink injected after the window closes is not received.
	r := newRig()
	sensor := NewSensor(r.sched, r.med, SensorConfig{
		DeviceID: 0x55, Position: pos(0, 0), RxWindow: 10 * time.Millisecond, SkipBoot: true,
	})
	got := false
	sensor.OnDownlink = func(*Message) { got = true }
	sensor.TransmitOnce([]Reading{Temperature(1)}, nil)
	r.sched.RunFor(100 * time.Millisecond)

	// Too late: inject now.
	late := NewSensor(r.sched, r.med, SensorConfig{DeviceID: 0x56, Position: pos(1, 0), SkipBoot: true})
	resp := &Message{DeviceID: 0x55, Seq: 0, Downlink: true, Readings: []Reading{Counter(1)}}
	b, _ := BuildBeacon(late.BSSID(), 6, resp, nil)
	late.Port.SetRadioOn(true)
	late.Port.Send(b, nil)
	r.sched.Run()

	if got {
		t.Fatal("downlink received outside the window")
	}
}

// TestJitterDesynchronizesCoPeriodicSensors reproduces the §6 argument:
// "if two devices happen to transmit at the same time and they have the
// same transmission period, their transmissions will automatically differ
// away from each other due to the jitter of their clocks."
func TestJitterDesynchronizesCoPeriodicSensors(t *testing.T) {
	r := newRig()
	const n = 2
	var sensors []*Sensor
	for i := 0; i < n; i++ {
		s := NewSensor(r.sched, r.med, SensorConfig{
			DeviceID: uint32(0x100 + i), Position: pos(float64(i), 0),
			Period: 10 * time.Second, JitterPPM: 40, SkipBoot: true,
			Seed: uint64(1000 + i),
		})
		sensors = append(sensors, s)
	}
	scanner := NewScanner(r.sched, r.med, ScannerConfig{Position: pos(0.5, 0.5)})
	scanner.Start()
	txTimes := map[uint32][]sim.Time{}
	scanner.OnMessage = func(m *Message, meta Meta) {
		txTimes[m.DeviceID] = append(txTimes[m.DeviceID], meta.At)
	}
	for _, s := range sensors {
		s.Run()
	}
	// Run for 200 cycles.
	r.sched.RunUntil(2000 * sim.Second)
	for _, s := range sensors {
		s.Stop()
	}

	a, b := txTimes[0x100], txTimes[0x101]
	if len(a) < 150 || len(b) < 150 {
		t.Fatalf("deliveries: %d/%d — collisions not self-resolving", len(a), len(b))
	}
	// The offset between the two series must drift: compare the offset in
	// the first and last common cycles.
	k := len(a)
	if len(b) < k {
		k = len(b)
	}
	first := math.Abs(float64(a[0] - b[0]))
	last := math.Abs(float64(a[k-1] - b[k-1]))
	if last == first {
		t.Fatal("transmission offset never drifted")
	}
	// Both devices' messages keep flowing (CSMA + drift resolve overlap).
	recA, _ := scanner.Device(0x100)
	recB, _ := scanner.Device(0x101)
	lossA := float64(recA.Lost) / float64(recA.Lost+recA.Messages)
	lossB := float64(recB.Lost) / float64(recB.Lost+recB.Messages)
	if lossA > 0.05 || lossB > 0.05 {
		t.Fatalf("loss rates %.2f/%.2f despite jitter+CSMA", lossA, lossB)
	}
}

func TestMultiFragmentBeaconEndToEnd(t *testing.T) {
	r := newRig()
	sensor := NewSensor(r.sched, r.med, SensorConfig{DeviceID: 0x66, Position: pos(0, 0), SkipBoot: true})
	scanner := NewScanner(r.sched, r.med, ScannerConfig{Position: pos(2, 0)})
	scanner.Start()
	var got *Message
	scanner.OnMessage = func(m *Message, meta Meta) { got = m }

	big := make([]byte, 255)
	for i := range big {
		big[i] = byte(i)
	}
	sensor.TransmitOnce([]Reading{RawReading(big), RawReading(big), RawReading(big)}, nil)
	r.sched.Run()

	if got == nil {
		t.Fatal("multi-fragment message not received")
	}
	if len(got.Readings) != 3 || len(got.Readings[2].Raw) != 255 {
		t.Fatalf("readings: %d", len(got.Readings))
	}
	if sensor.Stats.Fragments < 3 {
		t.Fatalf("fragments = %d, expected ≥3 vendor elements", sensor.Stats.Fragments)
	}
}

func TestHundredSensorScale(t *testing.T) {
	// §6's "network of IoT devices" at deployment scale: 100 co-located
	// sensors sharing one channel at a 10 s period. CSMA plus crystal
	// jitter must keep near-complete delivery with negligible collisions.
	r := newRig()
	const n = 100
	const cycles = 20
	period := 10 * time.Second
	for i := 0; i < n; i++ {
		s := NewSensor(r.sched, r.med, SensorConfig{
			DeviceID:  uint32(0x9000 + i),
			Position:  pos(float64(i%10)*0.5, float64(i/10)*0.5),
			Period:    period,
			JitterPPM: 40,
			SkipBoot:  true,
			Seed:      uint64(7000 + i),
		})
		s.Run()
	}
	scanner := NewScanner(r.sched, r.med, ScannerConfig{Position: pos(2.25, 2.25)})
	scanner.Start()
	r.sched.RunUntil(sim.FromDuration(period) * sim.Time(cycles))

	expected := n * (cycles - 1)
	got := scanner.Stats.Messages
	rate := float64(got) / float64(expected)
	t.Logf("scale: %d/%d delivered (%.1f%%), %d collisions, %d medium transmissions",
		got, expected, rate*100, r.med.Stats.Collisions, r.med.Stats.Transmissions)
	if rate < 0.97 {
		t.Fatalf("delivery %.2f below 0.97 at %d sensors", rate, n)
	}
	if len(scanner.Devices()) != n {
		t.Fatalf("registry has %d devices", len(scanner.Devices()))
	}
	// Loss accounting stays consistent with delivery.
	totalLost := 0
	for _, rec := range scanner.Devices() {
		totalLost += rec.Lost
	}
	if got+totalLost < expected*99/100 {
		t.Fatalf("messages(%d)+lost(%d) inconsistent with expected(%d)", got, totalLost, expected)
	}
}
