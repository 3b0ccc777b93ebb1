package experiment

import (
	"math"
	"strings"
	"testing"
	"time"

	"wile/internal/crypto80211"
	"wile/internal/dot11"
	"wile/internal/esp32"
	"wile/internal/medium"
	"wile/internal/meter"
	"wile/internal/netstack"
	"wile/internal/sim"
	"wile/internal/units"
)

// --- Table 1 ---

func TestTable1ReproducesPaper(t *testing.T) {
	res, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// Absolute values within 15% of the paper (the power model is
	// calibrated from the paper's own figures, so this checks the whole
	// pipeline, not just constants).
	for _, r := range res.Rows {
		if e := math.Abs(r.EnergyError()); e > 0.15 {
			t.Errorf("%s energy %.3g J deviates %.0f%% from paper %.3g J",
				r.Name, float64(r.EnergyPerPacket), e*100, float64(r.PaperEnergy))
		}
		if r.IdleCurrent != r.PaperIdle {
			t.Errorf("%s idle %.3g A, paper %.3g A", r.Name, float64(r.IdleCurrent), float64(r.PaperIdle))
		}
	}
	// Relative claims — the shape that must hold:
	byName := map[string]Table1Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	wile, ble := byName["Wi-LE"], byName["BLE"]
	dc, ps := byName["WiFi-DC"], byName["WiFi-PS"]
	// "Wi-LE's energy per packet is 84 µJ which is very close to that of
	// BLE": within 1.5×.
	if ratio := units.Ratio(wile.EnergyPerPacket, ble.EnergyPerPacket); ratio < 0.67 || ratio > 1.5 {
		t.Errorf("Wi-LE/BLE energy ratio %.2f not close", ratio)
	}
	// "the energy per packet for BLE is almost three orders of magnitude
	// lower than WiFi-PS".
	if units.Ratio(ps.EnergyPerPacket, ble.EnergyPerPacket) < 100 {
		t.Error("WiFi-PS not ≫ BLE")
	}
	// WiFi-PS is "an order of magnitude smaller" than WiFi-DC.
	if units.Ratio(dc.EnergyPerPacket, ps.EnergyPerPacket) < 8 {
		t.Errorf("WiFi-DC/WiFi-PS ratio %.1f, want ≳10", units.Ratio(dc.EnergyPerPacket, ps.EnergyPerPacket))
	}
	// "idle current consumption is about 2000 times more in WiFi-PS".
	if ratio := units.Ratio(ps.IdleCurrent, dc.IdleCurrent); ratio < 1000 || ratio > 3000 {
		t.Errorf("WiFi-PS/WiFi-DC idle ratio %.0f, paper: ~2000", ratio)
	}
	// The prototype's full wake cycle is far above the TX window (the
	// §5.4 discussion about MCU init dominating).
	if res.WiLEFullCycle < 100*wile.EnergyPerPacket {
		t.Error("full-cycle energy implausibly close to TX window")
	}
}

func TestTable1Render(t *testing.T) {
	res, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Wi-LE", "BLE", "WiFi-DC", "WiFi-PS", "Energy/packet", "Idle current"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Deterministic(t *testing.T) {
	a, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i].EnergyPerPacket != b.Rows[i].EnergyPerPacket {
			t.Fatalf("%s energy differs across runs", a.Rows[i].Name)
		}
	}
}

// --- Figure 3 ---

func TestFig3aPhaseStructure(t *testing.T) {
	tr, err := RunFig3a(nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 s at 50 kSa/s.
	if n := len(tr.Meter.Samples); n < 99_000 || n > 100_001 {
		t.Fatalf("%d samples", n)
	}
	// Phase boundaries (paper: init 0.2→0.85, mgmt 0.85→1.15, DHCP/ARP
	// →≈1.75, TX, sleep).
	initStart, initEnd, ok := tr.PhaseBounds("MC/WiFi init")
	if !ok {
		t.Fatal("no init phase mark")
	}
	if initStart != 200*sim.Millisecond {
		t.Errorf("init starts at %v, want 0.2 s", initStart)
	}
	if d := initEnd.Sub(initStart); d < 600*time.Millisecond || d > 700*time.Millisecond {
		t.Errorf("init phase %v, paper: 650 ms", d)
	}
	mgmtStart, mgmtEnd, ok := tr.PhaseBounds("Probe/Auth./Associate")
	if !ok {
		t.Fatal("no mgmt phase mark")
	}
	if d := mgmtEnd.Sub(mgmtStart); d < 200*time.Millisecond || d > 400*time.Millisecond {
		t.Errorf("mgmt phase %v, paper: ≈300 ms", d)
	}
	dhcpStart, dhcpEnd, ok := tr.PhaseBounds("DHCP/ARP")
	if !ok {
		t.Fatal("no DHCP phase mark")
	}
	if d := dhcpEnd.Sub(dhcpStart); d < 400*time.Millisecond || d > 800*time.Millisecond {
		t.Errorf("DHCP phase %v, paper: ≈600 ms", d)
	}
	txAt, _, ok := tr.PhaseBounds("Tx")
	if !ok {
		t.Fatal("no Tx mark")
	}
	if txAt < 1600*sim.Millisecond || txAt > 1900*sim.Millisecond {
		t.Errorf("Tx at %v, paper: ≈1.78 s", txAt)
	}
	// Meter and device integrals agree.
	if math.Abs(float64(tr.Energy-tr.DeviceEnergy)) > float64(tr.DeviceEnergy)*0.02 {
		t.Errorf("meter %.4g J vs device %.4g J", float64(tr.Energy), float64(tr.DeviceEnergy))
	}
	// Episode energy ≈ Table 1 WiFi-DC.
	if tr.Energy < units.Scale(units.MilliJoules(238.2), 0.85) || tr.Energy > units.Scale(units.MilliJoules(238.2), 1.15) {
		t.Errorf("trace energy %.1f mJ vs paper 238.2 mJ", tr.Energy.Milli())
	}
	// The DHCP plateau sits in the 20–30 mA band the paper describes.
	t0, t1 := dhcpStart+50*sim.Millisecond, dhcpEnd-50*sim.Millisecond
	plateau := units.MeanCurrent(tr.Meter.Charge(t0, t1), t1.Sub(t0))
	if plateau < units.MilliAmps(18) || plateau > units.MilliAmps(35) {
		t.Errorf("DHCP plateau %.1f mA, paper: 20-30 mA", plateau.Milli())
	}
	// Spikes reach the TX current during the mgmt exchange.
	var peak units.Amps
	for _, s := range tr.Meter.Samples {
		if s.At >= mgmtStart && s.At < mgmtEnd {
			peak = max(peak, s.Current)
		}
	}
	if peak < units.MilliAmps(170) {
		t.Errorf("mgmt peak %.0f mA, want TX spikes ≈180 mA", peak.Milli())
	}
}

func TestFig3bShorterAndCheaper(t *testing.T) {
	a, err := RunFig3a(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig3b(nil)
	if err != nil {
		t.Fatal(err)
	}
	// §5.2: Wi-LE's init "is shorter when compared with the WiFi case",
	// and the total time and energy are far lower.
	if b.Energy >= units.Scale(a.Energy, 0.5) {
		t.Errorf("Wi-LE trace %.1f mJ not ≪ WiFi %.1f mJ", b.Energy.Milli(), a.Energy.Milli())
	}
	// Wi-LE's whole episode ends well before WiFi even associates.
	var bEnd sim.Time
	for _, mk := range b.Marks {
		if mk.Label == "Sleep" {
			bEnd = mk.At
		}
	}
	if bEnd == 0 || bEnd > 700*sim.Millisecond {
		t.Errorf("Wi-LE back asleep at %v, want < 0.7 s", bEnd)
	}
	// And it has no mgmt/DHCP phases at all.
	if _, _, ok := b.PhaseBounds("DHCP/ARP"); ok {
		t.Error("Wi-LE trace has a DHCP phase")
	}
	if _, _, ok := b.PhaseBounds("Probe/Auth./Associate"); ok {
		t.Error("Wi-LE trace has an association phase")
	}
}

func TestFig3CSVAndASCII(t *testing.T) {
	tr, err := RunFig3b(nil)
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := tr.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "time_s,current_mA") {
		t.Fatal("CSV header missing")
	}
	if !strings.Contains(csv.String(), "# MC/WiFi init") {
		t.Fatal("CSV annotations missing")
	}
	var art strings.Builder
	tr.RenderASCII(&art, 60, 10)
	if !strings.Contains(art.String(), "#") {
		t.Fatal("ASCII plot empty")
	}
}

// TestMeterWithinRectangleBound pins the meter's rectangle-rule integral to
// the device's exact one. A sample holds its reading for one period, so a
// step of ΔI between two samples costs at most |ΔI|·period of charge:
// |meter − device| ≤ Σ|ΔI|·period over the device's steps, scaled here by
// the rail voltage because the trace reports energies.
func TestMeterWithinRectangleBound(t *testing.T) {
	for _, fig := range []struct {
		name string
		run  func(*Obs) (*Trace, error)
	}{{"fig3a", RunFig3a}, {"fig3b", RunFig3b}} {
		name := fig.name
		tr, err := fig.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		var swing units.Amps
		for i := 1; i < len(tr.Steps); i++ {
			d := tr.Steps[i].Current - tr.Steps[i-1].Current
			swing += max(d, -d)
		}
		bound := units.Charge(swing, time.Second/meter.DefaultSampleRate).Energy(esp32.Voltage)
		got := tr.Meter.Energy(0, sim.FromDuration(tr.Window), esp32.Voltage)
		if diff := got - tr.DeviceEnergy; diff > bound || -diff > bound {
			t.Errorf("%s: meter %v vs device %v: |diff| %v over the rectangle bound %v", name, got, tr.DeviceEnergy, diff, bound)
		}
		t.Logf("%s: |meter − device| = %.3g J, bound %.3g J", name, math.Abs(float64(got-tr.DeviceEnergy)), float64(bound))
	}
}

// --- Figure 4 ---

func TestFig4ShapeMatchesPaper(t *testing.T) {
	table, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	fig := RunFig4(table, nil)
	if len(fig.Series) != 4 {
		t.Fatalf("%d series", len(fig.Series))
	}
	byName := map[string][]Fig4Point{}
	for _, s := range fig.Series {
		byName[s.Name] = s.Points
	}
	at := func(name string, interval time.Duration) units.Watts {
		for _, p := range byName[name] {
			if p.Interval == interval {
				return p.Power
			}
		}
		t.Fatalf("no %s point at %v", name, interval)
		return 0
	}
	// Power decreases with interval for every technology.
	for name, pts := range byName {
		for i := 1; i < len(pts); i++ {
			if pts[i].Power > pts[i-1].Power {
				t.Fatalf("%s power increases at %v", name, pts[i].Interval)
			}
		}
	}
	// At one minute: Wi-LE ≈ BLE, both ≥100× below the WiFi modes.
	minute := time.Minute
	if r := units.Ratio(at("Wi-LE", minute), at("BLE", minute)); r < 0.3 || r > 4 {
		t.Errorf("Wi-LE/BLE ratio %.2f at 1 min", r)
	}
	if units.Ratio(at("WiFi-PS", minute), at("Wi-LE", minute)) < 100 {
		t.Error("WiFi-PS not ≫ Wi-LE at 1 min")
	}
	if units.Ratio(at("WiFi-DC", minute), at("Wi-LE", minute)) < 100 {
		t.Error("WiFi-DC not ≫ Wi-LE at 1 min")
	}
	// Crossover: "if a device transmits its data more than once per
	// minute WiFi-PS outperforms WiFi-DC".
	if at("WiFi-DC", 5*time.Second) <= at("WiFi-PS", 5*time.Second) {
		t.Error("WiFi-DC should lose at 5 s intervals")
	}
	if at("WiFi-DC", 5*time.Minute) >= at("WiFi-PS", 5*time.Minute) {
		t.Error("WiFi-DC should win at 5 min intervals")
	}
	if fig.CrossoverDCPS <= 0 || fig.CrossoverDCPS > time.Minute {
		t.Errorf("crossover at %v, paper places it below ≈1 minute", fig.CrossoverDCPS)
	}
}

func TestFig4Outputs(t *testing.T) {
	table, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	fig := RunFig4(table, []time.Duration{time.Second, time.Minute, 5 * time.Minute})
	var csv strings.Builder
	if err := fig.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "interval_s,Wi-LE_mW,BLE_mW,WiFi-DC_mW,WiFi-PS_mW") {
		t.Fatalf("CSV header %q", lines[0])
	}
	var art strings.Builder
	fig.RenderASCII(&art, 60, 12)
	for _, g := range []string{"w", "b", "D", "P"} {
		if !strings.Contains(art.String(), g) {
			t.Errorf("ASCII plot missing %q glyph", g)
		}
	}
}

// --- §3.1 claims ---

func TestClaimsMatchPaper(t *testing.T) {
	c, err := RunClaims()
	if err != nil {
		t.Fatal(err)
	}
	if c.EAPOLFrames != 4 {
		t.Errorf("EAPOL frames = %d", c.EAPOLFrames)
	}
	if c.FourWayFrames < 8 {
		t.Errorf("4-way exchange %d frames, paper: at least 8", c.FourWayFrames)
	}
	if c.HigherLayerFrames != 7 {
		t.Errorf("higher-layer (CCMP-protected) frames = %d, paper: 7", c.HigherLayerFrames)
	}
	if c.MACLayerFrames < 19 || c.MACLayerFrames > 21 {
		t.Errorf("MAC-layer frames = %d, paper: ≈20", c.MACLayerFrames)
	}
	if c.BeaconsDuringJoin < 5 {
		t.Errorf("beacons during join = %d, expected ≈10 over ≈1.1 s", c.BeaconsDuringJoin)
	}
	var sb strings.Builder
	c.Render(&sb)
	if !strings.Contains(sb.String(), "MAC-layer frames") {
		t.Error("render incomplete")
	}
}

// joinMSDUs counts decrypted join MSDUs by protocol.
type joinMSDUs struct{ dhcp, arp, other int }

// add classifies one decrypted MSDU as DHCP, ARP or anything else.
func (c *joinMSDUs) add(msdu []byte) {
	et, payload, err := netstack.UnwrapSNAP(msdu)
	switch {
	case err != nil:
	case et == netstack.EtherTypeARP:
		if _, err := netstack.ParseARP(payload); err == nil {
			c.arp++
			return
		}
	case et == netstack.EtherTypeIPv4:
		if _, body, err := netstack.ParseIPv4(payload); err == nil {
			if _, data, err := netstack.ParseUDP(body); err == nil {
				if _, err := netstack.ParseDHCP(data); err == nil {
					c.dhcp++
					return
				}
			}
		}
	}
	c.other++
}

// TestSnifferConfirmsFourPlusThree looks inside the CCMP frames RunClaims
// counts: a sniffer that knows the passphrase decrypts the join, and the
// seven pairwise-protected MSDUs (the paper's higher-layer frames) are
// exactly 4 DHCP and 3 ARP, while the four group relays are the AP
// re-broadcasting 2 DHCP and 2 ARP.
func TestSnifferConfirmsFourPlusThree(t *testing.T) {
	b := newWiFiBed(nil)
	sniffer := crypto80211.NewSniffer(testPassphrase, testSSID)
	var pairwise, group joinMSDUs
	b.monitor(func(f dot11.Frame, _ medium.Reception) {
		if b.sta.Joined() {
			return // the join's frames only, as RunClaims counts them
		}
		msdu, ok := sniffer.Observe(f)
		if !ok {
			return
		}
		if d := f.(*dot11.Data); d.Header.FC.FromDS && d.RA().IsGroup() {
			group.add(msdu)
		} else {
			pairwise.add(msdu)
		}
	})
	if err := b.join("sniffer", 5*sim.Second); err != nil {
		t.Fatal(err)
	}
	if s := sniffer.Stats; s.HandshakesSeen != 1 || s.Undecryptable != 0 {
		t.Fatalf("sniffer saw %d handshakes and %d undecryptable frames, want 1 and 0",
			s.HandshakesSeen, s.Undecryptable)
	}
	if want := (joinMSDUs{dhcp: 4, arp: 3}); pairwise != want {
		t.Errorf("pairwise-protected MSDUs %+v, want %+v", pairwise, want)
	}
	if want := (joinMSDUs{dhcp: 2, arp: 2}); group != want {
		t.Errorf("group-protected MSDUs %+v, want %+v", group, want)
	}
	c, err := RunClaims()
	if err != nil {
		t.Fatal(err)
	}
	if n := pairwise.dhcp + pairwise.arp + pairwise.other; n != c.HigherLayerFrames || n != 7 {
		t.Errorf("%d pairwise-protected MSDUs, RunClaims counts %d higher-layer frames, want 7", n, c.HigherLayerFrames)
	}
	if n := group.dhcp + group.arp + group.other; n != c.GroupRelays || n != 4 {
		t.Errorf("%d group-protected MSDUs, RunClaims counts %d group relays, want 4", n, c.GroupRelays)
	}
}

// --- Ablations ---

func TestBitrateAblationShape(t *testing.T) {
	points, err := RunBitrateAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 21 {
		t.Fatalf("%d rates", len(points))
	}
	// Energy at 1 Mb/s DSSS is an order of magnitude above MCS7-SGI: the
	// reason §5.4 injects at 72 Mb/s.
	first, last := points[0], points[len(points)-1]
	if first.Rate.Name != "DSSS-1" || last.Rate.Name != "MCS7-SGI" {
		t.Fatalf("unexpected ordering: %s .. %s", first.Rate.Name, last.Rate.Name)
	}
	if first.Energy < 4*last.Energy {
		t.Errorf("DSSS-1 %.1f µJ not ≫ MCS7-SGI %.1f µJ", first.Energy.Micro(), last.Energy.Micro())
	}
	if last.Energy > units.MicroJoules(100) {
		t.Errorf("MCS7-SGI point %.1f µJ implausibly high", last.Energy.Micro())
	}
	// Within one modulation family, energy never increases with rate. Not
	// across families: a DSSS long preamble can cost more than a slower
	// OFDM rate.
	for i := 1; i < len(points); i++ {
		prev, p := points[i-1], points[i]
		if p.Rate.Mod != prev.Rate.Mod {
			continue
		}
		if p.Rate.KbPerSec <= prev.Rate.KbPerSec {
			t.Fatalf("%s does not follow %s in ascending rate", p.Rate.Name, prev.Rate.Name)
		}
		if p.Energy > prev.Energy {
			t.Errorf("%s costs %.3f µJ, more than the slower %s at %.3f µJ",
				p.Rate.Name, p.Energy.Micro(), prev.Rate.Name, prev.Energy.Micro())
		}
	}
}

func TestPayloadAblationKink(t *testing.T) {
	points, err := RunPayloadAblation(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fragments step up past the per-element capacity.
	sawOne, sawTwo := false, false
	for _, p := range points {
		switch p.Fragments {
		case 1:
			sawOne = true
		case 2, 3, 4:
			sawTwo = true
		}
		if p.PayloadBytes > 0 && p.Energy <= 0 {
			t.Fatal("non-positive energy")
		}
	}
	if !sawOne || !sawTwo {
		t.Fatalf("fragmentation kink not observed (one=%v multi=%v)", sawOne, sawTwo)
	}
	// Energy never decreases from one payload size to the next, and grows
	// over the whole sweep.
	if len(points) != 180 {
		t.Fatalf("%d payload sizes, want 180", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Energy < points[i-1].Energy {
			t.Errorf("%d B costs %.3f µJ, less than %d B at %.3f µJ", points[i].PayloadBytes,
				points[i].Energy.Micro(), points[i-1].PayloadBytes, points[i-1].Energy.Micro())
		}
	}
	if points[len(points)-1].Energy <= points[0].Energy {
		t.Error("energy not increasing with payload")
	}
}

func TestListenIntervalAblationCalibration(t *testing.T) {
	points := RunListenIntervalAblation()
	if len(points) != 10 {
		t.Fatalf("%d points", len(points))
	}
	// LI=3 is Table 1's WiFi-PS idle current, to float rounding.
	li3, want := points[2].IdleCurrent, esp32.StateCurrent(esp32.StateWiFiPSIdle)
	if math.Abs(float64(li3-want)) > 1e-12 {
		t.Errorf("LI=3 idle %v mA, want esp32.StateWiFiPSIdle's %v mA", li3.Milli(), want.Milli())
	}
	// Monotonically decreasing in LI.
	for i := 1; i < len(points); i++ {
		if points[i].IdleCurrent >= points[i-1].IdleCurrent {
			t.Fatal("idle current not decreasing with listen interval")
		}
	}
}

func TestJitterStudySelfDesynchronization(t *testing.T) {
	// 400 cycles: at 40 ppm over a 10 s period the per-cycle drift is
	// ~400 µs, so the random-walk offset needs a few hundred cycles to
	// leave the 5 ms contention window.
	points := RunJitterStudy([]float64{0, 40}, 400)
	if len(points) != 2 {
		t.Fatalf("%d points", len(points))
	}
	zero, real := points[0], points[1]
	// Even with perfect clocks CSMA keeps delivery high; with real
	// crystals the schedules drift apart and delivery is essentially
	// complete — the §6 claim.
	if real.DeliveryRate < 0.99 {
		t.Errorf("40 ppm delivery %.3f, want ≈1", real.DeliveryRate)
	}
	if zero.DeliveryRate < 0.90 {
		t.Errorf("0 ppm delivery %.3f (CSMA should still mostly work)", zero.DeliveryRate)
	}
	if real.DeliveryRate < zero.DeliveryRate {
		t.Error("jitter made things worse")
	}
	// The §6 mechanism: with perfect clocks every cycle contends (CSMA
	// must arbitrate); with real crystals the schedules drift apart.
	if zero.ContendedCycles < zero.Cycles*9/10 {
		t.Errorf("0 ppm contended %d/%d cycles, want ~all", zero.ContendedCycles, zero.Cycles)
	}
	if real.ContendedCycles >= zero.ContendedCycles {
		t.Errorf("40 ppm contention (%d) did not decay below 0 ppm (%d)",
			real.ContendedCycles, zero.ContendedCycles)
	}
}

// TestJitterDeliveryRateAtMostOne: a fast crystal fits one more wake into
// the window than 2×cycles, so the rate must divide by what was sent.
func TestJitterDeliveryRateAtMostOne(t *testing.T) {
	for _, cycles := range []int{50, 200} {
		for _, p := range RunJitterStudy(nil, cycles) {
			if p.DeliveryRate > 1 {
				t.Errorf("%v ppm, %d cycles: delivery rate %.4f (%d delivered) above 1",
					p.PPM, cycles, p.DeliveryRate, p.Delivered)
			}
		}
	}
}

func TestHiddenSSIDAblation(t *testing.T) {
	res, err := RunHiddenSSIDAblation()
	if err != nil {
		t.Fatal(err)
	}
	if res.HiddenBytes >= res.VisibleBytes {
		t.Fatal("hidden beacon not smaller")
	}
	if res.VisibleBytes-res.HiddenBytes != 20 {
		t.Errorf("SSID delta %d bytes, want 20", res.VisibleBytes-res.HiddenBytes)
	}
	if res.HiddenAirtime > res.VisibleAirtime {
		t.Fatal("hidden beacon slower")
	}
}

func TestBatteryProjection(t *testing.T) {
	table, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	points := RunBatteryProjection(table, time.Minute)
	byName := map[string]time.Duration{}
	for _, p := range points {
		byName[p.Name] = p.Life
	}
	year := 365 * 24 * time.Hour
	if byName["BLE"] < year {
		t.Errorf("BLE coin-cell life %v, paper: over a year", byName["BLE"])
	}
	if byName["Wi-LE"] < year {
		t.Errorf("Wi-LE coin-cell life %v, want over a year", byName["Wi-LE"])
	}
	if byName["WiFi-DC"] > 30*24*time.Hour {
		t.Errorf("WiFi-DC life %v implausibly long", byName["WiFi-DC"])
	}
}

func TestHopperStudyCaptureRateScales(t *testing.T) {
	points := RunHopperStudy([]int{1, 3})
	if len(points) != 2 {
		t.Fatalf("%d points", len(points))
	}
	one, three := points[0], points[1]
	// Single channel: the hopper never leaves it, so it captures
	// everything.
	if one.CaptureRate < 0.95 {
		t.Errorf("1-channel capture rate %.2f, want ≈1", one.CaptureRate)
	}
	// Three channels: the receiver hears ≈1/3 of the beacons.
	if three.CaptureRate < 0.20 || three.CaptureRate > 0.50 {
		t.Errorf("3-channel capture rate %.2f, want ≈1/3", three.CaptureRate)
	}
	if three.CaptureRate >= one.CaptureRate {
		t.Error("capture rate did not fall with channel count")
	}
}

func TestCapacityStudy(t *testing.T) {
	res, err := RunCapacityStudy(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// The standard beacon occupies well under 200 µs with DCF overhead.
	if res.PerTxAirtime <= res.BeaconAirtime || res.PerTxAirtime > 200*time.Microsecond {
		t.Fatalf("per-tx airtime %v", res.PerTxAirtime)
	}
	// At 10-minute reporting a single channel sustains hundreds of
	// thousands of devices before airtime is even 10% used — the §6
	// "network of IoT devices" is not channel-limited.
	if res.MaxAt10Util < 100_000 {
		t.Fatalf("capacity %d devices implausibly low", res.MaxAt10Util)
	}
	// Capacity scales linearly with period.
	res1, err := RunCapacityStudy(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.MaxAt10Util) / float64(res1.MaxAt10Util)
	if ratio < 9.9 || ratio > 10.1 {
		t.Fatalf("capacity ratio %v, want 10", ratio)
	}
}

func TestFastRejoinSavesTheNetworkPhase(t *testing.T) {
	full, err := MeasureWiFiDC()
	if err != nil {
		t.Fatal(err)
	}
	fast, err := MeasureWiFiDCFast()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("full rejoin %.1f mJ / %v; cached-lease rejoin %.1f mJ / %v",
		full.EnergyPerPacket.Milli(), full.TxDuration.Round(time.Millisecond),
		fast.EnergyPerPacket.Milli(), fast.TxDuration.Round(time.Millisecond))
	// Skipping DHCP/ARP removes the ≈640 ms network-wait plateau:
	// roughly 40 mJ and over half a second.
	saved := full.EnergyPerPacket - fast.EnergyPerPacket
	if saved < units.MilliJoules(30) || saved > units.MilliJoules(60) {
		t.Errorf("fast rejoin saves %.1f mJ, expected ≈40 mJ", saved.Milli())
	}
	if full.TxDuration-fast.TxDuration < 500*time.Millisecond {
		t.Errorf("fast rejoin saves only %v", full.TxDuration-fast.TxDuration)
	}
	// And yet it remains three orders of magnitude above Wi-LE — the
	// paper's point survives every conventional optimization.
	wile, _, err := MeasureWiLE()
	if err != nil {
		t.Fatal(err)
	}
	if units.Ratio(fast.EnergyPerPacket, wile.EnergyPerPacket) < 1000 {
		t.Errorf("fast rejoin only %.0f× Wi-LE", units.Ratio(fast.EnergyPerPacket, wile.EnergyPerPacket))
	}
}

func TestGoodputStudy(t *testing.T) {
	res, err := RunGoodputStudy()
	if err != nil {
		t.Fatal(err)
	}
	// One Wi-LE fragment carries ~8× a BLE advertisement.
	if res.WiLEPayloadPerMsg < 7*res.BLEPayloadPerMsg {
		t.Errorf("Wi-LE %d B/msg vs BLE %d B/msg", res.WiLEPayloadPerMsg, res.BLEPayloadPerMsg)
	}
	if res.WiLEMaxPerBeacon < 3000 {
		t.Errorf("multi-fragment ceiling %d B", res.WiLEMaxPerBeacon)
	}
	// Per delivered byte Wi-LE beats BLE by a wide margin.
	ratio := res.BLEJoulesPerByte / res.WiLEJoulesPerByte
	t.Logf("energy per byte: Wi-LE %.2f µJ/B, BLE %.2f µJ/B (%.1f×)",
		res.WiLEJoulesPerByte*1e6, res.BLEJoulesPerByte*1e6, ratio)
	if ratio < 4 {
		t.Errorf("Wi-LE per-byte advantage only %.1f×", ratio)
	}
}

func TestJoinCaptureRoundTrips(t *testing.T) {
	packets, err := RunJoinCapture()
	if err != nil {
		t.Fatal(err)
	}
	if len(packets) < 40 {
		t.Fatalf("capture has %d frames", len(packets))
	}
	kinds := map[string]int{}
	protected := 0
	for _, p := range packets {
		f, err := dot11.Decode(p.Data)
		if err != nil {
			t.Fatalf("captured frame does not decode: %v", err)
		}
		kinds[f.Kind().String()]++
		if d, ok := f.(*dot11.Data); ok && d.Header.FC.Protected {
			protected++
		}
		if s := dot11.Summarize(f); s == "" {
			t.Fatal("empty summary")
		}
	}
	for _, k := range []string{"beacon", "probe-req", "probe-resp", "auth", "assoc-req", "assoc-resp", "ack", "data"} {
		if kinds[k] == 0 {
			t.Errorf("capture missing %s frames", k)
		}
	}
	if protected < 8 {
		t.Errorf("capture has %d protected frames", protected)
	}
	// Timestamps are nondecreasing.
	for i := 1; i < len(packets); i++ {
		if packets[i].Time < packets[i-1].Time {
			t.Fatal("capture timestamps out of order")
		}
	}
}

func TestInterferenceStudy(t *testing.T) {
	points := RunInterferenceStudy([]float64{0, 0.5, 0.8})
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	clean, half, heavy := points[0], points[1], points[2]
	if clean.DeliveryRate < 0.99 {
		t.Fatalf("clean-channel delivery %.2f", clean.DeliveryRate)
	}
	// Wi-LE's sub-100 µs beacons squeeze through even an 80%-occupied
	// channel: CSMA converts interference into delay, not loss.
	if heavy.DeliveryRate < 0.95 {
		t.Errorf("80%%-duty delivery %.2f", heavy.DeliveryRate)
	}
	if clean.MeanDelay > time.Millisecond {
		t.Errorf("clean-channel baseline delay %v not normalized out", clean.MeanDelay)
	}
	if heavy.MeanDelay <= half.MeanDelay || half.MeanDelay <= clean.MeanDelay {
		t.Errorf("deferral delay not increasing: %v, %v, %v",
			clean.MeanDelay, half.MeanDelay, heavy.MeanDelay)
	}
	t.Logf("delivery/delay: clean %.3f/%v, 50%% %.3f/%v, 80%% %.3f/%v (collisions %d/%d/%d)",
		clean.DeliveryRate, clean.MeanDelay, half.DeliveryRate, half.MeanDelay,
		heavy.DeliveryRate, heavy.MeanDelay, clean.Collisions, half.Collisions, heavy.Collisions)
	// A sweep with a 0-duty point takes the baseline from it; one without
	// runs the clean channel on its own. The two must agree.
	if shared, own := RunInterferenceStudy([]float64{0, 0.5})[1], RunInterferenceStudy([]float64{0.5})[0]; shared != own {
		t.Errorf("50%% point against the sweep's baseline %+v, against its own %+v", shared, own)
	}
}

func TestCarrierAblation(t *testing.T) {
	points, err := RunCarrierAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d carriers", len(points))
	}
	beacon := points[0]
	for _, p := range points[1:] {
		// The alternatives are no cheaper in any meaningful way: within
		// one OFDM symbol of the beacon's airtime.
		if beacon.Airtime-p.Airtime > 8*time.Microsecond {
			t.Errorf("%s saves %v over the beacon — §4's choice costs airtime",
				p.Carrier, beacon.Airtime-p.Airtime)
		}
	}
	// And all three carry the same payload within tens of bytes of
	// framing (the beacon's fixed fields and extra elements cost ~28 B).
	for _, p := range points {
		if p.Bytes < 40 || p.Bytes > 120 {
			t.Errorf("%s is %d bytes", p.Carrier, p.Bytes)
		}
	}
}
