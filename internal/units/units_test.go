package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// TestConstructorRoundTrip pins the constructor/accessor contract:
// MicroX(x).Micro() recovers x to within one ulp for arbitrary floats
// (x/1e6*1e6 double-rounds at pathological magnitudes), and exactly for
// every decimal literal of the kind the power tables are written with —
// TestConstructorBitExactness pins those.
func TestConstructorRoundTrip(t *testing.T) {
	within1Ulp := func(got, want float64) bool {
		if got == want {
			return true
		}
		return math.Nextafter(got, want) == want
	}
	if err := quick.Check(func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		return within1Ulp(MicroJoules(x).Micro(), x) &&
			within1Ulp(MilliJoules(x).Milli(), x) &&
			within1Ulp(MicroAmps(x).Micro(), x) &&
			within1Ulp(MilliAmps(x).Milli(), x) &&
			within1Ulp(MicroWatts(x).Micro(), x) &&
			within1Ulp(MilliWatts(x).Milli(), x) &&
			within1Ulp(MilliAmpHours(x).Milli(), x) &&
			within1Ulp(MicroFarads(x).Micro(), x)
	}, nil); err != nil {
		t.Fatal(err)
	}
	// The paper's own magnitudes round-trip exactly.
	for _, x := range []float64{2.5, 0.8, 4.5, 30, 180, 1.1, 84, 71, 238.2, 19.8, 225} {
		if MicroJoules(x).Micro() != x || MilliAmps(x).Milli() != x {
			t.Errorf("paper magnitude %v does not round-trip exactly", x)
		}
	}
}

// TestConstructorBitExactness pins the property the whole migration leans
// on: a constructor call is bit-identical to spelling the base-unit
// literal directly, for every reference constant in the power tables.
func TestConstructorBitExactness(t *testing.T) {
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"deep-sleep 2.5 µA", float64(MicroAmps(2.5)), 2.5e-6},
		{"light-sleep 0.8 mA", float64(MilliAmps(0.8)), 0.8e-3},
		{"wifi-ps idle 4.5 mA", float64(MilliAmps(4.5)), 4.5e-3},
		{"mcu active 30 mA", float64(MilliAmps(30)), 30e-3},
		{"tx burst 180 mA", float64(MilliAmps(180)), 180e-3},
		{"cc2541 sleep 1.1 µA", float64(MicroAmps(1.1)), 1.1e-6},
		{"wile packet 84 µJ", float64(MicroJoules(84)), 84e-6},
		{"ble event 71 µJ", float64(MicroJoules(71)), 71e-6},
		{"wifi-dc packet 238.2 mJ", float64(MilliJoules(238.2)), 238.2e-3},
		{"wifi-ps packet 19.8 mJ", float64(MilliJoules(19.8)), 19.8e-3},
		{"cr2032 225 mAh", float64(MilliAmpHours(225)), 0.225},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: constructor gives %v (% x), literal is %v (% x)",
				c.name, c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
		}
	}
}

func TestHelpers(t *testing.T) {
	p := Power(Volts(3.3), MilliAmps(30))
	if got := p.Milli(); math.Abs(got-99) > 1e-9 {
		t.Errorf("Power(3.3 V, 30 mA) = %v mW, want 99", got)
	}
	e := Energy(p, 2*time.Second)
	if got := float64(e); math.Abs(got-0.198) > 1e-12 {
		t.Errorf("Energy(99 mW, 2 s) = %v J, want 0.198", got)
	}
	q := Charge(MilliAmps(180), 500*time.Millisecond)
	if got := float64(q); math.Abs(got-0.09) > 1e-12 {
		t.Errorf("Charge(180 mA, 500 ms) = %v C, want 0.09", got)
	}
	if got := float64(q.Energy(Volts(3.3))); math.Abs(got-0.297) > 1e-12 {
		t.Errorf("Charge.Energy = %v J, want 0.297", got)
	}
	if got := float64(MilliAmpHours(225).Energy(Volts(3))); math.Abs(got-2430) > 1e-9 {
		t.Errorf("225 mAh at 3 V = %v J, want 2430", got)
	}
	if got := float64(MeanCurrent(Coulombs(0.09), 500*time.Millisecond)); math.Abs(got-0.18) > 1e-12 {
		t.Errorf("MeanCurrent(0.09 C, 500 ms) = %v A, want 0.18", got)
	}
	if got := float64(AveragePower(Joules(0.198), 2*time.Second)); math.Abs(got-0.099) > 1e-12 {
		t.Errorf("AveragePower(0.198 J, 2 s) = %v W, want 0.099", got)
	}
	if got := float64(IRDrop(Amps(0.18), Ohms(15))); math.Abs(got-2.7) > 1e-12 {
		t.Errorf("IRDrop(0.18 A, 15 Ω) = %v V, want 2.7", got)
	}
}

func TestMinCapacitance(t *testing.T) {
	got := MinCapacitance(Volts(3.0), Volts(2.43), Amps(0.18), 150*time.Microsecond)
	want := 0.18 * 150e-6 / (3.0 - 2.43)
	if math.Abs(float64(got)-want) > 1e-15 {
		t.Errorf("MinCapacitance = %v F, want %v", float64(got), want)
	}
	if !math.IsInf(float64(MinCapacitance(Volts(2.0), Volts(2.43), Amps(0.18), time.Millisecond)), 1) {
		t.Error("MinCapacitance with startV <= minV should be +Inf")
	}
}

// TestBatteryLifeSaturation pins the time.Duration-ceiling behavior: a
// 2.5 µA sleeper on any real battery computes a lifetime that must clamp,
// not overflow into the past.
func TestBatteryLifeSaturation(t *testing.T) {
	const ceiling = time.Duration(1<<63 - 1)
	if got := BatteryLife(Joules(1e30), MicroWatts(1)); got != ceiling {
		t.Errorf("huge energy / tiny power = %v, want saturation at %v", got, ceiling)
	}
	if got := BatteryLife(Joules(1), Watts(0)); got != ceiling {
		t.Errorf("zero power = %v, want saturation", got)
	}
	if got := BatteryLife(Joules(1), Watts(-1)); got != ceiling {
		t.Errorf("negative power = %v, want saturation", got)
	}
	// Exactly representable finite case: 3600 J at 1 W is one hour.
	if got := BatteryLife(Joules(3600), Watts(1)); got != time.Hour {
		t.Errorf("3600 J at 1 W = %v, want 1h", got)
	}
	// Monotone and never negative under quick.Check.
	if err := quick.Check(func(e, p float64) bool {
		e, p = math.Abs(e), math.Abs(p)
		if math.IsNaN(e) || math.IsNaN(p) || math.IsInf(e, 0) || math.IsInf(p, 0) {
			return true
		}
		return BatteryLife(Joules(e), Watts(p)) >= 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScaleAndRatio(t *testing.T) {
	if got := Scale(MilliAmps(100), 0.25); got != MilliAmps(25) {
		t.Errorf("Scale(100 mA, 0.25) = %v, want 25 mA", got)
	}
	if got := Ratio(MicroJoules(84), MicroJoules(71)); math.Abs(got-84.0/71.0) > 1e-15 {
		t.Errorf("Ratio(84 µJ, 71 µJ) = %v, want %v", got, 84.0/71.0)
	}
}

// TestStringNormalization pins the magnitude-scaled formatting, including
// the negative and unit-boundary cases the old float-based formatters got
// wrong (a negative joule value always fell into the µJ branch).
func TestStringNormalization(t *testing.T) {
	joules := []struct {
		in   Joules
		want string
	}{
		{MicroJoules(84), "84.0 µJ"},
		{MilliJoules(19.8), "19.8 mJ"},
		{Joules(1.5), "1.50 J"},
		{MicroJoules(-0.5), "-0.5 µJ"},
		{Joules(-0.5), "-500.0 mJ"},
		{Joules(-2), "-2.00 J"},
		{Joules(1e-3), "1.0 mJ"},
		{Joules(-1e-3), "-1.0 mJ"},
		{Joules(1), "1.00 J"},
		{Joules(0), "0.0 µJ"},
	}
	for _, c := range joules {
		if got := c.in.String(); got != c.want {
			t.Errorf("Joules(%g).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
	amps := []struct {
		in   Amps
		want string
	}{
		{MicroAmps(2.5), "2.5 µA"},
		{MilliAmps(4.5), "4.5 mA"},
		{Amps(1.2), "1.20 A"},
		{MicroAmps(-2.5), "-2.5 µA"},
		{Amps(-0.18), "-180.0 mA"},
		{Amps(1e-3), "1.0 mA"},
		{Amps(-1), "-1.00 A"},
	}
	for _, c := range amps {
		if got := c.in.String(); got != c.want {
			t.Errorf("Amps(%g).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
	watts := []struct {
		in   Watts
		want string
	}{
		{MicroWatts(9.65), "9.65 µW"},
		{MilliWatts(14.85), "14.85 mW"},
		{Watts(2), "2.00 W"},
		{MicroWatts(-9.65), "-9.65 µW"},
		{Watts(-1.5), "-1.50 W"},
		{Watts(1e-3), "1.00 mW"},
	}
	for _, c := range watts {
		if got := c.in.String(); got != c.want {
			t.Errorf("Watts(%g).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}
