package battery

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"wile/internal/units"
)

// ESP32 electrical facts used in the scenarios.
var (
	brownoutV  = units.Volts(2.43) // ESP32 default brownout threshold
	txBurstA   = units.MilliAmps(180)
	txBurstDur = 150 * time.Microsecond
)

func TestFreshCellsStartFull(t *testing.T) {
	for _, chem := range []Chemistry{CR2032, AA2, LiSOCl2AA} {
		if v := NewCell(chem).TerminalV(0); math.Abs(float64(v-chem.NominalV)) > 0.01 {
			t.Errorf("%s unloaded voltage %v", chem.Name, float64(v))
		}
	}
}

func TestCR2032CannotSupplyWiFiBurst(t *testing.T) {
	// The deployment reality behind the paper's coin-cell comparison: a
	// fresh CR2032 sags 0.18 A × 15 Ω = 2.7 V under a WiFi TX burst —
	// instant brownout. BLE's ≤20 mA peak survives easily.
	c := NewCell(CR2032)
	if c.CanSupply(txBurstA, brownoutV) {
		t.Fatalf("CR2032 claims to supply 180 mA (terminal %.2f V)", float64(c.TerminalV(txBurstA)))
	}
	if !c.CanSupply(units.MilliAmps(20), brownoutV) {
		t.Fatalf("CR2032 cannot even supply a BLE burst (terminal %.2f V)", float64(c.TerminalV(units.MilliAmps(20))))
	}
}

func TestAAPairSuppliesWiFiBurstDirectly(t *testing.T) {
	c := NewCell(AA2)
	if !c.CanSupply(txBurstA, brownoutV) {
		t.Fatalf("2×AA sags to %.2f V under TX", float64(c.TerminalV(txBurstA)))
	}
}

func TestBulkCapacitorFixesTheCoinCell(t *testing.T) {
	// The standard fix: a bulk capacitor supplies the burst; the cell
	// recharges it at microamp rates between 10-minute reports. The sizing
	// math: 0.18 A × 150 µs / 0.57 V ≈ 47 µF — a tiny ceramic.
	need := MinCapacitor(units.Volts(3.0), brownoutV, txBurstA, txBurstDur)
	if math.Abs(need.Micro()-47.37) > 0.01 {
		t.Fatalf("required capacitor %.2f µF, want ≈47.37 µF", need.Micro())
	}
	// That capacitor's rail ends the burst exactly at the brownout
	// threshold: ΔV = I·t/C.
	end := 3.0 - float64(units.Charge(txBurstA, txBurstDur))/float64(need)
	if math.Abs(end-float64(brownoutV)) > 1e-9 {
		t.Fatalf("rail ends the burst at %.6f V, want %.2f V", end, float64(brownoutV))
	}
}

func TestVoltageMonotoneInLoad(t *testing.T) {
	f := func(loadMA uint16) bool {
		c := NewCell(CR2032)
		load := units.MilliAmps(float64(loadMA % 500))
		return c.TerminalV(load) <= c.TerminalV(0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringFormat(t *testing.T) {
	s := NewCell(CR2032).String()
	if s == "" {
		t.Fatal("empty string")
	}
}
