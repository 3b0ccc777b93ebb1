package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"

	"wile/internal/energy"
	"wile/internal/engine"
	"wile/internal/units"
)

// Table1Row is one technology's measured column of Table 1, next to the
// published values.
type Table1Row struct {
	Measurement
	// PaperEnergy / PaperIdle are the published values for comparison.
	PaperEnergy units.Joules
	PaperIdle   units.Amps
}

// EnergyError reports the relative deviation from the paper's value.
func (r Table1Row) EnergyError() float64 {
	return units.Ratio(r.EnergyPerPacket-r.PaperEnergy, r.PaperEnergy)
}

// Table1Result reproduces Table 1.
type Table1Result struct {
	Rows []Table1Row
	// WiLEFullCycle is the as-prototyped Wi-LE wake-cycle energy
	// (§5.4 notes the prototype's init dominates and an ASIC would
	// remove it; Table 1's Wi-LE row counts the TX window only).
	WiLEFullCycle units.Joules
}

// RunTable1 measures all four scenarios, one engine point each. Every
// measurement builds its own sim world, so the rows are independent and
// shard cleanly; the merged result is row-for-row identical to a serial
// loop.
func RunTable1() (*Table1Result, error) {
	type point struct {
		row Table1Row
		// fullCycle is nonzero only for the Wi-LE point.
		fullCycle units.Joules
	}
	// Each point measures one scenario and pairs it with the paper's row.
	points := []func() (point, error){
		func() (point, error) {
			m, fullCycle, err := MeasureWiLE()
			return point{Table1Row{m, units.MicroJoules(84), units.MicroAmps(2.5)}, fullCycle}, err
		},
		func() (point, error) {
			return point{row: Table1Row{MeasureBLE(), units.MicroJoules(71), units.MicroAmps(1.1)}}, nil
		},
		func() (point, error) {
			m, err := MeasureWiFiDC()
			return point{row: Table1Row{m, units.MilliJoules(238.2), units.MicroAmps(2.5)}}, err
		},
		func() (point, error) {
			m, err := MeasureWiFiPS()
			return point{row: Table1Row{m, units.MilliJoules(19.8), units.MicroAmps(4500)}}, err
		},
	}
	ps, err := engine.Map(Pool(), len(points), func(i int) (point, error) {
		return points[i]()
	})
	if err != nil {
		return nil, err
	}
	res := &Table1Result{Rows: make([]Table1Row, len(ps))}
	for i, p := range ps {
		res.Rows[i] = p.row
		res.WiLEFullCycle += p.fullCycle
	}
	return res, nil
}

// Scenarios converts the result to Equation-1 scenarios for Figure 4.
func (t *Table1Result) Scenarios() []energy.Scenario {
	out := make([]energy.Scenario, 0, len(t.Rows))
	for _, r := range t.Rows {
		out = append(out, r.Scenario)
	}
	return out
}

// Render prints the table in the paper's layout plus measured-vs-paper
// deltas.
func (t *Table1Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table 1: Energy required to transmit a message and idle current")
	fmt.Fprintln(w, strings.Repeat("-", 78))
	fmt.Fprintf(w, "%-16s %12s %12s %9s %12s %12s\n",
		"", "Wi-LE", "BLE", "", "WiFi-DC", "WiFi-PS")
	row := func(label string, f func(Table1Row) string) {
		fmt.Fprintf(w, "%-16s %12s %12s %9s %12s %12s\n",
			label, f(t.Rows[0]), f(t.Rows[1]), "", f(t.Rows[2]), f(t.Rows[3]))
	}
	row("Energy/packet", func(r Table1Row) string { return energy.FormatJoules(r.EnergyPerPacket) })
	row("  (paper)", func(r Table1Row) string { return energy.FormatJoules(r.PaperEnergy) })
	row("  (delta)", func(r Table1Row) string { return fmt.Sprintf("%+.1f%%", r.EnergyError()*100) })
	row("Idle current", func(r Table1Row) string { return energy.FormatAmps(r.IdleCurrent) })
	row("  (paper)", func(r Table1Row) string { return energy.FormatAmps(r.PaperIdle) })
	fmt.Fprintln(w, strings.Repeat("-", 78))
	fmt.Fprintf(w, "Wi-LE full wake cycle (prototype incl. MCU boot): %s\n",
		energy.FormatJoules(t.WiLEFullCycle))
	fmt.Fprintf(w, "Wi-LE episode duration %v; WiFi-DC episode duration %v\n",
		t.Rows[0].TxDuration.Round(time.Millisecond),
		t.Rows[2].TxDuration.Round(time.Millisecond))
}
