// Package battery models the power source the paper's battery-life claims
// assume: a fresh coin cell (or AA pair) with internal resistance and a
// load-dependent terminal voltage.
//
// This matters for Wi-LE specifically. The energy numbers say a Wi-LE
// device rivals BLE on a CR2032 — but a CR2032's internal resistance is
// tens of ohms, and a WiFi transmit burst draws ~180 mA: the terminal
// voltage sags by I·R ≈ several volts, far below the ESP32's brownout
// threshold. BLE radios draw ≤20 mA and survive. The practical fix (and
// what real WiFi-on-coin-cell designs do) is a bulk capacitor that supplies
// the burst while the cell recharges it between transmissions; MinCapacitor
// sizes it. cmd/wile-lab's feasibility block prints both the failure and
// the fix. Capacity lives in energy.CR2032Capacity, which the battery-life
// projection reads.
package battery

import (
	"time"

	"wile/internal/units"
)

// Chemistry describes one battery type.
type Chemistry struct {
	Name string
	// NominalV is the open-circuit voltage of a fresh cell.
	NominalV units.Volts
	// InternalOhms is the fresh-cell internal resistance.
	InternalOhms units.Ohms
}

// Standard cells used by the examples and projections.
var (
	// CR2032: the "small button battery" of the paper's BLE claim.
	CR2032 = Chemistry{Name: "CR2032", NominalV: units.Volts(3.0), InternalOhms: units.Ohms(15)}
	// AA2 is a pair of alkaline AAs in series — what ESP32 sensor designs
	// actually ship with.
	AA2 = Chemistry{Name: "2×AA", NominalV: units.Volts(3.0), InternalOhms: units.Ohms(0.3)}
	// LiSOCl2AA is a lithium thionyl chloride AA, the long-life industrial
	// IoT favourite.
	LiSOCl2AA = Chemistry{Name: "Li-SOCl2 AA", NominalV: units.Volts(3.6), InternalOhms: units.Ohms(20)}
)

// Cell is one fresh battery.
type Cell struct {
	Chem Chemistry
}

// NewCell returns a fresh cell.
func NewCell(chem Chemistry) *Cell { return &Cell{Chem: chem} }

// TerminalV reports the loaded terminal voltage at the given draw.
func (c *Cell) TerminalV(load units.Amps) units.Volts {
	return c.Chem.NominalV - units.IRDrop(load, c.Chem.InternalOhms)
}

// CanSupply reports whether the cell holds the rail above minV at the
// given draw.
func (c *Cell) CanSupply(load units.Amps, minV units.Volts) bool {
	return c.TerminalV(load) >= minV
}

// MinCapacitor sizes the bulk capacitor for a burst; +Inf when startV
// does not clear minV.
func MinCapacitor(startV, minV units.Volts, load units.Amps, d time.Duration) units.Farads {
	return units.MinCapacitance(startV, minV, load, d)
}
