package medium

import (
	"cmp"
	"math"
	"slices"
)

// Spatial index for receiver culling (DESIGN.md §12).

// cellsPerRadio caps the index's cells at a multiple of the population, so
// the cell offsets never outweigh the entries however sparse the field.
const cellsPerRadio = 4

// insertionMax is the longest out-of-order hit list gridCandidates sorts
// by insertion; slices.SortFunc, a closure call per comparison, takes
// longer ones. On random lists of 4 and 9 cell runs (2-vCPU Xeon VM),
// insertion is 1.3–2x faster at 64 hits and breaks even between 96 and
// 128, past which its quadratic cost loses.
const insertionMax = 64

// reachPad widens the interference radius for the cell span and the
// squared-distance prefilter. Rounding moves a computed RSSI by ~1e-13 dB,
// and a radio 1e-6 of the radius further out is millions of times that
// below the floor, so the exact RSSI test decides every radio near the
// boundary.
const reachPad = 1e-6

// entry is one indexed radio: a copy of its position, so a query reads no
// Transceiver, and its attach index.
type entry struct {
	pos Position
	idx int32
}

// grid is a uniform grid anchored at the radios' bounding box, flat: at
// holds every radio counting-sorted by cell in row-major order, attach
// order kept inside a cell, and cell c is at[start[c]:start[c+1]], so the
// cells a query spans along one row are one slice. Anchoring at the box
// rather than at whole cell edges from the origin keeps a cluster smaller
// than a cell in one cell wherever it sits, so its queries' hits arrive in
// attach order.
type grid struct {
	// size is the cell edge in meters: the largest interference radius of
	// the population at build time, so a typical query touches a 3×3
	// block, doubled while the box needs more cells than the cap. A radius
	// that later grows costs cells visited, never correctness: queries span
	// as many cells as the current radius needs.
	size float64
	// x0, y0 are the box's lowest coordinates, the corner of cell 0; nx,
	// ny its extent in cells.
	x0, y0 float64
	nx, ny int
	start  []int32
	at     []entry
	// current is cleared by Attach and SetPos; the next Transmit rebuilds
	// the index into the same arrays.
	current bool
}

// cell reports the index of p's cell, which must lie inside the box.
func (g *grid) cell(p Position) int {
	return int(math.Floor((p.Y-g.y0)/g.size))*g.nx + int(math.Floor((p.X-g.x0)/g.size))
}

// buildGrid indexes the attached population.
func (m *Medium) buildGrid() {
	g := &m.grid
	maxTx, lo, hi := m.nodes[0].TxPower, m.nodes[0].Pos, m.nodes[0].Pos
	for _, t := range m.nodes {
		maxTx = max(maxTx, t.TxPower)
		lo = Position{X: min(lo.X, t.Pos.X), Y: min(lo.Y, t.Pos.Y)}
		hi = Position{X: max(hi.X, t.Pos.X), Y: max(hi.Y, t.Pos.Y)}
	}
	g.size = m.Loss.Range(maxTx, m.minSens)
	if g.size < 1 || math.IsInf(g.size, 1) || math.IsNaN(g.size) {
		g.size = 1
	}
	g.x0, g.y0 = lo.X, lo.Y
	for {
		nx, ny := math.Floor((hi.X-lo.X)/g.size)+1, math.Floor((hi.Y-lo.Y)/g.size)+1
		if nx*ny <= float64(cellsPerRadio*len(m.nodes)) {
			g.nx, g.ny = int(nx), int(ny)
			break
		}
		g.size *= 2
	}
	// Counting sort: count each cell's radios, turn the counts into cell
	// ends, then place the radios back to front so each cell's end walks
	// down to its start and attach order holds inside the cell.
	cells := g.nx * g.ny
	g.start = slices.Grow(g.start[:0], cells+1)[:cells+1]
	clear(g.start)
	g.at = slices.Grow(g.at[:0], len(m.nodes))[:len(m.nodes)]
	for _, t := range m.nodes {
		g.start[g.cell(t.Pos)]++
	}
	for c := 1; c <= cells; c++ {
		g.start[c] += g.start[c-1]
	}
	for i := len(m.nodes) - 1; i >= 0; i-- {
		c := g.cell(m.nodes[i].Pos)
		g.start[c]--
		g.at[g.start[c]] = entry{pos: m.nodes[i].Pos, idx: int32(i)}
	}
	g.current = true
}

// gridCandidates appends to dst, which must be empty, every radio other
// than t whose received power from t clears the medium-wide sensitivity
// floor, in attach order: a superset of every radio t can deliver to,
// collide at or make busy. Path loss runs only inside the padded disc.
func (m *Medium) gridCandidates(dst []candidate, t *Transceiver, radius float64) []candidate {
	g := &m.grid
	p := t.Pos
	reach := radius * (1 + reachPad)
	x0 := int(max(math.Floor((p.X-reach-g.x0)/g.size), 0))
	x1 := int(min(math.Floor((p.X+reach-g.x0)/g.size), float64(g.nx-1)))
	y0 := int(max(math.Floor((p.Y-reach-g.y0)/g.size), 0))
	y1 := int(min(math.Floor((p.Y+reach-g.y0)/g.size), float64(g.ny-1)))
	loss := m.Loss.Prepare()
	ordered := true
	for row := y0 * g.nx; row <= y1*g.nx; row += g.nx {
		for _, e := range g.at[g.start[row+x0]:g.start[row+x1+1]] {
			// The same d² Position.Distance takes the root of.
			dx, dy := p.X-e.pos.X, p.Y-e.pos.Y
			if dx*dx+dy*dy > reach*reach || int(e.idx) == t.idx {
				continue
			}
			rssi := loss.RSSI(t.TxPower, p.Distance(e.pos))
			if rssi < m.minSens {
				continue
			}
			if n := len(dst); n > 0 && dst[n-1].idx > e.idx {
				ordered = false
			}
			dst = append(dst, candidate{idx: e.idx, rssi: rssi})
		}
	}
	// Attach order is the delivery contract: receivers must be handed the
	// frame in the order the all-pairs walk would, or traces diverge. Each
	// cell's run already is in attach order, so hits from one cell, or
	// from cells whose runs happen to follow each other, need no sort.
	switch {
	case ordered:
	case len(dst) <= insertionMax:
		for i := 1; i < len(dst); i++ {
			for j := i; j > 0 && dst[j].idx < dst[j-1].idx; j-- {
				dst[j], dst[j-1] = dst[j-1], dst[j]
			}
		}
	default:
		slices.SortFunc(dst, func(a, b candidate) int { return cmp.Compare(a.idx, b.idx) })
	}
	return dst
}
