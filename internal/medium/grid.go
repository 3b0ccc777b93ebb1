package medium

import (
	"cmp"
	"math"
	"slices"
)

// Spatial index for receiver culling (DESIGN.md §12).
//
// The medium buckets transceivers into a uniform grid over Position. A
// transmitter's interference radius r = Loss.Range(TxPower, minSens) — the
// distance at which its signal drops below the most sensitive attached
// floor — bounds every radio it could deliver to, collide with, or make
// busy, so a transmission only visits the grid cells its radius overlaps.
// Candidates are exact-filtered by received power against minSens and
// sorted by attach order, making the resulting event schedule independent
// of bucketing: byte-identical to the all-pairs walk.

// cellKey addresses one grid bucket.
type cellKey struct{ x, y int32 }

// grid is a uniform spatial hash over transceiver positions.
type grid struct {
	// size is the cell edge in meters, fixed when the grid is built to the
	// largest interference radius of the population at that moment so a
	// typical query touches at most a 3×3 block. Radios attached later can
	// widen the radius; queries span as many cells as the radius needs, so
	// a stale edge costs cells visited, never correctness.
	size  float64
	cells map[cellKey][]*Transceiver
	built bool
}

// keyFor buckets a position.
func (g *grid) keyFor(p Position) cellKey {
	return cellKey{
		x: int32(math.Floor(p.X / g.size)),
		y: int32(math.Floor(p.Y / g.size)),
	}
}

// insert adds t to the bucket for its current position.
func (g *grid) insert(t *Transceiver) {
	t.cell = g.keyFor(t.Pos)
	g.cells[t.cell] = append(g.cells[t.cell], t)
}

// move re-buckets t for a new position.
func (g *grid) move(t *Transceiver, p Position) {
	next := g.keyFor(p)
	if next == t.cell {
		return
	}
	bucket := g.cells[t.cell]
	for i, other := range bucket {
		if other == t {
			bucket[i] = bucket[len(bucket)-1]
			bucket[len(bucket)-1] = nil
			g.cells[t.cell] = bucket[:len(bucket)-1]
			break
		}
	}
	t.cell = next
	g.cells[next] = append(g.cells[next], t)
}

// buildGrid indexes the attached population. Deferred to the first
// transmission so attachment order and cost stay unchanged for small
// topologies that never transmit. The buckets are carved from one copy of
// the radios sorted by cell, each capped at its own length, so a later
// insert or move copies only the bucket it grows.
func (m *Medium) buildGrid() {
	maxTx := m.nodes[0].TxPower
	for _, t := range m.nodes {
		maxTx = max(maxTx, t.TxPower)
	}
	edge := m.Loss.Range(maxTx, m.minSens)
	if edge < 1 || math.IsInf(edge, 1) || math.IsNaN(edge) {
		edge = 1
	}
	g := &m.grid
	g.size = edge
	byCell := slices.Clone(m.nodes)
	for _, t := range byCell {
		t.cell = g.keyFor(t.Pos)
	}
	slices.SortFunc(byCell, func(a, b *Transceiver) int {
		return cmp.Or(cmp.Compare(a.cell.x, b.cell.x), cmp.Compare(a.cell.y, b.cell.y), a.idx-b.idx)
	})
	cells := 0
	for i, t := range byCell {
		if i == 0 || t.cell != byCell[i-1].cell {
			cells++
		}
	}
	g.cells = make(map[cellKey][]*Transceiver, cells)
	for i := 0; i < len(byCell); {
		j := i + 1
		for j < len(byCell) && byCell[j].cell == byCell[i].cell {
			j++
		}
		g.cells[byCell[i].cell] = byCell[i:j:j]
		i = j
	}
	g.built = true
}

// gridCandidates appends to dst, which must be empty, every radio other
// than t whose received power from t clears the medium-wide sensitivity
// floor, in attach order.
func (m *Medium) gridCandidates(dst []candidate, t *Transceiver, radius float64) []candidate {
	x0 := int32(math.Floor((t.Pos.X - radius) / m.grid.size))
	x1 := int32(math.Floor((t.Pos.X + radius) / m.grid.size))
	y0 := int32(math.Floor((t.Pos.Y - radius) / m.grid.size))
	y1 := int32(math.Floor((t.Pos.Y + radius) / m.grid.size))
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, rcv := range m.grid.cells[cellKey{x: x, y: y}] {
				if rcv == t {
					continue
				}
				rssi := m.rssiAt(t, rcv)
				if rssi < m.minSens {
					continue
				}
				dst = append(dst, candidate{t: rcv, rssi: rssi})
			}
		}
	}
	// Attach order is the delivery contract: receivers must be handed the
	// frame in the order the all-pairs walk would, or traces diverge.
	slices.SortFunc(dst, func(a, b candidate) int { return a.t.idx - b.t.idx })
	return dst
}
