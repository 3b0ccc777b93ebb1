package medium

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
)

func newTestMedium() (*sim.Scheduler, *Medium) {
	s := sim.New()
	return s, New(s, phy.WiFi24Channel(6))
}

func TestDeliveryWithinRange(t *testing.T) {
	s, m := newTestMedium()
	tx := m.Attach("tx", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	rx := m.Attach("rx", Position{3, 0}, 0, phy.SensitivityWiFiMCS7)
	tx.SetOn(true)
	rx.SetOn(true)

	var got []Reception
	rx.Handler = func(r Reception) { got = append(got, r) }

	data := make([]byte, 100)
	airtime := m.Transmit(tx, data, phy.RateHTMCS7SGI)
	s.Run()

	if len(got) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(got))
	}
	r := got[0]
	if r.Collided {
		t.Error("lone transmission marked collided")
	}
	if r.End.Sub(r.Start) != airtime {
		t.Errorf("airtime %v, reception window %v", airtime, r.End.Sub(r.Start))
	}
	if r.RSSI >= 0 {
		t.Errorf("RSSI %v not attenuated", r.RSSI)
	}
	if len(r.Data) != 100 {
		t.Errorf("data length %d", len(r.Data))
	}
}

func TestNoDeliveryBeyondRange(t *testing.T) {
	s, m := newTestMedium()
	tx := m.Attach("tx", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	// At 0 dBm with exponent 3, MCS7 sensitivity (-70 dBm) dies within
	// ~10 m; put the receiver at 100 m.
	rx := m.Attach("rx", Position{100, 0}, 0, phy.SensitivityWiFiMCS7)
	tx.SetOn(true)
	rx.SetOn(true)
	delivered := false
	rx.Handler = func(Reception) { delivered = true }
	m.Transmit(tx, make([]byte, 50), phy.RateHTMCS7SGI)
	s.Run()
	if delivered {
		t.Fatal("frame delivered beyond radio range")
	}
}

func TestRadioOffReceivesNothing(t *testing.T) {
	s, m := newTestMedium()
	tx := m.Attach("tx", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	rx := m.Attach("rx", Position{1, 0}, 0, phy.SensitivityWiFiMCS7)
	tx.SetOn(true)
	delivered := false
	rx.Handler = func(Reception) { delivered = true }
	m.Transmit(tx, make([]byte, 50), phy.RateHTMCS7SGI)
	s.Run()
	if delivered {
		t.Fatal("powered-off radio received a frame")
	}
}

func TestTransmitWithRadioOffPanics(t *testing.T) {
	_, m := newTestMedium()
	tx := m.Attach("tx", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	defer func() {
		if recover() == nil {
			t.Fatal("transmit with radio off did not panic")
		}
	}()
	m.Transmit(tx, make([]byte, 10), phy.RateHTMCS7SGI)
}

func TestOverlappingTransmissionsCollide(t *testing.T) {
	s, m := newTestMedium()
	a := m.Attach("a", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	b := m.Attach("b", Position{2, 0}, 0, phy.SensitivityWiFiMCS7)
	rx := m.Attach("rx", Position{1, 0}, 0, phy.SensitivityWiFiMCS7)
	for _, trx := range []*Transceiver{a, b, rx} {
		trx.SetOn(true)
	}
	var got []Reception
	rx.Handler = func(r Reception) { got = append(got, r) }

	// Both transmit at t=0; equidistant, so neither captures.
	m.Transmit(a, make([]byte, 200), phy.RateOFDM6)
	m.Transmit(b, make([]byte, 200), phy.RateOFDM6)
	s.Run()

	if len(got) != 2 {
		t.Fatalf("delivered %d, want 2 (both corrupted)", len(got))
	}
	for i, r := range got {
		if !r.Collided {
			t.Errorf("reception %d not marked collided", i)
		}
	}
	if m.Stats.Collisions != 2 {
		t.Errorf("collision count = %d", m.Stats.Collisions)
	}
}

func TestCollisionCorruptsBytes(t *testing.T) {
	s, m := newTestMedium()
	a := m.Attach("a", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	b := m.Attach("b", Position{2, 0}, 0, phy.SensitivityWiFiMCS7)
	rx := m.Attach("rx", Position{1, 0}, 0, phy.SensitivityWiFiMCS7)
	for _, trx := range []*Transceiver{a, b, rx} {
		trx.SetOn(true)
	}
	orig := make([]byte, 64)
	for i := range orig {
		orig[i] = byte(i)
	}
	var got []Reception
	rx.Handler = func(r Reception) { got = append(got, r) }
	m.Transmit(a, orig, phy.RateOFDM6)
	m.Transmit(b, make([]byte, 64), phy.RateOFDM6)
	s.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d", len(got))
	}
	for _, r := range got {
		same := true
		if len(r.Data) != 64 {
			continue
		}
		for i := range r.Data {
			if r.Data[i] != orig[i] {
				same = false
			}
		}
		if same && r.Collided {
			t.Error("collided frame delivered unmodified")
		}
	}
	// The transmitter's original buffer must never be touched.
	for i := range orig {
		if orig[i] != byte(i) {
			t.Fatal("transmit buffer mutated by collision corruption")
		}
	}
}

func TestCaptureEffect(t *testing.T) {
	s, m := newTestMedium()
	near := m.Attach("near", Position{1, 0}, 0, phy.SensitivityWiFi1M)
	far := m.Attach("far", Position{30, 0}, 0, phy.SensitivityWiFi1M)
	rx := m.Attach("rx", Position{0, 0}, 0, phy.SensitivityWiFi1M)
	for _, trx := range []*Transceiver{near, far, rx} {
		trx.SetOn(true)
	}
	var got []Reception
	rx.Handler = func(r Reception) { got = append(got, r) }
	// near is ~44 dB stronger at rx than far (exponent 3, 1 m vs 30 m):
	// the near frame captures; the far frame is corrupted.
	m.Transmit(near, make([]byte, 100), phy.RateOFDM6)
	m.Transmit(far, make([]byte, 100), phy.RateOFDM6)
	s.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d", len(got))
	}
	byCollided := map[bool]int{}
	for _, r := range got {
		byCollided[r.Collided]++
	}
	if byCollided[false] != 1 || byCollided[true] != 1 {
		t.Fatalf("capture effect: collided map %v, want one clean + one corrupted", byCollided)
	}
}

func TestHalfDuplexSelfCollision(t *testing.T) {
	s, m := newTestMedium()
	a := m.Attach("a", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	b := m.Attach("b", Position{1, 0}, 0, phy.SensitivityWiFiMCS7)
	a.SetOn(true)
	b.SetOn(true)
	var got []Reception
	b.Handler = func(r Reception) { got = append(got, r) }
	// b transmits while a's frame is in flight: b cannot hear a.
	m.Transmit(a, make([]byte, 1000), phy.RateOFDM6)
	m.Transmit(b, make([]byte, 10), phy.RateOFDM6)
	s.Run()
	if len(got) != 1 || !got[0].Collided {
		t.Fatalf("half-duplex rx while tx: %+v", got)
	}
}

func TestBusyAndBusyUntil(t *testing.T) {
	s, m := newTestMedium()
	a := m.Attach("a", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	b := m.Attach("b", Position{1, 0}, 0, phy.SensitivityWiFiMCS7)
	a.SetOn(true)
	b.SetOn(true)
	if m.Busy(b) {
		t.Fatal("medium busy before any transmission")
	}
	airtime := m.Transmit(a, make([]byte, 500), phy.RateOFDM6)
	if !m.Busy(b) {
		t.Fatal("medium not busy during transmission")
	}
	if !m.Busy(a) {
		t.Fatal("transmitter does not sense own transmission")
	}
	want := sim.Time(0).Add(airtime)
	if got := m.BusyUntil(b); got != want {
		t.Fatalf("BusyUntil = %v, want %v", got, want)
	}
	s.Run()
	if m.Busy(b) {
		t.Fatal("medium busy after transmission ended")
	}
}

func TestSequentialTransmissionsNoCollision(t *testing.T) {
	s, m := newTestMedium()
	a := m.Attach("a", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	rx := m.Attach("rx", Position{1, 0}, 0, phy.SensitivityWiFiMCS7)
	a.SetOn(true)
	rx.SetOn(true)
	var got []Reception
	rx.Handler = func(r Reception) { got = append(got, r) }
	at1 := m.Transmit(a, make([]byte, 100), phy.RateOFDM6)
	s.After(at1+sim.Microsecond.Duration(), func() {
		m.Transmit(a, make([]byte, 100), phy.RateOFDM6)
	})
	s.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, r := range got {
		if r.Collided {
			t.Errorf("sequential frame %d marked collided", i)
		}
	}
}

func TestDistanceFloor(t *testing.T) {
	p := Position{0, 0}
	if d := p.Distance(Position{0, 0}); d != 0.1 {
		t.Fatalf("co-located distance = %v, want floor 0.1", d)
	}
	if d := p.Distance(Position{3, 4}); d != 5 {
		t.Fatalf("3-4-5 distance = %v", d)
	}
}

// TestHistoryPruned: the medium keeps no global history, and the per-radio
// windows are compacted against the prune floor: ownTx when its radio
// transmits, heard when a frame it hears is delivered, also to a radio
// that cannot take it and so skips the collision scan. After 100
// transmissions a second apart, each holds only the latest frame.
func TestHistoryPruned(t *testing.T) {
	s, m := newTestMedium()
	a := m.Attach("a", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	b := m.Attach("b", Position{1, 0}, 0, phy.SensitivityWiFiMCS7)
	off := m.Attach("off", Position{0, 1}, 0, phy.SensitivityWiFiMCS7)
	deaf := m.Attach("deaf", Position{1, 1}, 0, phy.SensitivityWiFiMCS7)
	a.SetOn(true)
	b.SetOn(true)
	deaf.SetOn(true)
	b.Handler = func(Reception) {}
	for i := 0; i < 100; i++ {
		m.Transmit(a, make([]byte, 10), phy.RateOFDM6)
		s.RunFor(sim.Second.Duration())
	}
	if len(a.ownTx) > 1 {
		t.Fatalf("after pruning, ownTx holds %d entries; want at most 1", len(a.ownTx))
	}
	for _, rcv := range []*Transceiver{b, off, deaf} {
		if len(rcv.heard) > 1 {
			t.Errorf("after pruning, %s's heard holds %d entries; want at most 1", rcv.Name, len(rcv.heard))
		}
	}
}

// TestLongFrameOutlivesOldPruneWindow: a frame slower and longer than the
// old fixed 200 ms keep window must still collide with an interferer that
// ended early in its airtime. The prune window is derived from the longest
// airtime on the air, so background traffic far away (which triggers
// pruning) cannot evict the interferer before the long frame resolves.
func TestLongFrameOutlivesOldPruneWindow(t *testing.T) {
	s, m := newTestMedium()
	long := m.Attach("long", Position{1, 0}, 0, phy.SensitivityWiFiMCS7)
	short := m.Attach("short", Position{2, 0}, 0, phy.SensitivityWiFiMCS7)
	rx := m.Attach("rx", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	far := m.Attach("far", Position{500, 0}, 0, phy.SensitivityWiFiMCS7)
	for _, trx := range []*Transceiver{long, short, rx, far} {
		trx.SetOn(true)
	}
	var got []Reception
	rx.Handler = func(r Reception) { got = append(got, r) }

	// ~240 ms of airtime at 1 Mb/s: starts at t=0, ends long after the old
	// 200 ms window has rolled past the interferer below.
	airtime := m.Transmit(long, make([]byte, 30000), phy.RateDSSS1)
	if airtime <= 200*sim.Millisecond.Duration() {
		t.Fatalf("long frame airtime %v not beyond the old 200 ms window", airtime)
	}
	s.After(sim.Millisecond.Duration(), func() {
		m.Transmit(short, make([]byte, 10), phy.RateOFDM6)
	})
	// Out-of-range chatter to drive history growth and pruning while the
	// long frame is still in the air.
	for i := 2; i < 60; i++ {
		at := time.Duration(i) * 4 * sim.Millisecond.Duration()
		s.After(at, func() { m.Transmit(far, make([]byte, 10), phy.RateOFDM6) })
	}
	s.Run()

	var sawLong bool
	for _, r := range got {
		if len(r.Data) == 30000 {
			sawLong = true
			if !r.Collided {
				t.Error("long frame delivered clean despite early interferer")
			}
		}
	}
	if !sawLong {
		t.Fatal("long frame never delivered")
	}
}

// TestZeroLengthFrameCollision: colliding zero-length frames must not panic
// in the corruption byte-flip.
func TestZeroLengthFrameCollision(t *testing.T) {
	s, m := newTestMedium()
	a := m.Attach("a", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	b := m.Attach("b", Position{2, 0}, 0, phy.SensitivityWiFiMCS7)
	rx := m.Attach("rx", Position{1, 0}, 0, phy.SensitivityWiFiMCS7)
	for _, trx := range []*Transceiver{a, b, rx} {
		trx.SetOn(true)
	}
	var got []Reception
	rx.Handler = func(r Reception) { got = append(got, r) }
	m.Transmit(a, nil, phy.RateOFDM6)
	m.Transmit(b, nil, phy.RateOFDM6)
	s.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d, want 2", len(got))
	}
	for i, r := range got {
		if !r.Collided {
			t.Errorf("reception %d not marked collided", i)
		}
		if len(r.Data) != 0 {
			t.Errorf("reception %d grew data: %d bytes", i, len(r.Data))
		}
	}
}

// TestCollidedReceptionsAreNotDeliveries pins the accounting split: a
// collided reception counts only as a collision, in Stats and in the
// registry mirror, matching the provenance taxonomy where delivered and
// collided are disjoint outcomes.
func TestCollidedReceptionsAreNotDeliveries(t *testing.T) {
	s, m := newTestMedium()
	reg := obs.NewRegistry()
	m.Observe(reg)
	a := m.Attach("a", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	b := m.Attach("b", Position{2, 0}, 0, phy.SensitivityWiFiMCS7)
	rx := m.Attach("rx", Position{1, 0}, 0, phy.SensitivityWiFiMCS7)
	for _, trx := range []*Transceiver{a, b, rx} {
		trx.SetOn(true)
	}
	rx.Handler = func(Reception) {}
	a.Handler = func(Reception) {}
	b.Handler = func(Reception) {}
	m.Transmit(a, make([]byte, 200), phy.RateOFDM6)
	m.Transmit(b, make([]byte, 200), phy.RateOFDM6)
	s.Run()
	// Overlapping equidistant frames: rx sees two collided receptions, a
	// and b each miss the other half-duplex — four collisions, none clean.
	if m.Stats.Deliveries != 0 {
		t.Errorf("Stats.Deliveries = %d, want 0 (all receptions collided)", m.Stats.Deliveries)
	}
	if m.Stats.Collisions != 4 {
		t.Errorf("Stats.Collisions = %d, want 4", m.Stats.Collisions)
	}
	if got := reg.Counter("wile.medium_deliveries").Value(); got != 0 {
		t.Errorf("wile.medium_deliveries = %d, want 0", got)
	}
	if got := reg.Counter("wile.medium_collisions").Value(); got != 4 {
		t.Errorf("wile.medium_collisions = %d, want 4", got)
	}
}

// TestObserveIdempotent: re-wiring a registry (or wiring two media to one)
// must not re-add already-exported Stats into the shared counters.
func TestObserveIdempotent(t *testing.T) {
	s, m := newTestMedium()
	a := m.Attach("a", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	rx := m.Attach("rx", Position{1, 0}, 0, phy.SensitivityWiFiMCS7)
	a.SetOn(true)
	rx.SetOn(true)
	rx.Handler = func(Reception) {}
	m.Transmit(a, make([]byte, 100), phy.RateOFDM6)
	s.Run()

	reg := obs.NewRegistry()
	m.Observe(reg)
	m.Observe(reg) // second wiring: back-fill must not repeat
	if got := reg.Counter("wile.medium_transmissions").Value(); got != 1 {
		t.Fatalf("wile.medium_transmissions = %d after double Observe, want 1", got)
	}
	if got := reg.Counter("wile.medium_deliveries").Value(); got != 1 {
		t.Fatalf("wile.medium_deliveries = %d after double Observe, want 1", got)
	}

	// Live counts after wiring must survive a further re-wiring untouched.
	m.Transmit(a, make([]byte, 100), phy.RateOFDM6)
	s.Run()
	m.Observe(reg)
	if got := reg.Counter("wile.medium_transmissions").Value(); got != 2 {
		t.Fatalf("wile.medium_transmissions = %d after re-Observe, want 2", got)
	}

	// A second medium sharing the registry adds only its own counts.
	s2 := sim.New()
	m2 := New(s2, phy.WiFi24Channel(6))
	c := m2.Attach("c", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	c.SetOn(true)
	m2.Transmit(c, make([]byte, 10), phy.RateOFDM6)
	s2.Run()
	m2.Observe(reg)
	if got := reg.Counter("wile.medium_transmissions").Value(); got != 3 {
		t.Fatalf("wile.medium_transmissions = %d with two media, want 3", got)
	}

	// Moving to a fresh registry back-fills everything there exactly once.
	reg2 := obs.NewRegistry()
	m.Observe(reg2)
	if got := reg2.Counter("wile.medium_transmissions").Value(); got != 2 {
		t.Fatalf("fresh registry wile.medium_transmissions = %d, want 2", got)
	}
}

// TestSetPosRebucketsGrid: moving a radio with SetPos between two
// transmissions must take effect for the second, whether the radio stays
// in its cell (the index holds a copy of its position) or crosses into
// another.
func TestSetPosRebucketsGrid(t *testing.T) {
	s, m := newTestMedium()
	tx := m.Attach("tx", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	// A powered-off radio with the BLE floor widens the cells to ~62 m, so
	// rx can leave tx's range without leaving tx's cell.
	m.Attach("floor", Position{0, 1}, 0, phy.SensitivityBLE)
	rx := m.Attach("rx", Position{500, 0}, 0, phy.SensitivityWiFiMCS7)
	tx.SetOn(true)
	rx.SetOn(true)
	delivered := 0
	rx.Handler = func(Reception) { delivered++ }
	for _, step := range []struct {
		to              Position
		sameCell, hears bool
	}{
		{Position{500, 0}, false, false}, // builds the index
		{Position{3, 0}, true, true},     // into range, across cells
		{Position{30, 0}, true, false},   // out of range, within tx's cell
		{Position{5, 0}, true, true},     // back into range, within the cell
		{Position{500, 0}, false, false}, // out of range, across cells
	} {
		rx.SetPos(step.to)
		before := delivered
		m.Transmit(tx, make([]byte, 10), phy.RateOFDM6)
		s.Run()
		if same := m.grid.cell(rx.Pos) == m.grid.cell(tx.Pos); same != step.sameCell {
			t.Fatalf("rx at %v: in tx's cell %v, want %v", step.to, same, step.sameCell)
		}
		if hears := delivered > before; hears != step.hears {
			t.Fatalf("rx at %v: heard %v, want %v", step.to, hears, step.hears)
		}
	}
}

// TestAttachAfterGridBuilt: radios attached after the first transmission
// must be indexed and receive like any other.
func TestAttachAfterGridBuilt(t *testing.T) {
	s, m := newTestMedium()
	tx := m.Attach("tx", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	tx.SetOn(true)
	m.Transmit(tx, make([]byte, 10), phy.RateOFDM6)
	s.Run()

	late := m.Attach("late", Position{3, 0}, 0, phy.SensitivityWiFiMCS7)
	late.SetOn(true)
	delivered := 0
	late.Handler = func(Reception) { delivered++ }
	m.Transmit(tx, make([]byte, 10), phy.RateOFDM6)
	s.Run()
	if delivered != 1 {
		t.Fatalf("late-attached radio got %d deliveries, want 1", delivered)
	}
}

// cellMembers names the radios in t's cell of m's index, in index order.
func cellMembers(m *Medium, t *Transceiver) []string {
	g := &m.grid
	c := g.cell(t.Pos)
	var names []string
	for _, e := range g.at[g.start[c]:g.start[c+1]] {
		names = append(names, m.nodes[e.idx].Name)
	}
	return names
}

// TestGridInsertKeepsNeighbourBucket: a radio attached after the index is
// built lands in its own cell at the next transmission, in attach order,
// and never in the neighbouring cell. A (cell 0) transmits to B and D
// (cell 1) and to C, attached later into cell 0, where it becomes the
// bounding box's corner the cells are cut from; each must hear the frame
// once.
func TestGridInsertKeepsNeighbourBucket(t *testing.T) {
	s, m := newTestMedium()
	a := m.Attach("a", Position{5, 0}, 0, phy.SensitivityWiFiMCS7)
	b := m.Attach("b", Position{12, 0}, 0, phy.SensitivityWiFiMCS7)
	d := m.Attach("d", Position{13, 0}, 0, phy.SensitivityWiFiMCS7)
	a.SetOn(true)
	m.Transmit(a, make([]byte, 10), phy.RateOFDM6) // builds the index
	s.Run()
	c := m.Attach("c", Position{1, 0}, 0, phy.SensitivityWiFiMCS7)
	got := map[string]int{}
	for _, rx := range []*Transceiver{b, c, d} {
		rx.SetOn(true)
		rx.Handler = func(Reception) { got[rx.Name]++ }
	}
	m.Transmit(a, make([]byte, 10), phy.RateOFDM6) // rebuilds it
	s.Run()
	if ac, bd := cellMembers(m, a), cellMembers(m, b); !slices.Equal(ac, []string{"a", "c"}) || !slices.Equal(bd, []string{"b", "d"}) {
		t.Fatalf("cells %v and %v, want [a c] and [b d]", ac, bd)
	}
	if got["b"] != 1 || got["c"] != 1 || got["d"] != 1 {
		t.Fatalf("receptions %v, want one each at b, c and d", got)
	}
}

// TestSparseFieldCapsCells: two clusters 10⁶ m apart would need ~10¹⁰
// cells one interference radius wide. The index widens its cells until
// the box fits cellsPerRadio cells per radio, and each cluster still hears
// only itself.
func TestSparseFieldCapsCells(t *testing.T) {
	s, m := newTestMedium()
	heard := map[string]int{}
	var first []*Transceiver
	for i, origin := range []Position{{0, 0}, {1e6, 1e6}} {
		for j := 0; j < 3; j++ {
			r := m.Attach(fmt.Sprintf("c%dr%d", i, j), Position{origin.X + float64(j), origin.Y}, 0, phy.SensitivityWiFiMCS7)
			r.SetOn(true)
			r.Handler = func(Reception) { heard[r.Name]++ }
			if j == 0 {
				first = append(first, r)
			}
		}
	}
	for _, tx := range first {
		m.Transmit(tx, make([]byte, 10), phy.RateOFDM6)
	}
	s.Run()
	if cells := m.grid.nx * m.grid.ny; cells > cellsPerRadio*len(m.nodes) {
		t.Fatalf("%d radios indexed into %d cells, want at most %d", len(m.nodes), cells, cellsPerRadio*len(m.nodes))
	}
	want := map[string]int{"c0r1": 1, "c0r2": 1, "c1r1": 1, "c1r2": 1}
	if !maps.Equal(heard, want) {
		t.Fatalf("receptions %v, want %v", heard, want)
	}
}

// TestNonFinitePositionPanics: the index places radios by position, so
// Attach and SetPos refuse a NaN or infinite coordinate, and a refused
// move leaves the radio where it was.
func TestNonFinitePositionPanics(t *testing.T) {
	for _, p := range []Position{{math.NaN(), 0}, {0, math.NaN()}, {math.Inf(1), 0}, {0, math.Inf(-1)}} {
		_, m := newTestMedium()
		ok := m.Attach("ok", Position{1, 2}, 0, phy.SensitivityWiFiMCS7)
		for _, call := range []struct {
			name string
			f    func()
		}{
			{"Attach", func() { m.Attach("bad", p, 0, phy.SensitivityWiFiMCS7) }},
			{"SetPos", func() { ok.SetPos(p) }},
		} {
			func() {
				defer func() {
					if r := recover(); !strings.HasPrefix(fmt.Sprint(r), "medium: ") {
						t.Errorf("%s(%v) recovered %v, want a medium: panic", call.name, p, r)
					}
				}()
				call.f()
			}()
		}
		if len(m.nodes) != 1 || ok.Pos != (Position{1, 2}) {
			t.Errorf("after refusing %v: %d radios, ok at %v", p, len(m.nodes), ok.Pos)
		}
	}
}

// TestGridRSSIMatchesPathLoss: the RSSI the index hands a receiver is
// bit-identical to Loss.RSSI over Position.Distance, on random pairs and
// across both distance clamps, for several path-loss models.
func TestGridRSSIMatchesPathLoss(t *testing.T) {
	rng := sim.NewRand(21)
	dists := []float64{0, 0.05, 0.1, 0.1 + 1e-12, 0.5, 1 - 1e-12, 1, 1 + 1e-12}
	for i := 0; i < 200; i++ {
		dists = append(dists, rng.Float64()*60)
	}
	losses := []phy.PathLoss{{Exponent: 3, FreqMHz: 2437}, {Exponent: 2, FreqMHz: 2412}, {Exponent: 3.5, FreqMHz: 5180}}
	for i, d := range dists {
		_, m := newTestMedium()
		m.Loss = losses[i%len(losses)]
		from := Position{X: 1000 * rng.Float64(), Y: 1000 * rng.Float64()}
		theta := 2 * math.Pi * rng.Float64()
		tx := m.Attach("tx", from, phy.DBm(10*(i%3)), phy.SensitivityWiFiMCS7)
		rx := m.Attach("rx", Position{X: from.X + d*math.Cos(theta), Y: from.Y + d*math.Sin(theta)}, 0, phy.SensitivityBLE)
		m.buildGrid()
		got := m.gridCandidates(nil, tx, m.Loss.Range(tx.TxPower, m.minSens))
		want := m.Loss.RSSI(tx.TxPower, tx.Pos.Distance(rx.Pos))
		if len(got) != 1 || got[0].idx != 1 || math.Float64bits(float64(got[0].rssi)) != math.Float64bits(float64(want)) {
			t.Fatalf("%v at %.6g m: candidates %v, want rx at %v dBm", m.Loss, d, got, want)
		}
	}
}

// TestGridCandidatesAttachOrder: whatever cells a query spans and however
// their runs interleave, its hits come back in strictly increasing attach
// order, are exactly the radios a brute-force filter keeps, and carry
// bit-identical RSSI. Radio 0's query in each case pins which ordering path
// it takes: runs already in attach order, an insertion sort, or
// slices.SortFunc past insertionMax.
func TestGridCandidatesAttachOrder(t *testing.T) {
	_, probe := newTestMedium()
	r := probe.Loss.Range(0, phy.SensitivityWiFiMCS7) // the cell edge
	// Radio 0 sits at tx (in cell edges). The others fill the k×k block of
	// whole-edge cells around it, each inside its cell's part of the
	// square of half-width w around tx, so all are in range. They take the
	// cells in turn, or one cell after another in row-major order when
	// grouped. The grid cuts its cells from the radios' bounding box, so a
	// last radio, out of everyone's range at (-4, -4), makes the box's
	// corner a whole number of edges from the origin and the grid's cells
	// the block's, every one holding hits. Without it the cells start at
	// the cluster's own corner: a cluster narrower than one edge sits in
	// one cell wherever it is.
	cases := []struct {
		name    string
		n, k    int
		tx      Position
		w       float64
		grouped bool
		free    bool // no corner radio: the cluster's own box anchors the grid
		cells   int  // cells radio 0's hits come from, k×k when 0
		ordered bool // whether radio 0's cell runs arrive in attach order
		long    bool // whether radio 0 has more than insertionMax hits
	}{
		{name: "one cell", n: 40, k: 1, tx: Position{0.5, 0.5}, w: 0.3, ordered: true},
		{name: "four cells in attach order", n: 41, k: 2, w: 0.1, grouped: true, ordered: true},
		{name: "four cells straddling the origin", n: 51, k: 2, w: 0.1},
		{name: "nine cells", n: 46, k: 3, tx: Position{0.5, 0.5}, w: 0.7},
		{name: "four cells past the insertion bound", n: 200, k: 2, w: 0.1, long: true},
		{name: "nine cells past the insertion bound", n: 200, k: 3, tx: Position{0.5, 0.5}, w: 0.7, long: true},
		{name: "a cluster straddling the origin in one cell", n: 51, k: 2, w: 0.1, free: true, cells: 1, ordered: true},
	}
	byIdx := func(a, b candidate) int { return cmp.Compare(a.idx, b.idx) }
	for ci, tc := range cases {
		_, m := newTestMedium()
		rng := sim.NewRand(uint64(31 + ci))
		lo := Position{X: tc.tx.X - tc.w, Y: tc.tx.Y - tc.w}
		// in draws one coordinate inside the given cell of the block
		// starting at from, within w of mid.
		in := func(cell, from, mid float64) float64 {
			c0 := max(math.Floor(from)+cell, from)
			c1 := min(math.Floor(from)+cell+1, mid+tc.w)
			return c0 + (c1-c0)*rng.Float64()
		}
		m.Attach("0", Position{X: tc.tx.X * r, Y: tc.tx.Y * r}, 0, phy.SensitivityWiFiMCS7)
		for i := 1; i < tc.n; i++ {
			c := (i - 1) % (tc.k * tc.k)
			if tc.grouped {
				c = (i - 1) * tc.k * tc.k / (tc.n - 1)
			}
			p := Position{X: in(float64(c%tc.k), lo.X, tc.tx.X), Y: in(float64(c/tc.k), lo.Y, tc.tx.Y)}
			m.Attach(fmt.Sprint(i), Position{X: p.X * r, Y: p.Y * r}, 0, phy.SensitivityWiFiMCS7)
		}
		if !tc.free {
			m.Attach("corner", Position{X: -4 * r, Y: -4 * r}, 0, phy.SensitivityWiFiMCS7)
		}
		m.buildGrid()
		for _, tx := range m.nodes {
			got := m.gridCandidates(nil, tx, m.Loss.Range(tx.TxPower, m.minSens))
			var want []candidate
			for _, rx := range m.nodes {
				if rssi := m.Loss.RSSI(tx.TxPower, tx.Pos.Distance(rx.Pos)); rx != tx && rssi >= m.minSens {
					want = append(want, candidate{idx: int32(rx.idx), rssi: rssi})
				}
			}
			for i := 1; i < len(got); i++ {
				if got[i].idx <= got[i-1].idx {
					t.Fatalf("%s: radio %d's hits not in strictly increasing attach order: %v", tc.name, tx.idx, got)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: radio %d has %d hits, brute force %d", tc.name, tx.idx, len(got), len(want))
			}
			for i := range got {
				if got[i].idx != want[i].idx || math.Float64bits(float64(got[i].rssi)) != math.Float64bits(float64(want[i].rssi)) {
					t.Fatalf("%s: radio %d hit %d is %v, brute force %v", tc.name, tx.idx, i, got[i], want[i])
				}
			}
		}
		// Radio 0's query visits cells in row-major order, which is cell
		// index order, each cell's run in attach order.
		hits := m.gridCandidates(nil, m.nodes[0], m.Loss.Range(0, m.minSens))
		cellOf := func(c candidate) int { return m.grid.cell(m.nodes[c.idx].Pos) }
		raw := slices.Clone(hits)
		slices.SortStableFunc(raw, func(a, b candidate) int { return cmp.Compare(cellOf(a), cellOf(b)) })
		cells := map[int]bool{}
		for _, c := range raw {
			cells[cellOf(c)] = true
		}
		wantCells := cmp.Or(tc.cells, tc.k*tc.k)
		if len(hits) != tc.n-1 || len(cells) != wantCells || slices.IsSortedFunc(raw, byIdx) != tc.ordered || (len(hits) > insertionMax) != tc.long {
			t.Errorf("%s: radio 0 has %d hits from %d cells, arriving in attach order %v; want %d from %d, %v, more than %d %v",
				tc.name, len(hits), len(cells), slices.IsSortedFunc(raw, byIdx), tc.n-1, wantCells, tc.ordered, insertionMax, tc.long)
		}
	}
}

// TestLedgerSettlesFrameThatReachesNoRadio: with a ledger attached, a frame
// whose every potential receiver is culled still books its delivery event,
// in which the culled radios resolve; without a ledger it books nothing.
func TestLedgerSettlesFrameThatReachesNoRadio(t *testing.T) {
	for _, ledger := range []bool{false, true} {
		s, m := newTestMedium()
		prov := obs.NewProvenance()
		if ledger {
			m.ObserveProvenance(prov)
		}
		tx := m.Attach("tx", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
		far := m.Attach("far", Position{500, 0}, 0, phy.SensitivityWiFiMCS7)
		m.Attach("dark", Position{600, 0}, 0, phy.SensitivityWiFiMCS7)
		tx.SetOn(true)
		far.SetOn(true)
		far.Handler = func(Reception) {}
		m.Transmit(tx, make([]byte, 10), phy.RateOFDM6)
		s.Run()
		want := uint64(0)
		if ledger {
			want = 1
		}
		if got := s.Fired(); got != want {
			t.Errorf("ledger %v: the frame fired %d events, want %d", ledger, got, want)
		}
		if err := prov.Verify(); err != nil {
			t.Errorf("ledger %v: %v", ledger, err)
		}
		if out := prov.Outcomes(); ledger && (out[obs.DropBelowSensitivity] != 1 || out[obs.DropRadioOff] != 1) {
			t.Errorf("outcomes %v, want below_sensitivity at far and radio_off at dark", out)
		}
	}
}

// TestOutOfRangeCountsFollowRadioState drives the counts that settle a
// frame's culled radios through every change they track: radios powered on
// and off, a Handler set after attach, a Handler cleared while its radio is
// off, a sender without a Handler that powers off mid-frame, and radios
// attached mid-frame, which are no potential receivers of that frame.
func TestOutOfRangeCountsFollowRadioState(t *testing.T) {
	s, m := newTestMedium()
	prov := obs.NewProvenance()
	m.ObserveProvenance(prov)
	tx := m.Attach("tx", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	tx.SetOn(true)
	handler := func(Reception) {}
	far := func(name string, x float64) *Transceiver {
		return m.Attach(name, Position{X: x}, 0, phy.SensitivityWiFiMCS7)
	}
	a, b, c := far("a", 500), far("b", 600), far("c", 700)
	a.SetOn(true)
	a.Handler = handler
	c.SetOn(true)

	var last [obs.NumDropReasons]int64
	frame := func(step string, wantPotential int64, wantOff, wantBelow int64, during func()) {
		t.Helper()
		potential := prov.Potential()
		m.Transmit(tx, make([]byte, 10), phy.RateOFDM6)
		if during != nil {
			during()
		}
		s.Run()
		out := prov.Outcomes()
		if got := prov.Potential() - potential; got != wantPotential {
			t.Errorf("%s: potential %d, want %d", step, got, wantPotential)
		}
		off, below := out[obs.DropRadioOff]-last[obs.DropRadioOff], out[obs.DropBelowSensitivity]-last[obs.DropBelowSensitivity]
		if off != wantOff || below != wantBelow {
			t.Errorf("%s: radio_off %d and below_sensitivity %d, want %d and %d", step, off, below, wantOff, wantBelow)
		}
		if err := prov.Verify(); err != nil {
			t.Errorf("%s: %v", step, err)
		}
		last = out
	}

	frame("a listens, b is off, c has no Handler", 3, 2, 1, nil)
	b.SetOn(true)
	c.Handler = handler
	a.SetOn(false)
	frame("b on without a Handler, c given one, a off", 3, 2, 1, nil)
	b.Handler = handler
	frame("all three given Handlers", 3, 1, 2, nil)
	b.SetOn(false)
	b.Handler = nil
	b.SetOn(true)
	frame("b's Handler cleared while off", 3, 2, 1, nil)
	frame("the sender powers off mid-frame", 3, 2, 1, func() { tx.SetOn(false) })
	tx.SetOn(true)
	frame("radios attached mid-frame", 3, 2, 1, func() {
		far("d", 800)
		far("e", 900).SetOn(true)
	})
	frame("after the mid-frame attach", 5, 4, 1, nil)
}

// TestOutOfRangeReceiverDecidedAtItsTurn: a receiver inside a frame's
// interference budget but under its own floor is settled by count, with
// the state it had at its turn, as one event per receiver would have it:
// a later receiver's Handler that powers it off does not change its
// below_sensitivity to radio_off.
func TestOutOfRangeReceiverDecidedAtItsTurn(t *testing.T) {
	s, m := newTestMedium()
	prov := obs.NewProvenance()
	m.ObserveProvenance(prov)
	tx := m.Attach("tx", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	weak := m.Attach("weak", Position{30, 0}, 0, phy.SensitivityWiFiMCS7)
	near := m.Attach("near", Position{1, 0}, 0, phy.SensitivityWiFiMCS7)
	m.Attach("floor", Position{2, 0}, 0, phy.SensitivityWiFi1M) // widens the budget to weak
	for _, r := range []*Transceiver{tx, weak, near} {
		r.SetOn(true)
	}
	weak.Handler = func(Reception) { t.Error("weak decoded a frame under its floor") }
	near.Handler = func(r Reception) {
		prov.Resolve(r.Frame, near.ProvID(), r.End, obs.Delivered)
		weak.SetOn(false)
	}
	m.Transmit(tx, make([]byte, 10), phy.RateOFDM6)
	s.Run()
	if err := prov.Verify(); err != nil {
		t.Fatal(err)
	}
	if out := prov.Outcomes(); out[obs.DropBelowSensitivity] != 1 || out[obs.DropRadioOff] != 1 {
		t.Errorf("outcomes %v, want below_sensitivity at weak and radio_off at floor", out)
	}
}

// TestOneDeliveryEventPerFrame pins the cost of delivering a frame once the
// medium is warm: a single scheduler event however many radios receive it,
// and no allocation, since the medium recycles its delivery records.
func TestOneDeliveryEventPerFrame(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{1, 8} {
		s, m := newTestMedium()
		tx := m.Attach("tx", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
		tx.SetOn(true)
		got := 0
		for i := 0; i < n; i++ {
			rx := m.Attach(fmt.Sprintf("rx%d", i), Position{1 + float64(i)/4, 0}, 0, phy.SensitivityWiFiMCS7)
			rx.SetOn(true)
			rx.Handler = func(Reception) { got++ }
		}
		data := make([]byte, 100)
		send := func() {
			m.Transmit(tx, data, phy.RateOFDM6)
			s.Run()
		}
		for i := 0; i < 10; i++ {
			send()
		}
		fired, delivered := s.Fired(), got
		send()
		if ev := s.Fired() - fired; ev != 1 {
			t.Errorf("%d receivers: a frame fired %d events, want 1", n, ev)
		}
		if got-delivered != n {
			t.Fatalf("%d receivers: a frame reached %d", n, got-delivered)
		}
		if !raceEnabled {
			allocs[n] = testing.AllocsPerRun(100, send)
		}
	}
	if allocs[8] != allocs[1] || allocs[1] != 0 {
		t.Errorf("allocs per frame: %v for 8 receivers, %v for 1; want 0 for both", allocs[8], allocs[1])
	}
}
