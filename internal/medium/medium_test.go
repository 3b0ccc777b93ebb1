package medium

import (
	"fmt"
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

func TestHistoryPruned(t *testing.T) {
	s, m := newTestMedium()
	a := m.Attach("a", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	a.SetOn(true)
	for i := 0; i < 100; i++ {
		m.Transmit(a, make([]byte, 10), phy.RateOFDM6)
		s.RunFor(sim.Second.Duration())
	}
	// Pruning is amortized (it re-runs after the history doubles past its
	// last compacted size), so the bound is a small constant, not an exact
	// count: 100 long-dead transmissions must not accumulate.
	if len(m.history) > 32 {
		t.Fatalf("history holds %d entries after pruning", len(m.history))
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

// TestSetPosRebucketsGrid: moving a radio with SetPos must take effect for
// later transmissions even after the spatial index is built.
func TestSetPosRebucketsGrid(t *testing.T) {
	s, m := newTestMedium()
	tx := m.Attach("tx", Position{0, 0}, 0, phy.SensitivityWiFiMCS7)
	rx := m.Attach("rx", Position{500, 0}, 0, phy.SensitivityWiFiMCS7)
	tx.SetOn(true)
	rx.SetOn(true)
	delivered := 0
	rx.Handler = func(Reception) { delivered++ }

	m.Transmit(tx, make([]byte, 10), phy.RateOFDM6) // builds the grid; rx far out of range
	s.Run()
	if delivered != 0 {
		t.Fatal("delivery at 500 m")
	}
	rx.SetPos(Position{3, 0})
	m.Transmit(tx, make([]byte, 10), phy.RateOFDM6)
	s.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d after moving into range, want 1", delivered)
	}
	rx.SetPos(Position{500, 0})
	m.Transmit(tx, make([]byte, 10), phy.RateOFDM6)
	s.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d after moving back out of range, want 1", delivered)
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
