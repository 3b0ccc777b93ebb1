// Package medium simulates the shared 2.4/5 GHz radio channel: who hears
// whom, at what signal strength, and which transmissions collide.
//
// The model is the standard discrete-event one: a transmission occupies the
// channel for its PHY airtime, and one delivery event at the transmission's
// end hands the frame, in attach order, to every attached transceiver on
// the same channel whose received power clears its sensitivity. Two
// transmissions overlapping in time at a receiver corrupt each other unless
// one captures the receiver by a 10 dB margin. Corruption is expressed by
// flipping bytes so the 802.11 FCS check fails at decode time, exactly as on
// real hardware.
//
// The medium scales to city-size populations (DESIGN.md §12): a transmitter
// only visits receivers inside its interference radius — the distance at
// which its signal falls below the most sensitive attached floor — found
// through a flat grid index of the radios' positions, rebuilt at the first
// transmission after a radio attaches or moves, and carrier sense is an O(1)
// per-radio high-water mark instead of a history scan. Both are exact, not
// approximations: the culled receiver set provably contains every radio the
// all-pairs walk could have delivered to, sensed at, or interfered with, and
// a brute-force all-pairs model in the package's tests pins byte-identical
// behavior on randomized topologies. A provenance ledger changes none of
// this. Every radio a frame reaches below its own floor, culled radios
// included, is settled by count in the frame's delivery event, from a
// medium-wide count of powered-off radios and, while a ledger is attached,
// a short list of powered radios without a Handler. The list cannot see a
// Handler cleared on a powered radio; no code clears one.
package medium

import (
	"fmt"
	"math"
	"time"

	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
)

// CaptureMarginDB is the power advantage at which the stronger of two
// overlapping frames survives (physical-layer capture effect).
const CaptureMarginDB = 10

// Position is a 2-D location in meters.
type Position struct{ X, Y float64 }

// Distance reports the Euclidean distance to q, floored at 0.1 m to keep
// the path-loss model sane for co-located devices.
func (p Position) Distance(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	d := dx*dx + dy*dy
	if d < 0.01 {
		return 0.1
	}
	return math.Sqrt(d)
}

// mustBeFinite panics unless both coordinates are finite: the spatial index
// places radios by position, and NaN or ±Inf has no grid cell.
func (p Position) mustBeFinite(name string) {
	if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
		panic(fmt.Sprintf("medium: %s at non-finite position %v", name, p))
	}
}

// Reception describes one frame arriving at a transceiver.
type Reception struct {
	// Data is the MPDU including FCS. If the frame collided, bytes have
	// been flipped and the FCS will not verify.
	Data []byte
	// Rate is the PHY rate the frame was sent at.
	Rate phy.Rate
	// RSSI is the received signal strength.
	RSSI phy.DBm
	// Collided reports whether another transmission overlapped this one at
	// the receiver above sensitivity (diagnostic; receivers should rely on
	// the FCS).
	Collided bool
	// Start and End bound the frame's airtime.
	Start, End sim.Time
	// Frame is the provenance id assigned at Transmit, or zero when no
	// ledger is attached. A collided reception was already resolved by the
	// medium; receivers resolve the decode-side outcomes of the rest
	// (mac.Port does).
	Frame obs.FrameID
}

// heardTx is one transmission a receiver can hear (RSSI at or above its
// sensitivity), recorded at transmit time. It is everything the collision
// scan at delivery needs: the identity triple to skip the delivered frame
// itself, the airtime bounds for the overlap test, and the received power
// for the capture comparison. It names its sender by attach index, so a
// collision window holds no pointers for the collector to scan or guard.
type heardTx struct {
	from       int32
	start, end sim.Time
	rssi       phy.DBm
}

// interval is one of a radio's own transmissions (half-duplex blinding).
type interval struct{ start, end sim.Time }

// Transceiver is one radio attached to the medium.
type Transceiver struct {
	m *Medium
	// Name labels the transceiver in diagnostics.
	Name string
	// Pos is the radio's location. It must not be reassigned after Attach —
	// the medium's spatial index caches it; move a radio with SetPos.
	Pos Position
	// Sensitivity is the weakest signal the radio can decode.
	Sensitivity phy.DBm
	// TxPower is the transmit power.
	TxPower phy.DBm
	// Handler receives every decodable frame while the radio is on. It
	// runs inside the simulation event that delivers the frame. A radio
	// without one resolves radio_off in a ledger. The ledger's count of
	// such radios sees a Handler set at any time, and a Handler cleared
	// while the radio is off, but not one cleared on a powered radio; no
	// code clears one.
	Handler func(rx Reception)
	// on tracks whether the radio is powered.
	on bool
	// listed reports whether the radio is on the medium's noHandler list.
	listed bool
	// prov is this radio's actor id in the medium's provenance ledger,
	// assigned when the ledger is wired (ObserveProvenance / Attach).
	prov obs.ActorID

	// idx is the attach order; a frame's receivers are always delivered in
	// idx order so the event stream is independent of the spatial index.
	idx int
	// busyUntil is the latest end time of any transmission this radio can
	// hear (including its own). Because every transmission starts at its
	// Transmit call time, "busy now" is exactly busyUntil > now — carrier
	// sense without a history scan.
	busyUntil sim.Time
	// heard accumulates in-flight (and recently ended) transmissions at or
	// above this radio's sensitivity; the delivery-time collision scan walks
	// it. Compacted lazily against the medium's prune floor.
	heard []heardTx
	// ownTx are this radio's own transmissions: a half-duplex radio misses
	// everything during its own TX regardless of power levels.
	ownTx []interval
}

// SetOn powers the radio on or off. A powered-off radio neither receives
// nor carrier-senses; this is what deep/light sleep do to the WiFi chip.
func (t *Transceiver) SetOn(on bool) {
	if on == t.on {
		return
	}
	t.on = on
	m := t.m
	if !on {
		m.off++
		return
	}
	m.off--
	if m.Prov != nil && t.Handler == nil && !t.listed {
		t.listed = true
		m.noHandler = append(m.noHandler, t)
	}
}

// listening reports whether the radio can take a frame: powered and with a
// Handler. A radio that cannot resolves radio_off in a ledger.
func (t *Transceiver) listening() bool { return t.on && t.Handler != nil }

// On reports whether the radio is powered.
func (t *Transceiver) On() bool { return t.on }

// SetPos moves the radio, keeping the medium's spatial index coherent. It
// panics on a non-finite coordinate. Position changes take effect for
// frames transmitted after the move; frames already in flight keep the
// geometry they were launched under.
func (t *Transceiver) SetPos(p Position) {
	p.mustBeFinite(t.Name)
	t.Pos = p
	t.m.grid.current = false
}

// ProvID reports the radio's actor id in the medium's provenance ledger.
// Meaningful only while the medium's Prov hook is non-nil.
func (t *Transceiver) ProvID() obs.ActorID { return t.prov }

// transmission is one in-flight frame.
type transmission struct {
	from       *Transceiver
	data       []byte
	rate       phy.Rate
	start, end sim.Time
	frame      obs.FrameID
}

// Medium is one radio channel shared by a set of transceivers.
type Medium struct {
	sched *sim.Scheduler
	// Channel is the radio channel; transceivers on a Medium implicitly
	// share it (multi-channel setups build one Medium per channel).
	Channel phy.Channel
	// Loss is the propagation model.
	Loss phy.PathLoss
	// Corrupt controls whether collisions flip bytes (true, default via
	// New) or merely set the Collided flag.
	Corrupt bool

	// Prov, when non-nil, is the frame-provenance ledger: Transmit assigns
	// each frame an id and its delivery resolves the medium-owned outcomes
	// (radio_off, below_sensitivity, collided). Wire it through
	// ObserveProvenance so already-attached radios get actor ids and the
	// powered ones without a Handler are listed.
	Prov *obs.Provenance

	nodes []*Transceiver
	// off counts the attached radios that are powered off.
	off int
	// noHandler holds, while a ledger is attached, every powered radio
	// without a Handler, and possibly radios that have since been switched
	// off or given one; each ledger delivery prunes those.
	noHandler []*Transceiver
	// Stats counts medium-level events for the experiment harness.
	Stats Stats

	// minSens is the most sensitive floor of any attached radio; with Loss
	// and a transmitter's power it bounds that transmitter's interference
	// radius. Monotone as radios attach.
	minSens phy.DBm
	grid    grid
	// free lists the idle delivery records. first is the medium's own
	// record, on the list from New, so a world whose frames never overlap
	// allocates no record at all.
	free  *delivery
	first delivery

	// maxAir is the longest airtime the medium has carried. Every pending
	// frame started at most maxAir ago, so a 300 ms frame at 1 Mb/s keeps
	// its interferers alive where a fixed window would drop them.
	maxAir time.Duration
	// cutoff is the monotone prune floor, now − maxAir at the latest
	// transmission: heard and ownTx entries ending at or before it can no
	// longer overlap any pending delivery. It bounds only their memory;
	// every overlap is still tested explicitly.
	cutoff sim.Time
}

// candidate is one grid-query hit: the attach index of a receiver inside
// the transmitter's interference radius, and the received power there.
type candidate struct {
	idx  int32
	rssi phy.DBm
}

// Stats aggregates medium activity. Deliveries counts receptions handed to
// a Handler clean of collision; Collisions counts collided receptions (the
// two are disjoint, matching the provenance taxonomy's delivered-vs-collided
// split).
type Stats struct {
	Transmissions int
	Deliveries    int
	Collisions    int
}

// Counters emits the Stats as wile.medium_* counters (obs.Source), so
// examples and CLIs report medium activity from a registry.
func (s *Stats) Counters(emit func(name string, v int64)) {
	emit("wile.medium_transmissions", int64(s.Transmissions))
	emit("wile.medium_deliveries", int64(s.Deliveries))
	emit("wile.medium_collisions", int64(s.Collisions))
}

// New builds a medium on the given channel with an indoor path-loss model
// (exponent 3.0, typical for the home/office environments in the paper).
func New(sched *sim.Scheduler, ch phy.Channel) *Medium {
	m := &Medium{
		sched:   sched,
		Channel: ch,
		Loss:    phy.PathLoss{Exponent: 3.0, FreqMHz: ch.FreqMHz},
		Corrupt: true,
		minSens: phy.DBm(math.Inf(1)),
	}
	m.first.m = m
	m.first.rcvs = m.first.one[:0]
	m.free = &m.first
	return m
}

// Attach adds a radio at pos. The radio starts powered off. It panics on a
// non-finite coordinate.
func (m *Medium) Attach(name string, pos Position, txPower, sensitivity phy.DBm) *Transceiver {
	pos.mustBeFinite(name)
	t := &Transceiver{
		m: m, Name: name, Pos: pos,
		Sensitivity: sensitivity, TxPower: txPower,
		idx: len(m.nodes),
	}
	if m.Prov != nil {
		t.prov = m.Prov.Actor(name)
	}
	if sensitivity < m.minSens {
		m.minSens = sensitivity
	}
	m.off++
	m.nodes = append(m.nodes, t)
	m.grid.current = false
	return t
}

// Observe collects the medium's Stats into the registry, which reads them
// as wile.medium_* counters.
func (m *Medium) Observe(reg *obs.Registry) { reg.Collect(&m.Stats) }

// ObserveProvenance attaches a frame-provenance ledger, registering every
// already-attached radio as an actor. Frames transmitted before wiring keep
// FrameID zero and stay outside the ledger's accounting.
func (m *Medium) ObserveProvenance(p *obs.Provenance) {
	m.Prov = p
	for _, t := range m.noHandler {
		t.listed = false
	}
	m.noHandler = nil
	if p == nil {
		return
	}
	for _, t := range m.nodes {
		t.prov = p.Actor(t.Name)
		if t.on && t.Handler == nil {
			t.listed = true
			m.noHandler = append(m.noHandler, t)
		}
	}
}

// Busy reports whether t currently hears any transmission above its
// sensitivity — the physical carrier-sense the DCF needs. A radio hears
// its own transmission.
func (m *Medium) Busy(t *Transceiver) bool {
	return t.busyUntil > m.sched.Now()
}

// BusyUntil reports the latest end time of any transmission t can hear, or
// zero time if idle.
func (m *Medium) BusyUntil(t *Transceiver) sim.Time {
	if until := t.busyUntil; until > m.sched.Now() {
		return until
	}
	return 0
}

// Transmit puts data on the air from t at the given rate. The data slice
// must not be mutated while the frame (or any frame overlapping it) is in
// flight. Returns the airtime.
func (m *Medium) Transmit(t *Transceiver, data []byte, rate phy.Rate) time.Duration {
	if !t.on {
		panic(fmt.Sprintf("medium: %s transmitting with radio off", t.Name))
	}
	airtime := phy.FrameAirtime(rate, len(data))
	now := m.sched.Now()
	tx := transmission{from: t, data: data, rate: rate, start: now, end: now.Add(airtime)}
	// Every other attached radio is a potential receiver of a frame in the
	// ledger and resolves to exactly one outcome in the frame's delivery
	// event: in-range receivers one by one, the rest, culled radios
	// included, by count. attached stays 0 for a frame outside the ledger.
	attached := 0
	if m.Prov != nil {
		tx.frame = m.Prov.Transmitted(t.prov, len(m.nodes)-1)
		attached = len(m.nodes)
	}
	m.Stats.Transmissions++
	if airtime > m.maxAir {
		m.maxAir = airtime
	}
	if floor := now - sim.Time(m.maxAir); floor > m.cutoff {
		m.cutoff = floor
	}

	// The transmitter senses (and is blinded by) its own frame.
	if tx.end > t.busyUntil {
		t.busyUntil = tx.end
	}
	t.ownTx = appendPruned(t.ownTx, interval{start: now, end: tx.end}, m.cutoff)

	// Fill the head of the free list; it is booked only if the frame has a
	// radio to deliver to or resolve, and otherwise stays free for the
	// next frame.
	d := m.free
	if d == nil {
		d = &delivery{m: m}
		d.rcvs = d.one[:0]
		m.free = d
	}
	if !m.grid.current {
		m.buildGrid()
	}
	d.rcvs = m.gridCandidates(d.rcvs, t, m.Loss.Range(t.TxPower, m.minSens))
	// A frame in the ledger is booked even if it reaches no radio, as long
	// as some other radio has to resolve it.
	if len(d.rcvs) == 0 && attached < 2 {
		return airtime
	}
	// Carrier-sense and collision-scan state change now; the deliveries
	// wait for end of airtime.
	for _, c := range d.rcvs {
		if rcv := m.nodes[c.idx]; c.rssi >= rcv.Sensitivity {
			m.noteHeard(rcv, &tx, c.rssi)
		}
	}
	m.book(d, &tx, attached)
	return airtime
}

// delivery is one frame's end-of-airtime work: the receivers inside its
// interference budget, in attach order with their launch RSSI, and for a
// frame in the ledger the radio count at launch. A single scheduler event
// runs it. That dispatches exactly as one event per receiver would: those
// events would fire at the same instant with consecutive sequence numbers,
// and an event a Handler schedules for that instant sorts after all of
// them.
type delivery struct {
	m    *Medium
	tx   transmission
	rcvs []candidate
	// attached is how many radios were attached at launch, or 0 for a
	// frame outside the ledger; m.nodes[:attached] minus the sender and
	// rcvs are the frame's culled radios.
	attached int
	// fire is run, bound once per record so that booking a recycled
	// record allocates nothing.
	fire func()
	// next links the medium's free records.
	next *delivery
	// one backs rcvs until a frame has a second receiver.
	one [1]candidate
}

// book takes d, the head of the free list, off the list and schedules it
// to deliver tx at end of airtime. A Handler that transmits while d runs
// therefore fills a different record.
func (m *Medium) book(d *delivery, tx *transmission, attached int) {
	m.free, d.next = d.next, nil
	d.tx = *tx
	d.attached = attached
	if d.fire == nil {
		d.fire = d.run
	}
	m.sched.DoAt(tx.end, d.fire)
}

// run delivers the frame to every receiver in attach order, then settles
// the out-of-range receivers' provenance, then returns the record to the
// free list. Each receiver's outcome is decided at its turn, so it sees
// what earlier receivers' Handlers did: a reply they transmitted, or a
// radio they powered off. A Scheduler.Stop from a Handler takes effect
// after the frame's last receiver.
func (d *delivery) run() {
	m := d.m
	var off, below int
	for _, c := range d.rcvs {
		rcv := m.nodes[c.idx]
		switch {
		case c.rssi >= rcv.Sensitivity:
			m.deliver(&d.tx, rcv, c.rssi)
		case rcv.listening():
			below++
		default:
			off++
		}
	}
	if m.Prov != nil && d.attached > 0 {
		culled := d.attached - 1 - len(d.rcvs)
		culledOff := m.culledOff(d)
		m.Prov.ResolveOutOfRange(d.tx.frame, off+culledOff, below+culled-culledOff)
	}
	// The idle record keeps no radio or frame bytes alive.
	d.tx = transmission{}
	d.rcvs = d.rcvs[:0]
	d.next = m.free
	m.free = d
}

// noteHeard records a hearable transmission at rcv: it extends the
// carrier-sense high-water mark and joins the receiver's collision-scan
// window.
func (m *Medium) noteHeard(rcv *Transceiver, tx *transmission, rssi phy.DBm) {
	if tx.end > rcv.busyUntil {
		rcv.busyUntil = tx.end
	}
	rcv.heard = append(rcv.heard, heardTx{from: int32(tx.from.idx), start: tx.start, end: tx.end, rssi: rssi})
}

// appendPruned appends iv, dropping entries that ended at or before the
// prune floor while it is touching the slice anyway.
func appendPruned(ivs []interval, iv interval, cutoff sim.Time) []interval {
	kept := ivs[:0]
	for _, old := range ivs {
		if old.end > cutoff {
			kept = append(kept, old)
		}
	}
	return append(kept, iv)
}

// culledOff counts the radios d culled that cannot take a frame now:
// powered off, or powered without a Handler. The culled radios are those
// attached at d's launch other than its sender and receivers, so the count
// starts from every radio that cannot take a frame and takes away the
// sender, the receivers and the radios attached since, each checked now.
// It prunes m.noHandler on the way.
func (m *Medium) culledOff(d *delivery) int {
	n := m.off
	kept := m.noHandler[:0]
	for _, t := range m.noHandler {
		if !t.on || t.Handler != nil {
			t.listed = false
			continue
		}
		kept = append(kept, t)
		n++
	}
	clear(m.noHandler[len(kept):])
	m.noHandler = kept
	if !d.tx.from.listening() {
		n--
	}
	for _, c := range d.rcvs {
		if !m.nodes[c.idx].listening() {
			n--
		}
	}
	for _, t := range m.nodes[d.attached:] {
		if !t.listening() {
			n--
		}
	}
	return n
}

// deliver decides at end-of-frame whether rcv, in range of tx, decodes
// it. The medium owns the provenance outcomes it can decide alone
// (radio_off, collided); receptions it hands to a Handler resolve at the
// decode layers. rssi was computed when the frame was launched. Every
// in-range receiver compacts its heard window here, but only one that can
// take the frame runs the collision scan.
func (m *Medium) deliver(tx *transmission, rcv *Transceiver, rssi phy.DBm) {
	rcv.pruneHeard(m.cutoff)
	if !rcv.listening() {
		if m.Prov != nil {
			m.Prov.Resolve(tx.frame, rcv.prov, tx.end, obs.DropRadioOff)
		}
		return
	}
	m.finishDelivery(tx, rcv, rssi, collides(tx, rcv, rssi))
}

// pruneHeard drops the heard entries that ended at or before the prune
// floor. Reslicing t.heard onto itself stores only its length, so the
// compaction runs no write barrier.
func (t *Transceiver) pruneHeard(cutoff sim.Time) {
	n := 0
	for _, h := range t.heard {
		if h.end > cutoff {
			t.heard[n] = h
			n++
		}
	}
	t.heard = t.heard[:n]
}

// collides runs the collision scan over rcv's heard window and the
// receiver's own transmissions.
func collides(tx *transmission, rcv *Transceiver, rssi phy.DBm) bool {
	from := int32(tx.from.idx)
	for _, h := range rcv.heard {
		if h.from == from && h.start == tx.start && h.end == tx.end {
			continue // the delivered frame itself
		}
		if h.start >= tx.end || h.end <= tx.start {
			continue
		}
		if float64(rssi-h.rssi) >= CaptureMarginDB {
			continue // we capture over the weaker frame
		}
		return true
	}
	for _, iv := range rcv.ownTx {
		if iv.start < tx.end && iv.end > tx.start {
			// Receiver was itself transmitting: half-duplex radios miss
			// everything during their own TX.
			return true
		}
	}
	return false
}

// finishDelivery applies the collision outcome to the counters, the ledger
// and the payload, then hands the reception to the receiver. Collided
// receptions count only as collisions: Stats and the provenance taxonomy
// agree that delivered and collided are disjoint.
func (m *Medium) finishDelivery(tx *transmission, rcv *Transceiver, rssi phy.DBm, collided bool) {
	data := tx.data
	if collided {
		m.Stats.Collisions++
		if m.Prov != nil {
			m.Prov.Resolve(tx.frame, rcv.prov, tx.end, obs.DropCollided)
		}
		if m.Corrupt && len(data) > 0 {
			corrupted := append([]byte(nil), data...)
			// Flip a mid-frame byte so the FCS fails: the canonical
			// collision outcome.
			corrupted[len(corrupted)/2] ^= 0xff
			data = corrupted
		}
	} else {
		m.Stats.Deliveries++
	}
	rcv.Handler(Reception{
		Data:     data,
		Rate:     tx.rate,
		RSSI:     rssi,
		Collided: collided,
		Start:    tx.start,
		End:      tx.end,
		Frame:    tx.frame,
	})
}
