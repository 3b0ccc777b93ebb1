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
// through a uniform spatial grid over Position, and carrier sense is an O(1)
// per-radio high-water mark instead of a history scan. Both are exact, not
// approximations: the culled receiver set provably contains every radio the
// all-pairs walk could have delivered to, sensed at, or interfered with, and
// a brute-force all-pairs model in the package's tests pins byte-identical
// behavior on randomized topologies.
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
	// (mac.Port does, or its ProvDelegate owner).
	Frame obs.FrameID
}

// heardTx is one transmission a receiver can hear (RSSI at or above its
// sensitivity), recorded at transmit time. It is everything the collision
// scan at delivery needs: the identity triple to skip the delivered frame
// itself, the airtime bounds for the overlap test, and the received power
// for the capture comparison.
type heardTx struct {
	from       *Transceiver
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
	// runs inside the simulation event that delivers the frame.
	Handler func(rx Reception)
	// on tracks whether the radio is powered.
	on bool
	// prov is this radio's actor id in the medium's provenance ledger,
	// assigned when the ledger is wired (ObserveProvenance / Attach).
	prov obs.ActorID

	// idx is the attach order; a frame's receivers are always delivered in
	// idx order so the event stream is independent of the spatial index.
	idx int
	// cell is the radio's current grid bucket, valid once the grid is built.
	cell cellKey
	// busyUntil is the latest end time of any transmission this radio can
	// hear (including its own). Because every transmission starts at its
	// Transmit call time, "busy now" is exactly busyUntil > now — carrier
	// sense without a history scan.
	busyUntil sim.Time
	// heard accumulates in-flight (and recently ended) transmissions at or
	// above this radio's sensitivity; the delivery-time collision scan walks
	// it instead of the global history. Compacted lazily against the
	// medium's prune floor.
	heard []heardTx
	// ownTx are this radio's own transmissions: a half-duplex radio misses
	// everything during its own TX regardless of power levels.
	ownTx []interval
}

// SetOn powers the radio on or off. A powered-off radio neither receives
// nor carrier-senses; this is what deep/light sleep do to the WiFi chip.
func (t *Transceiver) SetOn(on bool) { t.on = on }

// On reports whether the radio is powered.
func (t *Transceiver) On() bool { return t.on }

// SetPos moves the radio, keeping the medium's spatial index coherent.
// Position changes take effect for frames transmitted after the move;
// frames already in flight keep the geometry they were launched under.
func (t *Transceiver) SetPos(p Position) {
	if t.m != nil && t.m.grid.built {
		t.m.grid.move(t, p)
	}
	t.Pos = p
}

// ProvID reports the radio's actor id in the medium's provenance ledger.
// Meaningful only while the medium's Prov hook is non-nil.
func (t *Transceiver) ProvID() obs.ActorID { return t.prov }

// transmission is one in-flight (or recently finished) frame.
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
	// each frame an id and deliver resolves the medium-owned outcomes
	// (radio_off, below_sensitivity, collided). Wire it through
	// ObserveProvenance so already-attached radios get actor ids.
	Prov *obs.Provenance
	// Metrics, when non-nil, mirrors Stats into a registry (see Observe).
	Metrics *Metrics

	nodes   []*Transceiver
	history []transmission
	// Stats counts medium-level events for the experiment harness.
	Stats Stats
	// mirrored is the portion of Stats already exported into Metrics, so
	// Observe's back-fill is idempotent (Observe may be called again, and
	// two media may share one registry's counters).
	mirrored Stats

	// minSens is the most sensitive floor of any attached radio and maxTx
	// the strongest attached transmitter; together with Loss they bound
	// every interference radius. Monotone as radios attach.
	minSens phy.DBm
	// maxTx is meaningful only while hasNodes (0 dBm is a valid power).
	maxTx    phy.DBm
	hasNodes bool
	grid     grid
	// free lists the idle delivery records. first is the medium's own
	// record, on the list from New, so a world whose frames never overlap
	// allocates no record at all.
	free  *delivery
	first delivery

	// maxAir is the longest airtime among frames currently in history; the
	// prune window is derived from it, so a 300 ms frame at 1 Mb/s keeps
	// its interferers alive where a fixed window would drop them.
	maxAir time.Duration
	// cutoff is the monotone prune floor: transmissions (and heard entries)
	// ending at or before it can no longer overlap any pending delivery.
	cutoff sim.Time
	// prunedLen is the history length right after the last compaction;
	// pruning re-runs only after meaningful growth, keeping it amortized
	// O(1) per transmission.
	prunedLen int
}

// candidate is one grid-query hit: a receiver inside the transmitter's
// interference radius and the received power there.
type candidate struct {
	t    *Transceiver
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

// Metrics mirrors the Stats counters into an obs.Registry as wile.medium_*
// counters, so examples and CLIs report medium activity without reaching
// into simulator structs.
type Metrics struct {
	Transmissions *obs.Counter
	Deliveries    *obs.Counter
	Collisions    *obs.Counter
}

// MetricsFor returns the registry's shared medium counters, registering
// them on first use.
func MetricsFor(reg *obs.Registry) *Metrics {
	return &Metrics{
		Transmissions: reg.Counter("wile.medium_transmissions"),
		Deliveries:    reg.Counter("wile.medium_deliveries"),
		Collisions:    reg.Counter("wile.medium_collisions"),
	}
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

// Attach adds a radio at pos. The radio starts powered off.
func (m *Medium) Attach(name string, pos Position, txPower, sensitivity phy.DBm) *Transceiver {
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
	if !m.hasNodes || txPower > m.maxTx {
		m.maxTx = txPower
	}
	m.hasNodes = true
	m.nodes = append(m.nodes, t)
	if m.grid.built {
		m.grid.insert(t)
	}
	return t
}

// Observe mirrors the medium's Stats into the registry's wile.medium_*
// counters (see MetricsFor). Counts accumulated before wiring are
// back-filled exactly once: calling Observe again (or pointing several
// media at one registry) never re-adds already-exported counts.
func (m *Medium) Observe(reg *obs.Registry) {
	mm := MetricsFor(reg)
	if m.Metrics == nil || m.Metrics.Transmissions != mm.Transmissions {
		// First wiring, or a different registry: nothing of ours has been
		// exported into these counters yet.
		m.mirrored = Stats{}
	}
	m.Metrics = mm
	if mm != nil {
		mm.Transmissions.Add(int64(m.Stats.Transmissions - m.mirrored.Transmissions))
		mm.Deliveries.Add(int64(m.Stats.Deliveries - m.mirrored.Deliveries))
		mm.Collisions.Add(int64(m.Stats.Collisions - m.mirrored.Collisions))
	}
	m.mirrored = m.Stats
}

// countTransmission/countDelivery/countCollision bump one Stats counter and
// its registry mirror together, keeping mirrored in lockstep so Observe's
// back-fill stays idempotent.
func (m *Medium) countTransmission() {
	m.Stats.Transmissions++
	if m.Metrics != nil {
		m.Metrics.Transmissions.Inc()
		m.mirrored.Transmissions++
	}
}

func (m *Medium) countDelivery() {
	m.Stats.Deliveries++
	if m.Metrics != nil {
		m.Metrics.Deliveries.Inc()
		m.mirrored.Deliveries++
	}
}

func (m *Medium) countCollision() {
	m.Stats.Collisions++
	if m.Metrics != nil {
		m.Metrics.Collisions.Inc()
		m.mirrored.Collisions++
	}
}

// ObserveProvenance attaches a frame-provenance ledger, registering every
// already-attached radio as an actor. Frames transmitted before wiring keep
// FrameID zero and stay outside the ledger's accounting.
func (m *Medium) ObserveProvenance(p *obs.Provenance) {
	m.Prov = p
	if p == nil {
		return
	}
	for _, t := range m.nodes {
		t.prov = p.Actor(t.Name)
	}
}

// rssiAt reports from's signal strength at to.
func (m *Medium) rssiAt(from, to *Transceiver) phy.DBm {
	return m.Loss.RSSI(from.TxPower, from.Pos.Distance(to.Pos))
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
	if m.Prov != nil {
		// Every other attached radio is a potential receiver and must
		// resolve to exactly one outcome in the frame's delivery event:
		// in-radius radios through deliver, culled ones through
		// resolveCulled.
		tx.frame = m.Prov.Transmitted(t.prov, len(m.nodes)-1)
	}
	m.history = append(m.history, tx)
	if airtime > m.maxAir {
		m.maxAir = airtime
	}
	m.countTransmission()
	m.pruneHistory(now)

	// The transmitter senses (and is blinded by) its own frame.
	if tx.end > t.busyUntil {
		t.busyUntil = tx.end
	}
	t.ownTx = appendPruned(t.ownTx, interval{start: now, end: tx.end}, m.cutoff)

	// Fill the head of the free list; it is booked only if the frame
	// reaches some radio, and otherwise stays free for the next frame.
	d := m.free
	if d == nil {
		d = &delivery{m: m}
		d.rcvs = d.one[:0]
		m.free = d
	}
	if m.Prov != nil {
		// The ledger accounts for every pair, so the walk is O(nodes)
		// regardless of culling.
		for _, rcv := range m.nodes {
			if rcv == t {
				continue
			}
			rssi := m.rssiAt(t, rcv)
			if rssi < m.minSens {
				d.culled = append(d.culled, rcv)
				continue
			}
			d.rcvs = append(d.rcvs, candidate{t: rcv, rssi: rssi})
		}
	} else {
		if !m.grid.built {
			m.buildGrid()
		}
		d.rcvs = m.gridCandidates(d.rcvs, t, m.Loss.Range(t.TxPower, m.minSens))
	}
	if len(d.rcvs) == 0 && len(d.culled) == 0 {
		return airtime
	}
	// Carrier-sense and collision-scan state change now; the deliveries
	// wait for end of airtime.
	for _, c := range d.rcvs {
		if c.rssi >= c.t.Sensitivity {
			m.noteHeard(c.t, &tx, c.rssi)
		}
	}
	m.book(d, &tx)
	return airtime
}

// delivery is one frame's end-of-airtime work: the receivers inside its
// interference budget, in attach order with their launch RSSI, and with a
// ledger attached the radios outside it. A single scheduler event runs it.
// That dispatches exactly as one event per receiver would: those events
// would fire at the same instant with consecutive sequence numbers, and an
// event a Handler schedules for that instant sorts after all of them.
type delivery struct {
	m      *Medium
	tx     transmission
	rcvs   []candidate
	culled []*Transceiver
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
func (m *Medium) book(d *delivery, tx *transmission) {
	m.free, d.next = d.next, nil
	d.tx = *tx
	if d.fire == nil {
		d.fire = d.run
	}
	m.sched.DoAt(tx.end, d.fire)
}

// run delivers the frame to every receiver in attach order, then settles
// the culled radios' provenance, then returns the record to the free list.
// Each receiver's outcome is decided at its turn, so it sees what earlier
// receivers' Handlers did: a reply they transmitted, or a radio they
// powered off. A Scheduler.Stop from a Handler takes effect after the
// frame's last receiver.
func (d *delivery) run() {
	m := d.m
	for _, c := range d.rcvs {
		m.deliver(&d.tx, c.t, c.rssi)
	}
	m.resolveCulled(&d.tx, d.culled)
	// The receivers are the medium's own radios, so keeping them in the
	// idle record pins nothing; the frame's bytes are dropped.
	d.tx = transmission{}
	d.rcvs = d.rcvs[:0]
	d.culled = d.culled[:0]
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
	rcv.heard = append(rcv.heard, heardTx{from: tx.from, start: tx.start, end: tx.end, rssi: rssi})
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

// resolveCulled settles the provenance outcomes of every receiver outside
// the frame's interference budget, in the frame's delivery event after its
// in-budget receivers. The all-pairs precedence is preserved: a powered-off
// (or handler-less) radio resolves radio_off even though the signal also
// missed it.
func (m *Medium) resolveCulled(tx *transmission, culled []*Transceiver) {
	if m.Prov == nil {
		return
	}
	for _, rcv := range culled {
		if !rcv.on || rcv.Handler == nil {
			m.Prov.Resolve(tx.frame, rcv.prov, tx.end, obs.DropRadioOff)
			continue
		}
		m.Prov.Resolve(tx.frame, rcv.prov, tx.end, obs.DropBelowSensitivity)
	}
}

// deliver decides at end-of-frame whether rcv decodes tx. The medium owns
// the provenance outcomes it can decide alone (radio_off,
// below_sensitivity, collided); receptions it hands to a Handler resolve
// at the decode layers. rssi was computed when the frame was launched.
func (m *Medium) deliver(tx *transmission, rcv *Transceiver, rssi phy.DBm) {
	collided := m.scanHeard(tx, rcv, rssi)
	if !rcv.on || rcv.Handler == nil {
		if m.Prov != nil {
			m.Prov.Resolve(tx.frame, rcv.prov, tx.end, obs.DropRadioOff)
		}
		return
	}
	if rssi < rcv.Sensitivity {
		if m.Prov != nil {
			m.Prov.Resolve(tx.frame, rcv.prov, tx.end, obs.DropBelowSensitivity)
		}
		return
	}
	m.finishDelivery(tx, rcv, rssi, collided)
}

// scanHeard runs the collision scan over rcv's heard window (compacting it
// against the prune floor in the same pass) and the receiver's own
// transmissions.
func (m *Medium) scanHeard(tx *transmission, rcv *Transceiver, rssi phy.DBm) bool {
	collided := false
	kept := rcv.heard[:0]
	for _, h := range rcv.heard {
		if h.end <= m.cutoff {
			continue
		}
		kept = append(kept, h)
		if collided {
			continue
		}
		if h.from == tx.from && h.start == tx.start && h.end == tx.end {
			continue // the delivered frame itself
		}
		if h.start >= tx.end || h.end <= tx.start {
			continue
		}
		if float64(rssi-h.rssi) >= CaptureMarginDB {
			continue // we capture over the weaker frame
		}
		collided = true
	}
	clearHeard(rcv.heard[len(kept):])
	rcv.heard = kept
	if !collided {
		for _, iv := range rcv.ownTx {
			if iv.start < tx.end && iv.end > tx.start {
				// Receiver was itself transmitting: half-duplex radios miss
				// everything during their own TX.
				collided = true
				break
			}
		}
	}
	return collided
}

// clearHeard zeroes compacted-away tail entries so their *Transceiver
// pointers do not pin dead radios in a long-lived slice.
func clearHeard(tail []heardTx) {
	for i := range tail {
		tail[i] = heardTx{}
	}
}

// finishDelivery applies the collision outcome to the counters, the ledger
// and the payload, then hands the reception to the receiver. Collided
// receptions count only as collisions: Stats, the registry mirror and the
// provenance taxonomy all agree that delivered and collided are disjoint.
func (m *Medium) finishDelivery(tx *transmission, rcv *Transceiver, rssi phy.DBm, collided bool) {
	data := tx.data
	if collided {
		m.countCollision()
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
		m.countDelivery()
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

// pruneHistory drops transmissions that can no longer overlap any pending
// delivery. The keep window is the longest airtime currently on the air —
// every pending frame started at most that long before its delivery fires —
// instead of a fixed constant that silently assumed no frame outlives it.
// Compaction is amortized: it re-runs only once the history has clearly
// outgrown its last compacted size.
func (m *Medium) pruneHistory(now sim.Time) {
	if floor := now - sim.Time(m.maxAir); floor > m.cutoff {
		m.cutoff = floor
	}
	if len(m.history) < 2*m.prunedLen+16 {
		return
	}
	i := 0
	m.maxAir = 0
	for _, tx := range m.history {
		if tx.end <= m.cutoff {
			continue
		}
		m.history[i] = tx
		i++
		if air := tx.end.Sub(tx.start); air > m.maxAir {
			m.maxAir = air
		}
	}
	clear(m.history[i:])
	m.history = m.history[:i]
	m.prunedLen = i
}
