package obs

// Frame provenance: a per-run ledger that accounts for every transmitted
// frame at every potential receiver. The medium assigns a FrameID to each
// transmission; every (frame, receiver) pair then resolves to exactly one
// terminal outcome from the closed DropReason taxonomy. The ledger enforces
// the one-terminal-outcome rule structurally (a second resolution of the
// same pair panics — it is always an instrumentation bug; receivers settled
// in bulk by ResolveOutOfRange are checked by count) and exposes the
// conservation invariant the tests pin: per frame, potential receivers =
// delivered + Σ drops (DESIGN.md §10).
//
// Like a Recorder, a Provenance is intentionally not synchronized: it
// belongs to exactly one simulation kernel. Engine sweeps that want
// provenance attach one ledger per world.

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"wile/internal/sim"
)

// FrameID identifies one transmission. IDs are assigned monotonically from
// 1 by Transmitted; the zero FrameID marks a frame that predates the
// ledger's attachment and is ignored by Resolve.
type FrameID uint64

// ActorID identifies one transceiver registered with the ledger.
type ActorID int32

// DropReason is the terminal outcome of one (frame, receiver) pair — or,
// for DropQueueDrop, of a frame that died transmitter-side before reaching
// the air. The set is closed: every loss in the simulation maps to exactly
// one of these, and a frame that is not dropped is Delivered.
type DropReason uint8

const (
	// Delivered: the frame was decoded and accepted (or deliberately
	// ignored by an upper layer that heard it fine — overheard traffic).
	Delivered DropReason = iota
	// DropCollided: another transmission overlapped above sensitivity
	// without a 10 dB capture margin (includes the receiver's own TX).
	DropCollided
	// DropBelowSensitivity: the signal arrived under the receiver's
	// sensitivity floor.
	DropBelowSensitivity
	// DropRadioOff: the receiver's radio was powered off (or had no
	// receive path attached) for the frame's airtime.
	DropRadioOff
	// DropFCSError: the frame check sequence failed on a non-collided
	// reception — corruption injected outside the collision model.
	DropFCSError
	// DropDedupFiltered: duplicate detection discarded a retransmission
	// (MAC rx cache or core sequence dedup).
	DropDedupFiltered
	// DropQueueDrop: the frame died in the transmitter's queue and never
	// reached the air (radio powered down with traffic pending). TX-side:
	// recorded via QueueDrop, never Resolve, and outside the per-receiver
	// conservation sum.
	DropQueueDrop
	// DropDecodeError: the payload failed structural or cryptographic
	// decoding above the FCS (truncated element, missing key, bad auth).
	DropDecodeError
)

// NumDropReasons is the size of the closed taxonomy.
const NumDropReasons = 8

// dropReasonNames renders the taxonomy in its canonical wire spelling.
var dropReasonNames = [NumDropReasons]string{
	"delivered", "collided", "below_sensitivity", "radio_off",
	"fcs_error", "dedup_filtered", "queue_drop", "decode_error",
}

// dropInstantNames are the static per-reason trace-event names, so the
// enabled trace path allocates nothing per event.
var dropInstantNames = [NumDropReasons]string{
	"", "drop collided", "drop below-sensitivity", "drop radio-off",
	"drop fcs-error", "drop dedup-filtered", "drop queue-drop", "drop decode-error",
}

// String reports the canonical snake_case name used in reports and metric
// names.
func (r DropReason) String() string {
	if int(r) < len(dropReasonNames) {
		return dropReasonNames[r]
	}
	return fmt.Sprintf("DropReason(%d)", uint8(r))
}

// frameState tracks one in-flight frame: who sent it and how many potential
// receivers have not resolved yet. The seen set of the receivers that
// resolved one by one (one bit per ActorID below 64, a list past that) is
// what makes double resolution a detectable bug rather than a silently
// double-counted outcome. Receivers settled in bulk by ResolveOutOfRange
// are only counted. A completed frame's state is recycled through next.
type frameState struct {
	from    ActorID
	pending int32
	seen    uint64
	more    []ActorID
	next    *frameState
}

func (f *frameState) mark(rx ActorID) (already bool) {
	if rx < 64 {
		bit := uint64(1) << uint(rx)
		already = f.seen&bit != 0
		f.seen |= bit
		return already
	}
	if slices.Contains(f.more, rx) {
		return true
	}
	f.more = append(f.more, rx)
	return false
}

// linkKey names one (transmitter, receiver) edge of the drop report.
type linkKey struct{ from, to ActorID }

// hash mixes both ids with a fixed multiplier (Fibonacci hashing).
func (k linkKey) hash() uint32 {
	return uint32((uint64(uint32(k.from))<<32 | uint64(uint32(k.to))) * 0x9e3779b97f4a7c15 >> 32)
}

// linkRow is one report row: an edge and its per-reason counts.
type linkRow struct {
	linkKey
	counts [NumDropReasons]int64
}

// linkTable finds the report rows by open addressing under linkKey.hash.
// A Go map would do the same job, but how often it allocates while growing
// depends on its random per-map seed; this table allocates the same way in
// every run.
type linkTable struct {
	slots []*linkRow // nil marks an empty slot
	n     int
}

// row reports the counts of edge k, adding its row on first use.
func (t *linkTable) row(k linkKey) *[NumDropReasons]int64 {
	if 2*t.n >= len(t.slots) {
		t.grow()
	}
	mask := uint32(len(t.slots) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		r := t.slots[i]
		if r == nil {
			r = &linkRow{linkKey: k}
			t.slots[i] = r
			t.n++
		}
		if r.linkKey == k {
			return &r.counts
		}
	}
}

// grow doubles the slot array (16 at first) and re-slots every row, keeping
// the load at most one half.
func (t *linkTable) grow() {
	old := t.slots
	t.slots = make([]*linkRow, max(16, 2*len(old)))
	mask := uint32(len(t.slots) - 1)
	for _, r := range old {
		if r == nil {
			continue
		}
		i := r.hash() & mask
		for t.slots[i] != nil {
			i = (i + 1) & mask
		}
		t.slots[i] = r
	}
}

// outOfRange is the receiver of a transmitter's one "(out of range)" row,
// which counts every receiver settled by ResolveOutOfRange.
const outOfRange ActorID = -1

// outcomeCounterNames are the registry names of the per-reason totals.
var outcomeCounterNames = [NumDropReasons]string{
	"wile.medium_delivered", "wile.medium_drop_collided",
	"wile.medium_drop_below_sensitivity", "wile.medium_drop_radio_off",
	"wile.medium_drop_fcs_error", "wile.medium_drop_dedup_filtered",
	"wile.medium_drop_queue_drop", "wile.medium_drop_decode_error",
}

// Provenance is the frame-accounting ledger. All methods must be called
// from a single kernel goroutine; hook sites must be nil-guarded (obsguard
// enforces this) so disabled runs stay zero-cost.
type Provenance struct {
	actors     []string
	queueDrops []int64

	next FrameID
	// inflight holds the state of frames base, base+1, …: nil for a frame
	// that completed or had no receivers. base advances past the completed
	// prefix, and frames complete roughly in launch order, so the window
	// stays short (a frame left unresolved holds it open: one slot per
	// later frame). unresolved counts its frames with receivers pending.
	inflight   []*frameState
	base       FrameID
	unresolved int
	idle       *frameState

	potential int64
	outcomes  [NumDropReasons]int64
	links     linkTable

	rec        *Recorder
	dropTracks []TrackID
}

// NewProvenance returns an empty ledger.
func NewProvenance() *Provenance { return &Provenance{} }

// Actor registers a transceiver under the given diagnostic name and returns
// its id. The medium calls this for every attached transceiver when the
// ledger is wired (and for late attachments).
func (p *Provenance) Actor(name string) ActorID {
	id := ActorID(len(p.actors))
	p.actors = append(p.actors, name)
	p.queueDrops = append(p.queueDrops, 0)
	if p.rec != nil {
		p.dropTracks = append(p.dropTracks, p.rec.Track(name+" drops"))
	}
	return id
}

// Actors reports how many transceivers are registered.
func (p *Provenance) Actors() int { return len(p.actors) }

// TraceTo attaches the ledger to a trace recorder: every drop becomes an
// instant event on a per-actor "<name> drops" track. Must be wired before
// the first drop; actors registered later get tracks as they appear.
func (p *Provenance) TraceTo(r *Recorder) {
	p.rec = r
	p.dropTracks = p.dropTracks[:0]
	if r == nil {
		return
	}
	for _, name := range p.actors {
		p.dropTracks = append(p.dropTracks, r.Track(name+" drops"))
	}
}

// Observe collects the ledger into the registry, which then reads its
// totals as wile.medium_* counters (see Counters) whenever it is read.
func (p *Provenance) Observe(reg *Registry) { reg.Collect(p) }

// Counters emits the ledger's totals (Source): wile.medium_frames,
// wile.medium_delivered and one wile.medium_drop_<reason> per drop reason,
// queue_drop carrying the TX-side QueueDrops total.
func (p *Provenance) Counters(emit func(name string, v int64)) {
	emit("wile.medium_frames", int64(p.next))
	for r := DropReason(0); r < NumDropReasons; r++ {
		emit(outcomeCounterNames[r], p.total(r))
	}
}

// Transmitted assigns the next FrameID to a transmission from the given
// actor with the given number of potential receivers (every other attached
// transceiver). A frame with no potential receivers completes immediately.
func (p *Provenance) Transmitted(from ActorID, potential int) FrameID {
	p.next++
	id := p.next
	p.potential += int64(potential)
	if potential > 0 {
		fs := p.idle
		if fs == nil {
			fs = new(frameState)
		} else {
			p.idle = fs.next
		}
		fs.from, fs.pending = from, int32(potential)
		if len(p.inflight) == 0 {
			p.base = id
		}
		for p.base+FrameID(len(p.inflight)) < id {
			p.inflight = append(p.inflight, nil) // a frame with no receivers
		}
		p.inflight = append(p.inflight, fs)
		p.unresolved++
	}
	return id
}

// Resolve records the terminal outcome of one (frame, receiver) pair. The
// zero FrameID (a frame transmitted before the ledger was attached) is
// ignored. Resolving a pair twice, resolving an unknown or completed frame,
// or resolving with DropQueueDrop (a TX-side outcome; use QueueDrop) panics:
// each is an instrumentation bug that would silently break conservation.
func (p *Provenance) Resolve(frame FrameID, rx ActorID, at sim.Time, reason DropReason) {
	if frame == 0 {
		return
	}
	if reason == DropQueueDrop {
		panic("obs: queue_drop is a TX-side outcome; record it with QueueDrop")
	}
	fs := p.inflightFrame(frame, rx)
	if fs.mark(rx) {
		panic(fmt.Sprintf("obs: frame %d resolved twice at %s (%s)", frame, p.actorName(rx), reason))
	}
	p.outcomes[reason]++
	p.link(fs.from, rx)[reason]++
	p.settled(frame, fs, 1)
	if p.rec != nil && reason != Delivered && int(rx) < len(p.dropTracks) {
		p.rec.Instant(p.dropTracks[rx], at, dropInstantNames[reason])
	}
}

// ResolveOutOfRange settles, in one call, the receivers that frame reached
// below their own sensitivity floor: radioOff of them were powered off or
// had no receive path, belowSens were listening. They count in the
// transmitter's one "(out of range)" report row, not per receiver, and
// emit no trace instant. The zero FrameID and an empty call are ignored.
// Settling more receivers than the frame has pending panics, as does
// settling a frame that is unknown or complete.
func (p *Provenance) ResolveOutOfRange(frame FrameID, radioOff, belowSens int) {
	n := radioOff + belowSens
	if frame == 0 || n == 0 {
		return
	}
	fs := p.inflightFrame(frame, outOfRange)
	if radioOff < 0 || belowSens < 0 || n > int(fs.pending) {
		panic(fmt.Sprintf("obs: frame %d has %d receivers pending, settling radio_off=%d below_sensitivity=%d out of range",
			frame, fs.pending, radioOff, belowSens))
	}
	p.outcomes[DropRadioOff] += int64(radioOff)
	p.outcomes[DropBelowSensitivity] += int64(belowSens)
	counts := p.link(fs.from, outOfRange)
	counts[DropRadioOff] += int64(radioOff)
	counts[DropBelowSensitivity] += int64(belowSens)
	p.settled(frame, fs, n)
}

// inflightFrame looks up a frame that still has receivers pending, and
// panics naming the resolving receiver if there is none.
func (p *Provenance) inflightFrame(frame FrameID, rx ActorID) *frameState {
	if frame >= p.base && frame-p.base < FrameID(len(p.inflight)) {
		if fs := p.inflight[frame-p.base]; fs != nil {
			return fs
		}
	}
	panic(fmt.Sprintf("obs: resolving unknown or completed frame %d at %s", frame, p.actorName(rx)))
}

// settled counts n receivers of frame as resolved; the last one completes
// the frame and recycles its state.
func (p *Provenance) settled(frame FrameID, fs *frameState, n int) {
	fs.pending -= int32(n)
	if fs.pending > 0 {
		return
	}
	p.inflight[frame-p.base] = nil
	p.unresolved--
	if frame == p.base {
		// The oldest frame completed: move the window down past the
		// completed prefix, in place, so a sliding window never
		// reallocates.
		k := 1
		for k < len(p.inflight) && p.inflight[k] == nil {
			k++
		}
		n := copy(p.inflight, p.inflight[k:])
		clear(p.inflight[n:])
		p.inflight = p.inflight[:n]
		p.base += FrameID(k)
	}
	fs.seen, fs.more = 0, fs.more[:0]
	fs.next, p.idle = p.idle, fs
}

// link reports the counts of one report row, adding it on first use.
func (p *Provenance) link(from, to ActorID) *[NumDropReasons]int64 {
	return p.links.row(linkKey{from, to})
}

// QueueDrop records a frame that died in from's transmit queue without
// reaching the air. It has no FrameID and no per-receiver accounting, so it
// sits outside the conservation sum (DESIGN.md §10).
func (p *Provenance) QueueDrop(from ActorID, at sim.Time) {
	p.queueDrops[from]++
	if p.rec != nil && int(from) < len(p.dropTracks) {
		p.rec.Instant(p.dropTracks[from], at, dropInstantNames[DropQueueDrop])
	}
}

// Frames reports how many FrameIDs have been assigned.
func (p *Provenance) Frames() int64 { return int64(p.next) }

// Potential reports the total potential receptions over all frames.
func (p *Provenance) Potential() int64 { return p.potential }

// Pending reports how many frames still have unresolved receivers.
func (p *Provenance) Pending() int { return p.unresolved }

// Outcomes reports the per-reason reception totals. The DropQueueDrop slot
// is always zero here; TX-side queue drops are reported by QueueDrops.
func (p *Provenance) Outcomes() [NumDropReasons]int64 { return p.outcomes }

// QueueDrops reports the total TX-side queue drops.
func (p *Provenance) QueueDrops() int64 {
	var n int64
	for _, q := range p.queueDrops {
		n += q
	}
	return n
}

// total reports one reason's count as the reports and counters show it:
// the queue_drop slot carries QueueDrops.
func (p *Provenance) total(r DropReason) int64 {
	if r == DropQueueDrop {
		return p.QueueDrops()
	}
	return p.outcomes[r]
}

// Verify checks the conservation invariant: every frame fully resolved and
// Σ outcomes = Σ potential receivers. Call it after the scheduler drained
// (deliveries are scheduled at each frame's end-of-airtime).
func (p *Provenance) Verify() error {
	if n := p.unresolved; n != 0 {
		return fmt.Errorf("obs: provenance: %d frames still unresolved", n)
	}
	var resolved int64
	for _, n := range p.outcomes {
		resolved += n
	}
	if resolved != p.potential {
		return fmt.Errorf("obs: provenance: %d outcomes recorded for %d potential receptions", resolved, p.potential)
	}
	return nil
}

func (p *Provenance) actorName(id ActorID) string {
	if id == outOfRange {
		return "(out of range)"
	}
	if int(id) < len(p.actors) {
		return p.actors[id]
	}
	return "actor#" + strconv.Itoa(int(id))
}

// reportRows is what both report formats print, read from the ledger once
// per report.
type reportRows struct {
	// names are the actors' names by id: the registered ones, then those
	// actorName gives the ids past them that a link row names.
	names []string
	// links are the link rows in report order: by (from name, to name), a
	// transmitter's out-of-range row after its link rows, ids as a
	// tiebreak.
	links []*linkRow
	// queueDrops are the actors with TX-side queue drops, in (name, id)
	// order.
	queueDrops []ActorID
}

// report gathers the rows of a report. Names are compared once, to give
// each its dense rank (equal names share one); the rows then sort on the
// integers (rank(from), out of range, rank(to), from, to), which is the
// order of the names themselves, by counting instead of comparing.
func (p *Provenance) report() reportRows {
	v := reportRows{names: p.actors, links: make([]*linkRow, 0, p.links.n)}
	top := len(p.actors) - 1
	for _, r := range p.links.slots {
		if r != nil {
			v.links = append(v.links, r)
			top = max(top, int(r.from), int(r.to))
		}
	}
	if top >= len(p.actors) {
		v.names = slices.Clone(p.actors)
		for id := len(p.actors); id <= top; id++ {
			v.names = append(v.names, p.actorName(ActorID(id)))
		}
	}

	byName := make([]ActorID, len(v.names))
	for id := range byName {
		byName[id] = ActorID(id)
	}
	slices.SortStableFunc(byName, func(a, b ActorID) int { return strings.Compare(v.names[a], v.names[b]) })
	rank := make([]int, len(v.names))
	for i, id := range byName {
		if i > 0 {
			prev := byName[i-1]
			rank[id] = rank[prev]
			if v.names[id] != v.names[prev] {
				rank[id]++
			}
		}
		if int(id) < len(p.queueDrops) && p.queueDrops[id] > 0 {
			v.queueDrops = append(v.queueDrops, id)
		}
	}

	// Four stable counting passes over the rows' indexes, least
	// significant key first.
	rows := v.links
	order, tmp := make([]int32, len(rows)), make([]int32, len(rows))
	for i := range order {
		order[i] = int32(i)
	}
	count := make([]int, len(v.names)+1)
	pass := func(key func(r *linkRow) int) {
		clear(count)
		for _, i := range order {
			count[key(rows[i])]++
		}
		sum := 0
		for k, n := range count {
			count[k], sum = sum, sum+n
		}
		for _, i := range order {
			k := key(rows[i])
			tmp[count[k]] = i
			count[k]++
		}
		order, tmp = tmp, order
	}
	pass(func(r *linkRow) int { return int(r.to) + 1 })
	pass(func(r *linkRow) int { return int(r.from) })
	pass(func(r *linkRow) int {
		if r.to == outOfRange {
			return len(rank) // after every name
		}
		return rank[r.to]
	})
	pass(func(r *linkRow) int { return rank[r.from] })
	v.links = make([]*linkRow, len(rows))
	for i, j := range order {
		v.links[i] = rows[j]
	}
	return v
}

// name reports an actor's name as the reports print it.
func (v *reportRows) name(id ActorID) string {
	if id == outOfRange {
		return "(out of range)"
	}
	return v.names[id]
}

// reportLabels are the text report's outcome lines up to their count,
// the name left-aligned in 18 columns, and jsonKeys the JSON report's
// quoted reason keys.
var reportLabels, jsonKeys = func() (labels, keys [NumDropReasons]string) {
	for r, name := range dropReasonNames {
		labels[r] = "  " + name + strings.Repeat(" ", 19-len(name))
		keys[r] = `"` + name + `": `
	}
	return labels, keys
}()

// WriteReport renders the per-reason and per-link drop summary as a
// fixed-width table. Output is a pure function of the ledger's state:
// byte-identical across runs and GOMAXPROCS settings.
func (p *Provenance) WriteReport(w io.Writer) error {
	v := p.report()
	e := newEncoder(w)
	e.lit("frames ")
	e.num(int64(p.next))
	e.lit(", potential receptions ")
	e.num(p.potential)
	e.lit(", unresolved ")
	e.num(int64(p.unresolved))
	e.lit("\noutcomes:\n")
	for r := DropReason(0); r < NumDropReasons; r++ {
		e.lit(reportLabels[r])
		e.num(p.total(r))
		e.lit("\n")
	}
	if len(v.links) > 0 {
		e.lit("links:\n")
	}
	for _, k := range v.links {
		e.lit("  ")
		e.lit(v.name(k.from))
		e.lit(" -> ")
		e.lit(v.name(k.to))
		e.lit(":")
		for r, n := range k.counts {
			if n > 0 {
				e.lit(" ")
				e.lit(dropReasonNames[r])
				e.lit("=")
				e.num(n)
			}
		}
		e.lit("\n")
	}
	if len(v.queueDrops) > 0 {
		e.lit("tx queue drops:\n")
	}
	for _, id := range v.queueDrops {
		e.lit("  ")
		e.lit(v.names[id])
		e.lit(": ")
		e.num(p.queueDrops[id])
		e.lit("\n")
	}
	return e.flush()
}

// WriteReportJSON renders the same summary as deterministic JSON: taxonomy
// order for the outcomes object, (from, to) name order for links. Each
// actor's name is quoted once per report.
func (p *Provenance) WriteReportJSON(w io.Writer) error {
	v := p.report()
	quoted := quoteNames(v.names)
	e := newEncoder(w)
	name := func(id ActorID) {
		if id == outOfRange {
			e.lit(`"(out of range)"`)
		} else {
			e.raw(quoted.at(int(id)))
		}
	}
	e.lit("{\n  \"frames\": ")
	e.num(int64(p.next))
	e.lit(",\n  \"potential\": ")
	e.num(p.potential)
	e.lit(",\n  \"unresolved\": ")
	e.num(int64(p.unresolved))
	e.lit(",\n  \"outcomes\": {")
	for r := DropReason(0); r < NumDropReasons; r++ {
		if r > 0 {
			e.lit(",")
		}
		e.lit("\n    ")
		e.lit(jsonKeys[r])
		e.num(p.total(r))
	}
	e.lit("\n  },\n  \"links\": [")
	for i, k := range v.links {
		if i > 0 {
			e.lit(",")
		}
		e.lit("\n    {\"from\": ")
		name(k.from)
		e.lit(", \"to\": ")
		name(k.to)
		e.lit(", \"counts\": {")
		first := true
		for r, n := range k.counts {
			if n == 0 {
				continue
			}
			if !first {
				e.lit(", ")
			}
			first = false
			e.lit(jsonKeys[r])
			e.num(n)
		}
		e.lit("}}")
	}
	e.lit("\n  ],\n  \"queue_drops\": [")
	for i, id := range v.queueDrops {
		if i > 0 {
			e.lit(",")
		}
		e.lit("\n    {\"actor\": ")
		name(id)
		e.lit(", \"count\": ")
		e.num(p.queueDrops[id])
		e.lit("}")
	}
	e.lit("\n  ]\n}\n")
	return e.flush()
}
