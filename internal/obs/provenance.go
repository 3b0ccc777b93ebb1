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
// resolved one by one (one bit per ActorID below 64, a sorted list past
// that) is what makes double resolution a detectable bug rather than a
// silently double-counted outcome. Receivers settled in bulk by
// ResolveOutOfRange are only counted. A completed frame's state is
// recycled through next.
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
	// The medium resolves a frame's receivers in attach order, so rx
	// usually sorts last; any other goes in by binary search.
	if n := len(f.more); n == 0 || f.more[n-1] < rx {
		f.more = append(f.more, rx)
		return false
	}
	i, found := slices.BinarySearch(f.more, rx)
	if !found {
		f.more = slices.Insert(f.more, i, rx)
	}
	return found
}

// nameID identifies one distinct actor name: the names table gives each
// name the next id, in the order names first appear. Every actor
// registered under a name counts into that name's report rows.
type nameID int32

// The two row ends that name no actor: a transmitter's one "(out of range)"
// row counts every receiver settled by ResolveOutOfRange, and its queued
// row its TX-side queue drops.
const (
	outOfRange nameID = -1
	queued     nameID = -2
)

// nameTable interns the actor names. It finds them by open addressing
// under their FNV-1a hash; like linkTable, it allocates the same way in
// every run. Its first slots sit inside the table, so a ledger of up to 16
// names allocates no slots.
type nameTable struct {
	names []string // by nameID
	slots []nameID // 1 + a name's id; 0 marks an empty slot
	first [32]nameID
}

// id reports the id of name, adding it on first use.
func (t *nameTable) id(name string) nameID {
	if 2*len(t.names) >= len(t.slots) {
		t.grow()
	}
	mask := uint32(len(t.slots) - 1)
	for i := fnv1a(name) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			t.names = append(t.names, name)
			t.slots[i] = nameID(len(t.names))
			return t.slots[i] - 1
		}
		if t.names[s-1] == name {
			return s - 1
		}
	}
}

// grow doubles the slot array (the 32 inline slots at first) and re-slots
// every name, keeping the load at most one half.
func (t *nameTable) grow() {
	if t.slots == nil {
		t.slots = t.first[:]
		return
	}
	t.slots = make([]nameID, 2*len(t.slots))
	mask := uint32(len(t.slots) - 1)
	for id, name := range t.names {
		i := fnv1a(name) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = nameID(id + 1)
	}
}

// fnv1a is the 32-bit FNV-1a hash of s.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// linkKey names one report row: a transmitter's name, and a receiver's
// name, outOfRange or queued.
type linkKey struct{ from, to nameID }

// hash mixes both ids with a fixed multiplier (Fibonacci hashing).
func (k linkKey) hash() uint32 {
	return uint32((uint64(uint32(k.from))<<32 | uint64(uint32(k.to))) * 0x9e3779b97f4a7c15 >> 32)
}

// linkRow is one report row: a transmitter name, whom it counts (a
// receiver name, the out-of-range receivers or the queue drops) and its
// per-reason counts.
type linkRow struct {
	linkKey
	counts [NumDropReasons]int64
}

// linkTable finds the report rows by open addressing under linkKey.hash.
// It holds one row per pair of names that exchanged frames, plus each
// transmitter name's out-of-range and queued rows, so radios that share a
// name share rows however many there are. A Go map would do the same job, but how often it allocates while growing
// depends on its random per-map seed; this table allocates the same way in
// every run.
type linkTable struct {
	slots []*linkRow // nil marks an empty slot
	n     int
}

// row reports the counts of row k, adding it on first use.
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
	// actors holds each registered actor's name by ActorID.
	actors []nameID
	names  nameTable

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

	potential  int64
	outcomes   [NumDropReasons]int64
	queueDrops int64
	links      linkTable

	rec        *Recorder
	dropTracks []TrackID
}

// NewProvenance returns an empty ledger.
func NewProvenance() *Provenance { return &Provenance{} }

// Actor registers a transceiver under the given diagnostic name and returns
// its id. The medium calls this for every attached transceiver when the
// ledger is wired (and for late attachments). Actors registered under one
// name share their report rows.
func (p *Provenance) Actor(name string) ActorID {
	id := ActorID(len(p.actors))
	p.actors = append(p.actors, p.names.id(name))
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
		p.dropTracks = append(p.dropTracks, r.Track(p.names.names[name]+" drops"))
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
	p.links.row(linkKey{p.nameOf(fs.from), p.nameOf(rx)})[reason]++
	p.settled(frame, fs, 1)
	if p.rec != nil && reason != Delivered && int(rx) < len(p.dropTracks) {
		p.rec.Instant(p.dropTracks[rx], at, dropInstantNames[reason])
	}
}

// ResolveOutOfRange settles, in one call, the receivers that frame reached
// below their own sensitivity floor: radioOff of them were powered off or
// had no receive path, belowSens were listening. They count in the
// transmitter name's one "(out of range)" report row, not per receiver, and
// emit no trace instant. The zero FrameID and an empty call are ignored.
// Settling more receivers than the frame has pending panics, as does
// settling a frame that is unknown or complete.
func (p *Provenance) ResolveOutOfRange(frame FrameID, radioOff, belowSens int) {
	n := radioOff + belowSens
	if frame == 0 || n == 0 {
		return
	}
	fs := p.inflightFrame(frame, -1)
	if radioOff < 0 || belowSens < 0 || n > int(fs.pending) {
		panic(fmt.Sprintf("obs: frame %d has %d receivers pending, settling radio_off=%d below_sensitivity=%d out of range",
			frame, fs.pending, radioOff, belowSens))
	}
	p.outcomes[DropRadioOff] += int64(radioOff)
	p.outcomes[DropBelowSensitivity] += int64(belowSens)
	counts := p.links.row(linkKey{p.nameOf(fs.from), outOfRange})
	counts[DropRadioOff] += int64(radioOff)
	counts[DropBelowSensitivity] += int64(belowSens)
	p.settled(frame, fs, n)
}

// inflightFrame looks up a frame that still has receivers pending, and
// panics naming the resolving receiver (or, for rx < 0, the out-of-range
// ones) if there is none.
func (p *Provenance) inflightFrame(frame FrameID, rx ActorID) *frameState {
	if frame >= p.base && frame-p.base < FrameID(len(p.inflight)) {
		if fs := p.inflight[frame-p.base]; fs != nil {
			return fs
		}
	}
	who := "(out of range)"
	if rx >= 0 {
		who = p.actorName(rx)
	}
	panic(fmt.Sprintf("obs: resolving unknown or completed frame %d at %s", frame, who))
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

// nameOf reports the id of the name an actor's outcomes count under: its
// registered name, or actor#<id> for an id the ledger never registered.
func (p *Provenance) nameOf(id ActorID) nameID {
	if uint(id) < uint(len(p.actors)) {
		return p.actors[id]
	}
	return p.unregistered(id)
}

// unregistered reports the name id of actor#<id>, an id the ledger never
// registered. It is nameOf's slow path, kept out of line so that nameOf
// inlines.
func (p *Provenance) unregistered(id ActorID) nameID {
	return p.names.id(p.actorName(id))
}

// QueueDrop records a frame that died in from's transmit queue without
// reaching the air. It has no FrameID and no per-receiver accounting, so it
// sits outside the conservation sum (DESIGN.md §10).
func (p *Provenance) QueueDrop(from ActorID, at sim.Time) {
	p.queueDrops++
	p.links.row(linkKey{p.nameOf(from), queued})[DropQueueDrop]++
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
func (p *Provenance) QueueDrops() int64 { return p.queueDrops }

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

// actorName reports an actor's registered name, or actor#<id> for an id
// the ledger never registered.
func (p *Provenance) actorName(id ActorID) string {
	if uint(id) < uint(len(p.actors)) {
		return p.names.names[p.actors[id]]
	}
	return "actor#" + strconv.Itoa(int(id))
}

// reportRows are the rows both report formats print, read from the ledger
// once per report.
type reportRows struct {
	// links are the link rows in report order: by (from name, to name), a
	// transmitter's out-of-range row after its link rows.
	links []*linkRow
	// queueDrops are the queue-drop rows, in name order.
	queueDrops []*linkRow
}

// report gathers the rows of a report. Names are compared once, to rank
// them; the rows then sort on the integers (rank(from), rank(to)), with
// the out-of-range and then the queued end after every name, which is the
// order of the names themselves, by counting instead of comparing.
func (p *Provenance) report() reportRows {
	names := p.names.names
	byName := make([]nameID, len(names))
	for id := range byName {
		byName[id] = nameID(id)
	}
	slices.SortFunc(byName, func(a, b nameID) int { return strings.Compare(names[a], names[b]) })
	rank := make([]int, len(names))
	for r, id := range byName {
		rank[id] = r
	}
	end := func(id nameID) int {
		switch id {
		case outOfRange:
			return len(names)
		case queued:
			return len(names) + 1
		}
		return rank[id]
	}

	// Two stable counting passes over the rows' indexes, the receiving end
	// first.
	rows := make([]*linkRow, 0, p.links.n)
	for _, r := range p.links.slots {
		if r != nil {
			rows = append(rows, r)
		}
	}
	order, tmp := make([]int32, len(rows)), make([]int32, len(rows))
	for i := range order {
		order[i] = int32(i)
	}
	count := make([]int, len(names)+2)
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
	pass(func(r *linkRow) int { return end(r.to) })
	pass(func(r *linkRow) int { return rank[r.from] })
	v := reportRows{links: make([]*linkRow, 0, len(rows))}
	for _, i := range order {
		if r := rows[i]; r.to == queued {
			v.queueDrops = append(v.queueDrops, r)
		} else {
			v.links = append(v.links, r)
		}
	}
	return v
}

// name reports a row end's name as the reports print it.
func (p *Provenance) name(id nameID) string {
	if id == outOfRange {
		return "(out of range)"
	}
	return p.names.names[id]
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
// fixed-width table: one link row per (transmitter name, receiver name)
// pair that exchanged frames, one out-of-range row per transmitter name
// and one queue-drop line per name, so actors that share a name share
// their rows. Output is a pure function of the ledger's state:
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
		e.lit(p.name(k.from))
		e.lit(" -> ")
		e.lit(p.name(k.to))
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
	for _, k := range v.queueDrops {
		e.lit("  ")
		e.lit(p.name(k.from))
		e.lit(": ")
		e.num(k.counts[DropQueueDrop])
		e.lit("\n")
	}
	return e.flush()
}

// WriteReportJSON renders the same summary as deterministic JSON: taxonomy
// order for the outcomes object, (from, to) name order for links. Each
// name is quoted once per report.
func (p *Provenance) WriteReportJSON(w io.Writer) error {
	v := p.report()
	quoted := quoteNames(p.names.names)
	e := newEncoder(w)
	name := func(id nameID) {
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
	for i, k := range v.queueDrops {
		if i > 0 {
			e.lit(",")
		}
		e.lit("\n    {\"actor\": ")
		name(k.from)
		e.lit(", \"count\": ")
		e.num(k.counts[DropQueueDrop])
		e.lit("}")
	}
	e.lit("\n  ]\n}\n")
	return e.flush()
}
