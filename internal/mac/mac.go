// Package mac implements the 802.11 distributed coordination function: a
// per-device Port that carrier-senses, backs off, transmits, auto-ACKs and
// retransmits. Every frame in the Figure 3a join — and every beacon Wi-LE
// injects — goes through a Port, so inter-frame timing in the simulation
// follows the DCF rules rather than hand-placed delays.
package mac

import (
	"errors"
	"fmt"
	"time"

	"wile/internal/dot11"
	"wile/internal/medium"
	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
)

// RetryLimit is the dot11ShortRetryLimit default.
const RetryLimit = 7

// RadioListener receives notifications when the port's radio amplifier
// turns on. Device power models implement it to place TX current spikes at
// the exact instants frames fly.
type RadioListener interface {
	// RadioTx reports the start of a transmission lasting airtime.
	RadioTx(airtime time.Duration)
}

// ControlRate reports the rate used for ACK/CTS responses to frames
// received at r: the highest basic rate of the same family at or below r.
func ControlRate(r phy.Rate) phy.Rate {
	switch r.Mod {
	case phy.ModDSSS:
		return phy.RateDSSS1
	default:
		return phy.RateOFDM6
	}
}

// outgoing is one queued MPDU.
type outgoing struct {
	frame   dot11.Frame
	raw     []byte
	rate    phy.Rate
	wantACK bool
	retries int
	done    func(ok bool)
}

// Stats counts per-port MAC events.
type Stats struct {
	TxFrames     int // MPDUs put on the air, including retries and ACKs
	TxACKs       int
	RxFrames     int // decodable frames addressed to (or observed by) us
	RxFCSErrors  int
	RxDuplicates int // retransmissions filtered by duplicate detection
	Retries      int
	Drops        int // frames dropped after RetryLimit
}

// Counters emits the Stats as mac.* counters (obs.Source), one name per
// field. Every port wired to a registry adds into the same names, so the
// registry carries the fleet aggregate (the view a production MAC exports)
// while per-port Stats keeps the local breakdown.
func (s *Stats) Counters(emit func(name string, v int64)) {
	emit("mac.tx_frames", int64(s.TxFrames))
	emit("mac.tx_acks", int64(s.TxACKs))
	emit("mac.rx_frames", int64(s.RxFrames))
	emit("mac.rx_fcs_errors", int64(s.RxFCSErrors))
	emit("mac.rx_duplicates", int64(s.RxDuplicates))
	emit("mac.retries", int64(s.Retries))
	emit("mac.drops", int64(s.Drops))
}

// Port is one station's MAC entity.
type Port struct {
	// Addr is the port's MAC address.
	Addr dot11.MAC
	// Rate is the PHY rate for transmitted frames.
	Rate phy.Rate
	// Handler receives frames addressed to this port (unicast match or
	// group address) after FCS check and auto-ACK. The frame goes back to
	// the decode pool when the Handler returns, so a Handler copies what it
	// keeps: a field it reads later, not the frame (see dot11.Release).
	Handler func(f dot11.Frame, rx medium.Reception)
	// Monitor, when set, receives every decodable frame regardless of
	// addressing — monitor mode, which is how the Wi-LE evaluation's
	// receiver verifies injected beacons. It returns the frame's
	// provenance outcome at this radio, which the port records in place of
	// its own (the Wi-LE scanner's pipeline, not the 802.11 duplicate
	// cache, decides what it filtered). Like a Handler, a Monitor copies
	// what it keeps.
	Monitor func(f dot11.Frame, rx medium.Reception) obs.DropReason
	// Radio, when set, is notified of transmit bursts for power modeling.
	Radio RadioListener
	// AutoACK controls whether unicast receptions are acknowledged.
	AutoACK bool
	// Stats accumulates counters.
	Stats Stats

	sched *sim.Scheduler
	med   *medium.Medium
	trx   *medium.Transceiver
	rng   *sim.Rand

	seq     uint16
	queue   []*outgoing
	current *outgoing
	// rxCache holds the last accepted (sequence, fragment) per
	// transmitter for the standard's duplicate detection: a retransmitted
	// frame whose ACK was lost must be ACKed again but not re-delivered.
	rxCache map[dot11.MAC]uint16
	// inAccess marks that a channel-access procedure is scheduled.
	inAccess bool
	// backoffRemaining preserves a frozen backoff counter across busy
	// periods, as the DCF requires.
	backoffRemaining int
	ackTimer         *sim.Event
	// accessFn, postDIFSFn and countdownFn are access, postDIFS and
	// countdown, bound once so that scheduling a backoff step allocates
	// nothing.
	accessFn, postDIFSFn, countdownFn func()

	// rec/track carry the optional trace recorder (TraceTo). accessStart
	// and awaitStart remember span openings so the closing site can emit
	// the complete slice.
	rec         *obs.Recorder
	track       obs.TrackID
	accessStart sim.Time
	awaitStart  sim.Time
}

// New attaches a port to the medium at pos.
func New(sched *sim.Scheduler, med *medium.Medium, name string, pos medium.Position,
	addr dot11.MAC, rate phy.Rate, txPower, sensitivity phy.DBm, rng *sim.Rand) *Port {
	p := &Port{
		Addr:    addr,
		Rate:    rate,
		AutoACK: true,
		sched:   sched,
		med:     med,
		rng:     rng,
	}
	p.trx = med.Attach(name, pos, txPower, sensitivity)
	p.trx.Handler = p.receive
	p.accessFn, p.postDIFSFn, p.countdownFn = p.access, p.postDIFS, p.countdown
	return p
}

// Transceiver exposes the underlying radio (for power control and tests).
func (p *Port) Transceiver() *medium.Transceiver { return p.trx }

// Observe collects the port's Stats into the registry, which reads them as
// mac.* counters.
func (p *Port) Observe(reg *obs.Registry) { reg.Collect(&p.Stats) }

// TraceTo attaches the port to a trace recorder: channel-access and TX
// spans, ACK waits and receptions land on the given track. Passing a nil
// recorder detaches.
func (p *Port) TraceTo(r *obs.Recorder, track obs.TrackID) {
	p.rec = r
	p.track = track
}

// txName/rxName map a frame kind to a static span name, so the enabled
// trace path allocates nothing per event beyond the recorder's log.
func txName(f dot11.Frame) string {
	switch f.(type) {
	case *dot11.Beacon:
		return "tx beacon"
	case *dot11.ProbeReq:
		return "tx probe-req"
	case *dot11.ProbeResp:
		return "tx probe-resp"
	case *dot11.Auth:
		return "tx auth"
	case *dot11.AssocReq:
		return "tx assoc-req"
	case *dot11.AssocResp:
		return "tx assoc-resp"
	case *dot11.Data:
		return "tx data"
	case *dot11.ACK:
		return "tx ack"
	}
	return "tx frame"
}

func rxName(f dot11.Frame) string {
	switch f.(type) {
	case *dot11.Beacon:
		return "rx beacon"
	case *dot11.ProbeReq:
		return "rx probe-req"
	case *dot11.ProbeResp:
		return "rx probe-resp"
	case *dot11.Auth:
		return "rx auth"
	case *dot11.AssocReq:
		return "rx assoc-req"
	case *dot11.AssocResp:
		return "rx assoc-resp"
	case *dot11.Data:
		return "rx data"
	case *dot11.ACK:
		return "rx ack"
	}
	return "rx frame"
}

// SetRadioOn powers the radio. Powering off cancels nothing in the TX
// queue, but nothing will transmit or be received until power returns.
func (p *Port) SetRadioOn(on bool) { p.trx.SetOn(on) }

// resolve records rx's terminal provenance outcome at this port's radio.
// Collided receptions were already resolved by the medium, and a nil
// ledger means provenance is off; both make this a no-op.
func (p *Port) resolve(rx medium.Reception, reason obs.DropReason) {
	if rx.Collided {
		return
	}
	if pr := p.med.Prov; pr != nil {
		pr.Resolve(rx.Frame, p.trx.ProvID(), rx.End, reason)
	}
}

// queueDrop records a TX-side drop (frame never reached the air).
func (p *Port) queueDrop() {
	if pr := p.med.Prov; pr != nil {
		pr.QueueDrop(p.trx.ProvID(), p.sched.Now())
	}
}

// timing reports the DCF parameters for the port's current rate.
func (p *Port) timing() phy.MACTiming { return phy.Timing(p.Rate) }

// nextSeq allocates the next sequence number.
func (p *Port) nextSeq() uint16 {
	s := p.seq
	p.seq = (p.seq + 1) & 0xfff
	return s
}

// Send queues f for transmission under the DCF. done, if non-nil, is
// called with the delivery outcome: true when the frame needed no ACK
// (group-addressed) and was transmitted, or when the ACK arrived; false
// after RetryLimit unacknowledged attempts. Every Send consumes a
// sequence number, even for a control frame that has nowhere to carry it.
func (p *Port) Send(f dot11.Frame, done func(ok bool)) error {
	seq := p.nextSeq()
	if h := dot11.HeaderOf(f); h != nil {
		h.Sequence = seq
	}
	raw, err := dot11.Marshal(f)
	if err != nil {
		return fmt.Errorf("mac: marshal %v: %w", f.Kind(), err)
	}
	_, isCtl := f.(*dot11.ACK)
	wantACK := !f.RA().IsGroup() && !isCtl
	p.queue = append(p.queue, &outgoing{frame: f, raw: raw, rate: p.Rate, wantACK: wantACK, done: done})
	p.kick()
	return nil
}

// kick starts a channel-access procedure if one is not already running.
func (p *Port) kick() {
	if p.inAccess || p.current != nil || len(p.queue) == 0 {
		return
	}
	p.inAccess = true
	p.backoffRemaining = -1 // draw fresh backoff for the new frame
	if p.rec != nil {
		p.accessStart = p.sched.Now()
	}
	p.access()
}

// access implements DIFS + backoff. The medium must be idle for a full
// DIFS before the backoff counter runs; the counter freezes while the
// medium is busy and resumes after the next idle DIFS.
func (p *Port) access() {
	if until := p.med.BusyUntil(p.trx); until > p.sched.Now() {
		// Busy: try again when the medium frees (postDIFS re-verifies).
		p.sched.DoAt(until, p.accessFn)
		return
	}
	p.sched.DoAfter(p.timing().DIFS(), p.postDIFSFn)
}

// postDIFS runs after a DIFS of intended idle time; if the medium got busy
// meanwhile the access procedure restarts.
func (p *Port) postDIFS() {
	if p.med.Busy(p.trx) {
		p.access()
		return
	}
	if p.backoffRemaining < 0 {
		cw := p.contentionWindow()
		p.backoffRemaining = p.rng.Intn(cw + 1)
	}
	p.countdown()
}

// contentionWindow reports the current CW given the retry count.
func (p *Port) contentionWindow() int {
	t := p.timing()
	cw := t.CWMin
	retries := 0
	if len(p.queue) > 0 {
		retries = p.queue[0].retries
	}
	for i := 0; i < retries; i++ {
		cw = cw*2 + 1
		if cw > t.CWMax {
			cw = t.CWMax
			break
		}
	}
	return cw
}

// countdown burns backoff slots while the medium stays idle.
func (p *Port) countdown() {
	if p.med.Busy(p.trx) {
		p.access() // freeze; access reschedules after busy+DIFS
		return
	}
	if p.backoffRemaining == 0 {
		p.transmitHead()
		return
	}
	p.backoffRemaining--
	p.sched.DoAfter(p.timing().Slot, p.countdownFn)
}

// transmitHead puts the head-of-queue frame on the air.
func (p *Port) transmitHead() {
	p.inAccess = false
	if p.rec != nil {
		// DIFS + backoff (+ any busy deferrals) ends here.
		p.rec.Span(p.track, p.accessStart, p.sched.Now(), "access")
	}
	if len(p.queue) == 0 {
		return
	}
	out := p.queue[0]
	p.queue = p.queue[1:]
	p.current = out
	p.transmit(out)
}

// transmit sends out and arms the ACK timer if needed.
func (p *Port) transmit(out *outgoing) {
	if !p.trx.On() {
		// Radio was powered down with traffic queued: fail the frame
		// rather than transmitting from a dead radio.
		p.queueDrop()
		p.finish(out, false)
		return
	}
	airtime := p.med.Transmit(p.trx, out.raw, out.rate)
	p.Stats.TxFrames++
	if p.rec != nil {
		now := p.sched.Now()
		p.rec.Span(p.track, now, now.Add(airtime), txName(out.frame))
	}
	if p.Radio != nil {
		p.Radio.RadioTx(airtime)
	}
	if !out.wantACK {
		p.sched.DoAfter(airtime, func() { p.finish(out, true) })
		return
	}
	if p.rec != nil {
		p.awaitStart = p.sched.Now().Add(airtime)
	}
	t := p.timing()
	ackAirtime := phy.FrameAirtime(ControlRate(out.rate), 14)
	timeout := airtime + t.SIFS + ackAirtime + 2*t.Slot
	p.ackTimer = p.sched.After(timeout, func() { p.ackTimeout(out) })
}

// ackTimeout retries or drops the unacknowledged frame.
func (p *Port) ackTimeout(out *outgoing) {
	p.ackTimer = nil
	out.retries++
	p.Stats.Retries++
	if p.rec != nil {
		p.rec.Span(p.track, p.awaitStart, p.sched.Now(), "ack-wait")
		p.rec.Instant(p.track, p.sched.Now(), "ack-timeout")
	}
	if out.retries > RetryLimit {
		p.Stats.Drops++
		p.finish(out, false)
		return
	}
	// Mark the retry bit like real hardware does and re-contend.
	markRetry(out)
	p.current = nil
	p.queue = append([]*outgoing{out}, p.queue...)
	p.kick()
}

// markRetry sets the retry bit in the serialized frame and fixes the FCS.
// Control frames carry no retry bit and go out again unchanged.
func markRetry(out *outgoing) {
	h := dot11.HeaderOf(out.frame)
	if h == nil {
		return
	}
	h.FC.Retry = true
	if raw, err := dot11.Marshal(out.frame); err == nil {
		out.raw = raw
	}
}

// finish completes the current frame and moves on.
func (p *Port) finish(out *outgoing, ok bool) {
	if p.current == out {
		p.current = nil
	}
	if out.done != nil {
		out.done(ok)
	}
	p.kick()
}

// receive handles every delivery from the medium. The port owns each
// frame it decodes from start to finish: it settles the frame's
// provenance outcome once, with the Monitor's verdict when there is a
// Monitor and its own otherwise, and hands the frame back to the decode
// pool once every hook has returned.
func (p *Port) receive(rx medium.Reception) {
	f, err := dot11.Decode(rx.Data)
	if err != nil {
		p.Stats.RxFCSErrors++
		// A dot11.ErrFCS is the corruption taxonomy bucket; anything else
		// (truncated, unsupported) is a decode error.
		var fcs *dot11.ErrFCS
		if errors.As(err, &fcs) {
			p.resolve(rx, obs.DropFCSError)
		} else {
			p.resolve(rx, obs.DropDecodeError)
		}
		return
	}
	var verdict obs.DropReason
	if p.Monitor != nil {
		verdict = p.Monitor(f, rx)
	}
	reason := p.accept(f, rx)
	if p.Monitor != nil {
		reason = verdict
	}
	p.resolve(rx, reason)
	dot11.Release(f)
}

// accept runs the port's own receive path on a decoded frame (ACK
// completion, address filtering, auto-ACK, duplicate detection and the
// Handler) and reports the frame's outcome: dedup_filtered for a
// retransmission, delivered for everything else the radio decoded.
func (p *Port) accept(f dot11.Frame, rx medium.Reception) obs.DropReason {
	// ACK completion for our pending frame.
	if ack, isACK := f.(*dot11.ACK); isACK {
		if p.current != nil && p.current.wantACK && ack.Receiver == p.Addr {
			if p.ackTimer != nil {
				p.sched.Cancel(p.ackTimer)
				p.ackTimer = nil
			}
			if p.rec != nil {
				p.rec.Span(p.track, p.awaitStart, p.sched.Now(), "ack-wait")
				p.rec.Instant(p.track, p.sched.Now(), "rx ack")
			}
			p.finish(p.current, true)
		}
		return obs.Delivered
	}
	ra := f.RA()
	if ra != p.Addr && !ra.IsGroup() {
		// Overheard traffic for someone else: decoded only to be
		// discarded, the dominant receive path on a shared channel. The
		// radio still decoded it, so provenance calls it delivered.
		return obs.Delivered
	}
	p.Stats.RxFrames++
	if p.rec != nil {
		p.rec.Instant(p.track, p.sched.Now(), rxName(f))
	}
	// Unicast frames are ACKed, duplicates included: a retransmission
	// means our last ACK was lost.
	if ra == p.Addr {
		if p.AutoACK {
			p.sendACK(f.TA(), rx.Rate)
		}
		if p.isDuplicate(f) {
			p.Stats.RxDuplicates++
			return obs.DropDedupFiltered
		}
	}
	if p.Handler != nil {
		p.Handler(f, rx)
	}
	return obs.Delivered
}

// isDuplicate implements the receiver duplicate-detection cache
// (IEEE 802.11-2016 §10.3.2.11): the last sequence-control value accepted
// from each transmitter; a match means a retransmission whose original
// already reached us. Control frames carry no sequence control and are
// never duplicates.
func (p *Port) isDuplicate(f dot11.Frame) bool {
	h := dot11.HeaderOf(f)
	if h == nil {
		return false
	}
	seqCtl := h.Sequence<<4 | uint16(h.Fragment)
	if p.rxCache == nil {
		p.rxCache = make(map[dot11.MAC]uint16)
	}
	ta := h.TA()
	last, seen := p.rxCache[ta]
	p.rxCache[ta] = seqCtl
	return seen && last == seqCtl
}

// sendACK transmits an ACK SIFS after the frame that elicited it,
// bypassing the DCF (SIFS has priority over DIFS+backoff).
func (p *Port) sendACK(to dot11.MAC, atRate phy.Rate) {
	raw, err := dot11.Marshal(dot11.NewACK(to))
	if err != nil {
		return
	}
	t := p.timing()
	p.sched.DoAfter(t.SIFS, func() {
		if !p.trx.On() {
			p.queueDrop()
			return
		}
		airtime := p.med.Transmit(p.trx, raw, ControlRate(atRate))
		p.Stats.TxFrames++
		p.Stats.TxACKs++
		if p.rec != nil {
			now := p.sched.Now()
			p.rec.Span(p.track, now, now.Add(airtime), "tx ack")
		}
		if p.Radio != nil {
			p.Radio.RadioTx(airtime)
		}
	})
}

// QueueLen reports frames waiting for channel access (excluding the one in
// flight).
func (p *Port) QueueLen() int { return len(p.queue) }
