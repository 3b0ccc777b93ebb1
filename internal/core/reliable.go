package core

import (
	"time"

	"wile/internal/obs"
)

// Reliability layer on the §6 two-way extension.
//
// Plain Wi-LE is fire-and-forget: a beacon is transmitted once and never
// acknowledged (broadcast frames draw no MAC ACK). For readings that must
// not be lost — billing meters, alarms — the announced receive window turns
// into an acknowledgment channel: the device requests an ack with each
// uplink, and retransmits un-acked batches on subsequent wakes. Readings
// stay queued across cycles, so delivery is at-least-once while the device
// still sleeps at 2.5 µA between attempts.

// ReliableSensor wraps a Sensor with at-least-once batch delivery.
type ReliableSensor struct {
	// S is the underlying transmitter; configure RxWindow > 0 on it.
	S *Sensor
	// MaxAttempts bounds retransmissions per batch before OnGiveUp.
	MaxAttempts int
	// OnDelivered fires when a batch is acknowledged.
	OnDelivered func(batch []Reading, attempts int)
	// OnGiveUp fires when a batch exhausts MaxAttempts.
	OnGiveUp func(batch []Reading)
	// Stats accumulates counters.
	Stats ReliableStats

	queue []*pendingBatch
}

// ReliableStats counts reliability events.
type ReliableStats struct {
	Queued        int
	Delivered     int
	Retransmitted int
	GivenUp       int
}

// Counters emits the Stats as wile.reliable_* counters (obs.Source).
func (s *ReliableStats) Counters(emit func(name string, v int64)) {
	emit("wile.reliable_queued", int64(s.Queued))
	emit("wile.reliable_delivered", int64(s.Delivered))
	emit("wile.reliable_retransmitted", int64(s.Retransmitted))
	emit("wile.reliable_given_up", int64(s.GivenUp))
}

type pendingBatch struct {
	readings []Reading
	attempts int
	// seq is the sequence number of the last transmission attempt, used
	// to pair the ack.
	seq uint16
}

// NewReliableSensor wraps s. The sensor's RxWindow must be nonzero so the
// base station has a slot to answer in.
func NewReliableSensor(s *Sensor, maxAttempts int) *ReliableSensor {
	if s.Cfg.RxWindow == 0 {
		s.Cfg.RxWindow = 20 * time.Millisecond
	}
	if maxAttempts <= 0 {
		maxAttempts = 5
	}
	r := &ReliableSensor{S: s, MaxAttempts: maxAttempts}
	s.OnDownlink = r.handleDownlink
	s.Sample = r.nextBatch
	return r
}

// Observe collects the reliability Stats — and the underlying sensor's —
// into the registry.
func (r *ReliableSensor) Observe(reg *obs.Registry) {
	r.S.Observe(reg)
	reg.Collect(&r.Stats)
}

// Queue adds a batch of readings for at-least-once delivery.
func (r *ReliableSensor) Queue(readings []Reading) {
	r.Stats.Queued++
	r.queue = append(r.queue, &pendingBatch{readings: readings})
}

// Pending reports the number of undelivered batches.
func (r *ReliableSensor) Pending() int { return len(r.queue) }

// Run starts the underlying sensor's periodic loop; each wake transmits
// the oldest pending batch (or a heartbeat when the queue is empty).
func (r *ReliableSensor) Run() { r.S.Run() }

// Stop halts the loop.
func (r *ReliableSensor) Stop() { r.S.Stop() }

// nextBatch picks what the next wake transmits, first dropping batches
// that exhausted their attempt budget (the device was asleep when the
// budget ran out, so the reap happens at wake time).
func (r *ReliableSensor) nextBatch() []Reading {
	r.reapExpired()
	if len(r.queue) == 0 {
		// Heartbeat: keeps the cadence observable and gives the base
		// station a window anyway.
		return []Reading{Counter(uint32(r.Stats.Delivered))}
	}
	batch := r.queue[0]
	if batch.attempts > 0 {
		r.Stats.Retransmitted++
	}
	batch.attempts++
	batch.seq = r.S.Seq() // the sequence number this transmission will use
	return batch.readings
}

// handleDownlink consumes ack responses arriving in the window.
func (r *ReliableSensor) handleDownlink(m *Message) {
	if len(r.queue) == 0 {
		return
	}
	batch := r.queue[0]
	if m.Seq != batch.seq {
		return // ack for something else (stale window)
	}
	r.queue = r.queue[1:]
	r.Stats.Delivered++
	if r.OnDelivered != nil {
		r.OnDelivered(batch.readings, batch.attempts)
	}
}

// reapExpired drops batches past their attempt budget.
func (r *ReliableSensor) reapExpired() {
	kept := r.queue[:0]
	for _, b := range r.queue {
		if b.attempts >= r.MaxAttempts {
			r.Stats.GivenUp++
			if r.OnGiveUp != nil {
				r.OnGiveUp(b.readings)
			}
			continue
		}
		kept = append(kept, b)
	}
	r.queue = kept
}

// The sensor's Sample hook fires before each transmission, so expired
// batches are also reaped there via nextBatch's caller. Users of
// ReliableSensor must not replace S.Sample or S.OnDownlink.
