package core

import (
	"cmp"
	"slices"
	"time"

	"wile/internal/sim"
)

// ChannelHopper cycles a receiver across channels, the way a phone's scan
// loop does. Each channel is one Scanner on that channel's medium; the
// hopper keeps exactly one radio on at a time and rotates on a fixed dwell.
//
// Dwell choice matters: a Wi-LE device transmits one beacon per period, so
// the hopper catches a device only if it dwells on the right channel when
// the beacon flies. With C channels, the expected capture rate is 1/C —
// the §1 trade the paper gets for free on 2.4 GHz (three-channel scans)
// and pays for in the less crowded 5 GHz band (many channels). The
// HopperStudy ablation quantifies it.
type ChannelHopper struct {
	// Scanners are the per-channel receivers, rotated in order.
	Scanners []*Scanner
	// Dwell is the per-channel listen time.
	Dwell time.Duration
	// Stats accumulates hopper-level counters.
	Stats HopperStats

	sched   *sim.Scheduler
	current int
	running bool
}

// HopperStats counts hops.
type HopperStats struct {
	Hops int
}

// NewChannelHopper builds a hopper over the given per-channel scanners.
func NewChannelHopper(sched *sim.Scheduler, dwell time.Duration, scanners ...*Scanner) *ChannelHopper {
	if len(scanners) == 0 {
		panic("core: hopper needs at least one scanner")
	}
	if dwell <= 0 {
		dwell = 250 * time.Millisecond
	}
	return &ChannelHopper{Scanners: scanners, Dwell: dwell, sched: sched}
}

// Start begins hopping from the first channel.
func (h *ChannelHopper) Start() {
	if h.running {
		return
	}
	h.running = true
	for _, sc := range h.Scanners {
		sc.Stop()
	}
	h.current = 0
	h.Scanners[0].Start()
	h.scheduleHop()
}

// Stop halts hopping and powers the active receiver down.
func (h *ChannelHopper) Stop() {
	h.running = false
	h.Scanners[h.current].Stop()
}

func (h *ChannelHopper) scheduleHop() {
	h.sched.DoAfter(h.Dwell, func() {
		if !h.running {
			return
		}
		h.Scanners[h.current].Stop()
		h.current = (h.current + 1) % len(h.Scanners)
		h.Scanners[h.current].Start()
		h.Stats.Hops++
		h.scheduleHop()
	})
}

// Devices merges every channel's registry (device IDs are globally unique,
// but a device near a channel boundary may appear on several channels; the
// freshest record wins).
func (h *ChannelHopper) Devices() []DeviceRecord {
	merged := map[uint32]DeviceRecord{}
	for _, sc := range h.Scanners {
		for _, rec := range sc.Devices() {
			if prev, ok := merged[rec.DeviceID]; !ok || rec.LastSeen > prev.LastSeen {
				merged[rec.DeviceID] = rec
			}
		}
	}
	out := make([]DeviceRecord, 0, len(merged))
	for _, rec := range merged {
		out = append(out, rec)
	}
	slices.SortFunc(out, func(a, b DeviceRecord) int { return cmp.Compare(a.DeviceID, b.DeviceID) })
	return out
}

// Messages sums the distinct messages across channels.
func (h *ChannelHopper) Messages() int {
	n := 0
	for _, sc := range h.Scanners {
		n += sc.Stats.Messages
	}
	return n
}
