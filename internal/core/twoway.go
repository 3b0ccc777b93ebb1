package core

import (
	"fmt"

	"wile/internal/dot11"
	"wile/internal/mac"
	"wile/internal/medium"
	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
)

// Two-way extension (§6): "an IoT device that utilizes Wi-LE can indicate
// in some beacon frames that it will be ready to receive packets for a
// short time slot after the current beacon. This way the waiting period
// will be limited to the time slots specified by the IoT device and
// therefore the power consumption is reduced significantly."
//
// Responder is the base-station half: it watches for uplink messages whose
// RxWindow flag is set, and when it holds queued data for that device it
// immediately injects a downlink beacon into the announced window. The
// downlink message reuses the uplink's sequence number so the device can
// pair response to request.

// Responder answers Wi-LE devices inside their announced receive windows.
type Responder struct {
	Port *mac.Port
	// Keys supplies per-device keys for sealed downlinks (nil entries and
	// a nil map mean plaintext).
	Keys map[uint32]*Key
	// AutoAck answers every announced window with an acknowledgment
	// echoing the uplink's sequence number even when nothing is queued —
	// the base-station half of the ReliableSensor protocol.
	AutoAck bool
	// Stats accumulates counters.
	Stats ResponderStats

	sched   *sim.Scheduler
	channel int
	pending map[uint32][]Reading
}

// ResponderStats counts responder events.
type ResponderStats struct {
	WindowsSeen int
	Responses   int
}

// NewResponder attaches a base-station responder to the medium.
func NewResponder(sched *sim.Scheduler, med *medium.Medium, name string, pos medium.Position, channel int) *Responder {
	r := &Responder{
		sched:   sched,
		channel: channel,
		pending: make(map[uint32][]Reading),
	}
	r.Port = mac.New(sched, med, name, pos,
		dot11.MustParseMAC("02:0b:0a:0e:0d:0c"), phy.RateHTMCS7SGI, 0,
		phy.SensitivityWiFiMCS7, sim.NewRand(0xd0))
	r.Port.AutoACK = false
	r.Port.Monitor = r.handleFrame
	r.Port.SetRadioOn(true)
	return r
}

// Queue stores readings to deliver to the device at its next window.
func (r *Responder) Queue(deviceID uint32, readings []Reading) {
	r.pending[deviceID] = readings
}

// PendingFor reports whether data is queued for a device.
func (r *Responder) PendingFor(deviceID uint32) bool {
	_, ok := r.pending[deviceID]
	return ok
}

// handleFrame answers announced receive windows. The responder filters
// nothing, so every frame its radio decodes counts as delivered.
func (r *Responder) handleFrame(f dot11.Frame, rx medium.Reception) obs.DropReason {
	beacon, ok := f.(*dot11.Beacon)
	if !ok {
		return obs.Delivered
	}
	keyFor := func(id uint32) *Key { return r.Keys[id] }
	msg, err := DecodeBeacon(beacon, keyFor)
	if err != nil || msg.Downlink || msg.RxWindow == 0 {
		return obs.Delivered
	}
	r.Stats.WindowsSeen++
	readings, queued := r.pending[msg.DeviceID]
	if !queued {
		if !r.AutoAck {
			return obs.Delivered
		}
		readings = []Reading{Counter(uint32(msg.Seq))} // bare receipt
	}
	delete(r.pending, msg.DeviceID)
	resp := &Message{
		DeviceID: msg.DeviceID,
		Seq:      msg.Seq,
		Readings: readings,
		Downlink: true,
	}
	down, err := BuildBeacon(r.Port.Addr, r.channel, resp, r.Keys[msg.DeviceID])
	if err != nil {
		return obs.Delivered
	}
	r.Stats.Responses++
	// Inject immediately: the device's window is only tens of ms wide.
	if err := r.Port.Send(down, nil); err != nil {
		panic(fmt.Sprintf("core: sending downlink: %v", err))
	}
	return obs.Delivered
}
