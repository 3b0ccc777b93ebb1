package sta

import (
	"fmt"
	"time"

	"wile/internal/dot11"
	"wile/internal/esp32"
	"wile/internal/medium"
	"wile/internal/netstack"
)

// Station-side power-save downlink: the §3.2 mechanism. "A client turns
// off its radio when it has no packets to transmit and only wakes up
// periodically to receive the beacon frames transmitted by the AP... The
// access point indicates in the beacon if it has any packet for each
// connected client. If a client finds out that there are packets queued
// for it at the AP, it then asks the AP to transmit the packets, otherwise
// it goes back to sleep."
//
// The wake cadence is the listen interval (every 3rd beacon for the
// paper's WiFi-PS scenario); the "ask" is a PS-Poll control frame per
// buffered MSDU, repeated while the AP signals MoreData.

// DownlinkPayload is one MSDU retrieved from the AP's power-save buffer.
type DownlinkPayload struct {
	EtherType netstack.EtherType
	Payload   []byte
}

// psState tracks the power-save beacon listener.
type psState struct {
	active bool
	// OnDownlink receives retrieved buffered MSDUs.
	onDownlink func(DownlinkPayload)
	// beaconsSeen counts beacons since the last listen, implementing the
	// listen-interval skip.
	beaconsSeen uint16
	// polling marks an in-flight PS-Poll retrieval burst.
	polling bool
}

// StartPowerSaveListener begins processing AP beacons according to the
// listen interval: every listenInterval-th beacon the station checks the
// TIM for its AID and retrieves buffered frames with PS-Polls. onDownlink
// receives each retrieved MSDU. Requires a completed Join and an
// EnterPowerSave announcement.
//
// Power accounting: the WiFi-PS idle state's 4.5 mA already embodies the
// beacon-wake duty cycle (see experiment.WiFiPSIdleModel); retrieval
// bursts add explicit radio-on episodes.
func (s *Station) StartPowerSaveListener(onDownlink func(DownlinkPayload)) error {
	if !s.joined {
		return ErrNotJoined
	}
	s.ps.active = true
	s.ps.onDownlink = onDownlink
	s.ps.beaconsSeen = 0
	return nil
}

// StopPowerSaveListener halts beacon processing.
func (s *Station) StopPowerSaveListener() {
	s.ps.active = false
	s.ps.onDownlink = nil
}

// handleBeacon implements the listen-interval TIM check.
func (s *Station) handleBeacon(b *dot11.Beacon, rx medium.Reception) {
	if !s.ps.active || b.Header.Addr3 != s.bssid {
		return
	}
	s.ps.beaconsSeen++
	if s.ps.beaconsSeen < listenInterval {
		return // dozing through this beacon
	}
	s.ps.beaconsSeen = 0
	info, ok := b.Elements.Find(dot11.ElementTIM)
	if !ok {
		return
	}
	tim, err := dot11.ParseTIM(info)
	if err != nil || !tim.BufferedFor(s.AID) {
		return
	}
	if s.ps.polling {
		return // retrieval already in progress
	}
	s.startPollBurst()
}

// startPollBurst wakes the radio path and drains the AP buffer with
// PS-Polls until MoreData clears.
func (s *Station) startPollBurst() {
	s.ps.polling = true
	s.Dev.SetState(esp32.StateRadioListen)
	s.sendPSPoll()
	// Safety: end the burst if the AP stops answering.
	s.sched.DoAfter(100*time.Millisecond, func() {
		if s.ps.polling {
			s.endPollBurst()
		}
	})
}

func (s *Station) sendPSPoll() {
	poll := &dot11.PSPoll{AID: s.AID, BSSID: s.bssid, Transmitter: s.Cfg.Addr}
	if err := s.Port.Send(poll, nil); err != nil {
		panic(fmt.Sprintf("sta: %v", err)) // PS-Poll construction is under our control
	}
}

func (s *Station) endPollBurst() {
	s.ps.polling = false
	if s.Dev.GetState() == esp32.StateRadioListen {
		s.Dev.SetState(esp32.StateWiFiPSIdle)
	}
}

// handlePSDownlink consumes a retrieved buffered MSDU during a poll
// burst (already decrypted by the caller); returns true when the frame
// belonged to the burst.
func (s *Station) handlePSDownlink(et netstack.EtherType, payload []byte, moreData bool) bool {
	if !s.ps.polling {
		return false
	}
	if s.ps.onDownlink != nil {
		s.ps.onDownlink(DownlinkPayload{EtherType: et, Payload: append([]byte(nil), payload...)})
	}
	if moreData {
		s.sendPSPoll()
	} else {
		s.endPollBurst()
	}
	return true
}
