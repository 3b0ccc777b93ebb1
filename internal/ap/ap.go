// Package ap models the paper's Google WiFi access point: an
// infrastructure AP with periodic beaconing, open-system authentication,
// association, a WPA2-PSK authenticator, a DHCP server, an ARP responder,
// and the group-key relay of broadcast uplink. Its beacons carry a TIM
// with an empty bitmap: no run holds downlink for a dozing station, so
// the AP buffers nothing and answers no PS-Poll.
//
// The AP is mains-powered in the paper's testbed, so it carries no power
// model — its only job is to make the client pay the true protocol cost of
// §3.1: every frame a reconnecting station must exchange is generated or
// consumed here, byte-for-byte.
package ap

import (
	"fmt"
	"time"

	"wile/internal/crypto80211"
	"wile/internal/dot11"
	"wile/internal/mac"
	"wile/internal/medium"
	"wile/internal/netstack"
	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
)

// Config parameterizes an AP.
type Config struct {
	// SSID is the advertised network name.
	SSID string
	// Passphrase is the WPA2-PSK passphrase.
	Passphrase string
	// BSSID is the AP's MAC address.
	BSSID dot11.MAC
	// Channel is the 2.4 GHz channel number.
	Channel int
	// IP is the AP/router/DHCP-server address.
	IP netstack.IP
	// Position places the AP on the medium.
	Position medium.Position
	// Seed seeds the AP's nonce/backoff randomness.
	Seed uint64
}

// TU is one 802.11 time unit.
const TU = 1024 * time.Microsecond

const (
	// beaconIntervalTU is the beacon interval in time units: 100 TU =
	// 102.4 ms, the near-universal default.
	beaconIntervalTU = 100
	// dtimPeriod is the DTIM period carried in the TIM.
	dtimPeriod = 3
	// dhcpDelay models the AP's host-side DHCP service latency per
	// message. The paper observes "fairly long wait times for network
	// layer messages such as DHCP" (§5.2); 180 ms per reply reproduces
	// the Figure 3a phase length.
	dhcpDelay = 180 * time.Millisecond
	// arpDelay models ARP reply latency.
	arpDelay = 20 * time.Millisecond
)

// stationState tracks one known client.
type stationState struct {
	aid           uint16
	authed        bool
	associated    bool
	secured       bool
	authenticator *crypto80211.Authenticator
	// ccmp protects data exchange once the handshake installs the
	// pairwise key.
	ccmp *crypto80211.CCMPSession
}

// Stats counts AP-side protocol events.
type Stats struct {
	BeaconsSent    int
	ProbeResponses int
	AuthAccepted   int
	AssocAccepted  int
	HandshakesDone int
	DHCPReplies    int
	ARPReplies     int
	UplinkFrames   int
	// CCMPDrops counts data frames discarded for failing decryption,
	// replay, or the protection requirement.
	CCMPDrops int
	// GroupRelays counts broadcast uplink MSDUs re-broadcast under the GTK.
	GroupRelays int
}

// AP is the access point.
type AP struct {
	Cfg  Config
	Port *mac.Port
	// DHCP is the embedded address server.
	DHCP *netstack.DHCPServer
	// OnUplink, when set, observes every decrypted/delivered uplink MSDU
	// payload (post-SNAP ethertype + payload).
	OnUplink func(from dot11.MAC, et netstack.EtherType, payload []byte)
	// Stats accumulates counters.
	Stats Stats

	sched    *sim.Scheduler
	pmk      []byte
	gtk      [crypto80211.GTKLen]byte
	rng      *sim.Rand
	stations map[dot11.MAC]*stationState
	// groupTx protects group-addressed downlink with the GTK.
	groupTx *crypto80211.CCMPSession
	nextAID uint16
	// tsfStart anchors the beacon timestamp field.
	beaconEvent *sim.Event
	ipID        uint16

	// rec/track carry the optional trace recorder (TraceTo).
	rec   *obs.Recorder
	track obs.TrackID
}

// New builds an AP and attaches it to the medium. Call Start to begin
// beaconing.
func New(sched *sim.Scheduler, med *medium.Medium, cfg Config) *AP {
	if cfg.Seed == 0 {
		cfg.Seed = 0xa9
	}
	a := &AP{
		Cfg:      cfg,
		sched:    sched,
		pmk:      crypto80211.PSK(cfg.Passphrase, cfg.SSID),
		rng:      sim.NewRand(cfg.Seed),
		stations: make(map[dot11.MAC]*stationState),
		nextAID:  1,
		DHCP:     netstack.NewDHCPServer(cfg.IP),
	}
	for i := range a.gtk {
		a.gtk[i] = byte(a.rng.Uint64())
	}
	a.groupTx = crypto80211.NewCCMPSession(a.gtk)
	// APs transmit at ~20 dBm (100 mW), the typical regulatory ceiling.
	a.Port = mac.New(sched, med, "ap:"+cfg.SSID, cfg.Position, cfg.BSSID,
		phy.RateHTMCS7, phy.DBm(20), phy.SensitivityWiFi1M, sim.NewRand(cfg.Seed^0x5555))
	a.Port.Handler = a.handle
	return a
}

// TraceTo attaches the AP to a trace recorder: MAC activity lands on one
// track, beacon generation instants on another. Passing a nil recorder
// detaches.
func (a *AP) TraceTo(r *obs.Recorder) {
	a.rec = r
	if r == nil {
		a.Port.TraceTo(nil, 0)
		return
	}
	name := "ap:" + a.Cfg.SSID
	a.Port.TraceTo(r, r.Track(name+" mac"))
	a.track = r.Track(name)
}

// Observe collects the AP's MAC Stats into the registry.
func (a *AP) Observe(reg *obs.Registry) { a.Port.Observe(reg) }

// Start powers the radio and begins the beacon schedule.
func (a *AP) Start() {
	a.Port.SetRadioOn(true)
	a.scheduleBeacon()
}

// Stop halts beaconing and powers the radio down.
func (a *AP) Stop() {
	if a.beaconEvent != nil {
		a.sched.Cancel(a.beaconEvent)
		a.beaconEvent = nil
	}
	a.Port.SetRadioOn(false)
}

func (a *AP) scheduleBeacon() {
	a.beaconEvent = a.sched.After(beaconIntervalTU*TU, func() {
		a.sendBeacon()
		a.scheduleBeacon()
	})
}

// elements builds the AP's advertised element list.
func (a *AP) elements(withTIM bool) dot11.Elements {
	els := dot11.Elements{
		dot11.SSIDElement(a.Cfg.SSID),
		dot11.DefaultRates(),
		dot11.DSParamElement(a.Cfg.Channel),
	}
	if withTIM {
		els = append(els, dot11.TIMElement(uint8(a.Stats.BeaconsSent%dtimPeriod), dtimPeriod))
	}
	els = append(els,
		dot11.RSNElement(dot11.DefaultRSN()),
		dot11.HTCapabilitiesElement(dot11.SingleStreamHTCapabilities()),
		dot11.HTOperationElement(dot11.HTOperation{PrimaryChannel: uint8(a.Cfg.Channel)}),
	)
	return els
}

func (a *AP) sendBeacon() {
	b := dot11.NewBeacon(a.Cfg.BSSID, beaconIntervalTU, dot11.CapESS|dot11.CapPrivacy, a.elements(true))
	b.Timestamp = uint64(a.sched.Now() / sim.Microsecond)
	a.Stats.BeaconsSent++
	if a.rec != nil {
		a.rec.Instant(a.track, a.sched.Now(), "beacon")
	}
	a.send(b, nil)
}

// send transmits a frame the AP built itself. Port.Send only fails when the
// frame cannot be marshalled, which for AP-constructed frames is a bug.
func (a *AP) send(f dot11.Frame, done func(ok bool)) {
	if err := a.Port.Send(f, done); err != nil {
		panic(fmt.Sprintf("ap: %v", err))
	}
}

// station returns (creating if needed) the state for addr.
func (a *AP) station(addr dot11.MAC) *stationState {
	st, ok := a.stations[addr]
	if !ok {
		st = &stationState{}
		a.stations[addr] = st
	}
	return st
}

// handle dispatches received frames.
func (a *AP) handle(f dot11.Frame, rx medium.Reception) {
	switch t := f.(type) {
	case *dot11.ProbeReq:
		a.handleProbe(t)
	case *dot11.Auth:
		a.handleAuth(t)
	case *dot11.AssocReq:
		a.handleAssoc(t)
	case *dot11.Deauth:
		delete(a.stations, t.Header.Addr2)
	case *dot11.Disassoc:
		if st, ok := a.stations[t.Header.Addr2]; ok {
			st.associated, st.secured = false, false
		}
	case *dot11.Data:
		a.handleData(t)
	}
}

func (a *AP) handleProbe(p *dot11.ProbeReq) {
	// Respond to wildcard probes and probes naming our SSID.
	if ssid, hidden, ok := p.Elements.SSID(); ok && !hidden && ssid != a.Cfg.SSID {
		return
	}
	resp := &dot11.ProbeResp{
		Timestamp:  uint64(a.sched.Now() / sim.Microsecond),
		Interval:   beaconIntervalTU,
		Capability: dot11.CapESS | dot11.CapPrivacy,
		Elements:   a.elements(false),
	}
	resp.Header.Addr1 = p.Header.Addr2
	resp.Header.Addr2 = a.Cfg.BSSID
	resp.Header.Addr3 = a.Cfg.BSSID
	a.Stats.ProbeResponses++
	a.send(resp, nil)
}

func (a *AP) handleAuth(req *dot11.Auth) {
	if req.Algorithm != dot11.AuthOpen || req.Seq != 1 {
		a.sendAuthResp(req.Header.Addr2, dot11.StatusUnspecified)
		return
	}
	a.station(req.Header.Addr2).authed = true
	a.Stats.AuthAccepted++
	a.sendAuthResp(req.Header.Addr2, dot11.StatusSuccess)
}

func (a *AP) sendAuthResp(to dot11.MAC, status dot11.StatusCode) {
	resp := &dot11.Auth{Algorithm: dot11.AuthOpen, Seq: 2, Status: status}
	resp.Header.Addr1 = to
	resp.Header.Addr2 = a.Cfg.BSSID
	resp.Header.Addr3 = a.Cfg.BSSID
	a.send(resp, nil)
}

func (a *AP) handleAssoc(req *dot11.AssocReq) {
	// The handshake starts after the response's ACK, when req is back in
	// the decode pool: keep the station's address, not the frame.
	sta := req.Header.Addr2
	st := a.station(sta)
	resp := &dot11.AssocResp{Capability: dot11.CapESS | dot11.CapPrivacy}
	resp.Header.Addr1 = sta
	resp.Header.Addr2 = a.Cfg.BSSID
	resp.Header.Addr3 = a.Cfg.BSSID
	if !st.authed {
		resp.Status = dot11.StatusDeniedGeneral
		a.send(resp, nil)
		return
	}
	if info, ok := req.Elements.Find(dot11.ElementRSN); ok {
		if rsn, err := dot11.ParseRSN(info); err != nil || len(rsn.AKMs) == 0 || rsn.AKMs[0] != dot11.AKMPSK {
			resp.Status = dot11.StatusInvalidRSN
			a.send(resp, nil)
			return
		}
	} else {
		resp.Status = dot11.StatusInvalidRSN
		a.send(resp, nil)
		return
	}
	if st.aid == 0 {
		st.aid = a.nextAID
		a.nextAID++
	}
	st.associated = true
	resp.Status = dot11.StatusSuccess
	resp.AID = st.aid
	a.Stats.AssocAccepted++
	a.send(resp, func(ok bool) {
		if ok {
			a.startHandshake(sta, st)
		}
	})
}

// startHandshake begins the 4-way exchange by sending M1.
func (a *AP) startHandshake(sta dot11.MAC, st *stationState) {
	var anonce [crypto80211.NonceLen]byte
	for i := range anonce {
		anonce[i] = byte(a.rng.Uint64())
	}
	st.authenticator = crypto80211.NewAuthenticator(a.pmk, a.Cfg.BSSID, sta, anonce, a.gtk)
	a.sendEAPOL(sta, st.authenticator.Message1())
}

// sendEAPOL wraps an EAPOL PDU in SNAP + 802.11 data.
func (a *AP) sendEAPOL(sta dot11.MAC, pdu []byte) {
	msdu := netstack.WrapSNAP(netstack.EtherTypeEAPOL, pdu)
	a.sendDownlink(sta, msdu)
}

// handleData processes uplink data frames.
func (a *AP) handleData(d *dot11.Data) {
	if !d.Header.FC.ToDS {
		return // not for the DS
	}
	src := d.Header.Addr2
	st := a.station(src)
	if d.Header.FC.Subtype == dot11.SubtypeNull || d.Header.FC.Subtype == dot11.SubtypeQoSNull {
		return
	}
	msdu := d.Payload
	switch {
	case d.Header.FC.Protected:
		if st.ccmp == nil {
			return // protected frame from a station with no keys
		}
		plain, err := st.ccmp.Decapsulate(crypto80211.DataFrameMeta(d), msdu)
		if err != nil {
			a.Stats.CCMPDrops++
			return
		}
		msdu = plain
	case st.secured:
		// Real APs discard unprotected data frames from stations that
		// completed the handshake (except EAPOL, which stays cleartext).
		if et, _, err := netstack.UnwrapSNAP(msdu); err != nil || et != netstack.EtherTypeEAPOL {
			a.Stats.CCMPDrops++
			return
		}
	}
	et, payload, err := netstack.UnwrapSNAP(msdu)
	if err != nil {
		return
	}
	// Group-addressed uplink (e.g. a gratuitous ARP announce) is relayed
	// back into the BSS under the group key, as the distribution system
	// requires, so other stations learn of it too.
	if d.DA().IsGroup() && st.secured && et != netstack.EtherTypeEAPOL {
		a.relayGroup(src, d.DA(), msdu)
	}
	switch et {
	case netstack.EtherTypeEAPOL:
		a.handleEAPOL(src, st, payload)
	case netstack.EtherTypeARP:
		a.handleARP(src, st, payload)
	case netstack.EtherTypeIPv4:
		a.handleIPv4(src, st, payload)
	default:
		a.Stats.UplinkFrames++
		if a.OnUplink != nil {
			a.OnUplink(src, et, payload)
		}
	}
}

// relayGroup retransmits a broadcast/multicast MSDU into the BSS,
// GTK-protected. The original sender recognizes its own SA and ignores it.
func (a *AP) relayGroup(sa, da dot11.MAC, msdu []byte) {
	f := dot11.NewDataFromAP(a.Cfg.BSSID, da, sa, msdu)
	f.Header.FC.Protected = true
	body, err := a.groupTx.Encapsulate(crypto80211.DataFrameMeta(f), msdu)
	if err != nil {
		return
	}
	f.Payload = body
	a.Stats.GroupRelays++
	a.send(f, nil)
}

func (a *AP) handleEAPOL(src dot11.MAC, st *stationState, pdu []byte) {
	if st.authenticator == nil {
		return
	}
	resp, err := st.authenticator.Handle(pdu)
	if err != nil {
		// Failed handshake: deauth the client, as real APs do.
		d := &dot11.Deauth{Reason: dot11.ReasonUnspecified}
		d.Header.Addr1 = src
		d.Header.Addr2 = a.Cfg.BSSID
		d.Header.Addr3 = a.Cfg.BSSID
		a.send(d, nil)
		delete(a.stations, src)
		return
	}
	if resp != nil {
		a.sendEAPOL(src, resp)
	}
	if st.authenticator.Done() {
		st.secured = true
		st.ccmp = crypto80211.NewCCMPSession(st.authenticator.PTK().TK)
		a.Stats.HandshakesDone++
	}
}

func (a *AP) handleARP(src dot11.MAC, st *stationState, payload []byte) {
	req, err := netstack.ParseARP(payload)
	if err != nil || req.Op != netstack.ARPRequest || req.TargetIP != a.Cfg.IP {
		return
	}
	rep, err := req.Reply([6]byte(a.Cfg.BSSID))
	if err != nil {
		return
	}
	a.Stats.ARPReplies++
	a.sched.DoAfter(arpDelay, func() {
		a.sendDownlink(src, netstack.WrapSNAP(netstack.EtherTypeARP, rep.Append(nil)))
	})
}

func (a *AP) handleIPv4(src dot11.MAC, st *stationState, payload []byte) {
	hdr, body, err := netstack.ParseIPv4(payload)
	if err != nil || hdr.Protocol != netstack.ProtoUDP {
		return
	}
	udp, data, err := netstack.ParseUDP(body)
	if err != nil {
		return
	}
	if udp.DstPort == netstack.DHCPServerPort {
		msg, err := netstack.ParseDHCP(data)
		if err != nil {
			return
		}
		reply := a.DHCP.Handle(msg)
		if reply == nil {
			return
		}
		a.Stats.DHCPReplies++
		a.sched.DoAfter(dhcpDelay, func() { a.sendDHCP(src, reply) })
		return
	}
	// Any other UDP datagram is application uplink (the sensor reading).
	a.Stats.UplinkFrames++
	if a.OnUplink != nil {
		a.OnUplink(src, netstack.EtherTypeIPv4, append(append([]byte(nil), udpMeta(hdr, udp)...), data...))
	}
}

// udpMeta compactly records the addressing of a delivered datagram for
// observers (src IP, dst IP, ports).
func udpMeta(ip netstack.IPv4Header, udp netstack.UDPHeader) []byte {
	return []byte{
		ip.Src[0], ip.Src[1], ip.Src[2], ip.Src[3],
		ip.Dst[0], ip.Dst[1], ip.Dst[2], ip.Dst[3],
		byte(udp.SrcPort >> 8), byte(udp.SrcPort), byte(udp.DstPort >> 8), byte(udp.DstPort),
	}
}

// sendDHCP wraps a DHCP reply in UDP/IP/SNAP and transmits it downlink.
func (a *AP) sendDHCP(sta dot11.MAC, msg *netstack.DHCP) {
	dg := netstack.AppendUDP(nil, netstack.UDPHeader{SrcPort: netstack.DHCPServerPort, DstPort: netstack.DHCPClientPort}, msg.Append(nil))
	a.ipID++
	pkt := netstack.AppendIPv4(nil, netstack.IPv4Header{
		Protocol: netstack.ProtoUDP, Src: a.Cfg.IP, Dst: netstack.IPBroadcast, ID: a.ipID,
	}, dg)
	a.sendDownlink(sta, netstack.WrapSNAP(netstack.EtherTypeIPv4, pkt))
}

// sendDownlink builds (and, once keys exist, CCMP-protects) one
// AP→station data frame. EAPOL rides cleartext until the handshake ends.
func (a *AP) sendDownlink(sta dot11.MAC, msdu []byte) {
	st := a.station(sta)
	f := dot11.NewDataFromAP(a.Cfg.BSSID, sta, a.Cfg.BSSID, msdu)
	eapol := false
	if et, _, err := netstack.UnwrapSNAP(msdu); err == nil {
		eapol = et == netstack.EtherTypeEAPOL
	}
	if st.ccmp != nil && !eapol {
		f.Header.FC.Protected = true
		body, err := st.ccmp.Encapsulate(crypto80211.DataFrameMeta(f), msdu)
		if err != nil {
			return
		}
		f.Payload = body
	}
	a.send(f, nil)
}

// StationInfo reports a client's association state for tests and tools.
type StationInfo struct {
	AID        uint16
	Associated bool
	Secured    bool
}

// Station reports the state of a client, if known.
func (a *AP) Station(addr dot11.MAC) (StationInfo, bool) {
	st, ok := a.stations[addr]
	if !ok {
		return StationInfo{}, false
	}
	return StationInfo{AID: st.aid, Associated: st.associated, Secured: st.secured}, true
}

// String summarizes the AP.
func (a *AP) String() string {
	return fmt.Sprintf("AP %q (%v) ch%d", a.Cfg.SSID, a.Cfg.BSSID, a.Cfg.Channel)
}
