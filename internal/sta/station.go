// Package sta implements the WiFi client state machine whose cost the
// paper measures and Wi-LE eliminates: active scan → open authentication →
// association → WPA2 4-way handshake → DHCP → ARP → first data frame.
//
// The same station runs the two baseline scenarios of §5.3:
//
//   - WiFi-DC: deep-sleep between transmissions, full rejoin on every wake
//     (Figure 3a; 238.2 mJ per message in Table 1).
//   - WiFi-PS: stay associated in aggressive power-save (listen interval 3,
//     automatic light sleep; 4.5 mA idle, 19.8 mJ per message).
//
// Processing delays: an 80 MHz microcontroller does not produce EAPOL
// responses in microseconds. The timing constants below model the
// client-side compute/driver latencies visible in the paper's Figure 3a
// phase widths; each documents which phase it calibrates.
package sta

import (
	"errors"
	"fmt"
	"time"

	"wile/internal/crypto80211"
	"wile/internal/dot11"
	"wile/internal/esp32"
	"wile/internal/mac"
	"wile/internal/medium"
	"wile/internal/netstack"
	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
)

// Client-side processing latencies. With the AP's service delays (package
// ap) they reproduce the Figure 3a phase widths (probe/auth/assoc + 4-way ≈
// 0.85 s → 1.15 s; DHCP/ARP ≈ 1.15 s → 1.75 s).
const (
	// scanDwell is the wait on-channel after a probe request before
	// treating the scan attempt as failed.
	scanDwell = 40 * time.Millisecond
	// authProcessing is the driver latency between probe response and
	// authentication request, and again before association.
	authProcessing = 30 * time.Millisecond
	// eapolProcessingM2 is the supplicant compute time before M2 — the
	// dominant client-side cost (PSK→PTK derivation on the MCU).
	eapolProcessingM2 = 160 * time.Millisecond
	// eapolProcessingM4 is the supplicant compute time before M4.
	eapolProcessingM4 = 70 * time.Millisecond
	// stackSetup is the post-handshake network-interface bring-up before
	// DHCP starts.
	stackSetup = 120 * time.Millisecond
	// netProcessing is the client-side handling latency per DHCP/ARP
	// message.
	netProcessing = 45 * time.Millisecond
	// responseTimeout bounds the wait for each authentication and
	// association response; the 4-way handshake, DHCP and ARP waits last
	// 4, 6 and 2 of it.
	responseTimeout = 300 * time.Millisecond
)

// PSWakeCPU and PSWakeListen shape the WiFi-PS transmit episode: MCU
// wake-up from automatic light sleep, then radio-on resync before the data
// frame. Calibrated to Table 1's 19.8 mJ per message.
const (
	PSWakeCPU    = 8 * time.Millisecond
	PSWakeListen = 60 * time.Millisecond
)

// listenInterval is the beacon-skip count the association request
// advertises (the paper's WiFi-PS wakes "only for every third beacon").
// The WiFi-PS idle current already prices that wake cadence (see
// experiment.WiFiPSIdleModel), so the station simulates no beacon wakes.
const listenInterval = 3

// Lease caches the network-layer state a duty-cycled client can reuse
// across deep sleeps (real ESP32 firmware persists this in RTC memory to
// skip DHCP/ARP on rejoin — one of the §1 "several different approaches"
// to cheaper WiFi).
type Lease struct {
	IP        netstack.IP
	Router    netstack.IP
	RouterMAC dot11.MAC
}

// Config parameterizes a station.
type Config struct {
	SSID       string
	Passphrase string
	Addr       dot11.MAC
	Position   medium.Position
	// CachedLease, when non-nil, skips the DHCP/ARP phase on Join: the
	// client trusts its stored lease and gateway MAC. Saves the Figure-3a
	// network-wait plateau at the risk of a stale lease.
	CachedLease *Lease
	Seed        uint64
}

// Errors returned by Join.
var (
	ErrNoAP        = errors.New("sta: no AP found (scan timeout)")
	ErrAuthFailed  = errors.New("sta: authentication failed")
	ErrAssocFailed = errors.New("sta: association failed")
	ErrHandshake   = errors.New("sta: 4-way handshake failed")
	ErrDHCPFailed  = errors.New("sta: DHCP failed")
	ErrARPFailed   = errors.New("sta: ARP failed")
	ErrNotJoined   = errors.New("sta: not joined")
	ErrBusy        = errors.New("sta: operation already in progress")
)

// joinPhase is the step a pending join is in; its name labels the step's
// slice on the MAC trace track.
type joinPhase uint8

const (
	phaseIdle joinPhase = iota // no join pending
	phaseProbe
	phaseAuth
	phaseAssoc
	phase4Way
	phaseDHCP
	phaseARP
)

var phaseNames = [...]string{"", "probe", "auth", "assoc", "4-way", "dhcp", "arp"}

// Station is one WiFi client.
type Station struct {
	Cfg  Config
	Port *mac.Port
	// Dev is the power model; the station drives its states.
	Dev *esp32.Device
	// IP and Router hold the DHCP results after a successful join.
	IP, Router netstack.IP
	// RouterMAC is the resolved gateway hardware address.
	RouterMAC dot11.MAC
	// AID is the association ID.
	AID uint16
	// OnDatagram, when set, receives the non-DHCP UDP datagrams delivered
	// to the station.
	OnDatagram func(src, dst netstack.IP, srcPort, dstPort uint16, payload []byte)
	// OnDisconnect, when set, is notified when the AP deauthenticates an
	// established association.
	OnDisconnect func(reason dot11.ReasonCode)

	sched  *sim.Scheduler
	bssid  dot11.MAC
	joined bool

	// The pending join: done is Join's completion (nil when no join runs)
	// and phase its current step. timer is its one armed wait, for the
	// reply that lets the join go on; if it fires first, the join fails
	// (or the scan retries). expect claims that reply when it is a
	// management frame. The 4-way, DHCP and ARP replies are data frames,
	// and their handlers act only while their own wait is armed (waiting).
	done   func(error)
	phase  joinPhase
	timer  *sim.Event
	expect func(dot11.Frame) bool

	// supp and dhcpc belong to the join that made them; they are read
	// only while its 4-way or DHCP wait is armed.
	supp  *crypto80211.Supplicant
	dhcpc *netstack.DHCPClient
	// ccmp protects data frames once the 4-way handshake installs the
	// temporal key; nil before that (and for EAPOL frames, which are
	// cleartext by design).
	ccmp *crypto80211.CCMPSession
	// groupRx decrypts group-addressed downlink with the GTK from M3.
	groupRx *crypto80211.CCMPSession
	rng     *sim.Rand
	ipID    uint16

	// rec/macTrack carry the optional trace recorder (TraceTo): the join
	// state machine emits one B/E slice per phase (probe, auth, assoc,
	// 4-way, dhcp, arp) on the MAC track, nesting the port's own frame
	// spans inside the phase that caused them. phaseOpen remembers whether
	// a phase slice is currently open so phases close each other.
	rec       *obs.Recorder
	macTrack  obs.TrackID
	phaseOpen bool
}

// New builds a station (radio off, deep sleep).
func New(sched *sim.Scheduler, med *medium.Medium, cfg Config) *Station {
	if cfg.Seed == 0 {
		cfg.Seed = 0x57a
	}
	s := &Station{
		Cfg:   cfg,
		sched: sched,
		rng:   sim.NewRand(cfg.Seed),
		Dev:   esp32.New(sched),
	}
	s.Port = mac.New(sched, med, "sta:"+cfg.Addr.String(), cfg.Position, cfg.Addr,
		phy.RateHTMCS7SGI, 0, phy.SensitivityWiFi1M, sim.NewRand(cfg.Seed^0xffff))
	s.Port.Radio = s.Dev
	s.Port.Handler = s.handle
	return s
}

// TraceTo attaches the station's device and MAC to a trace recorder,
// registering one track per layer. Join phases arrive as instants through
// the device's MarkPhase calls. Passing a nil recorder detaches.
func (s *Station) TraceTo(r *obs.Recorder) {
	s.rec = r
	s.phaseOpen = false
	if r == nil {
		s.Dev.TraceTo(nil, 0)
		s.Port.TraceTo(nil, 0)
		return
	}
	name := "sta:" + s.Cfg.Addr.String()
	s.Dev.TraceTo(r, r.Track(name+" power"))
	s.macTrack = r.Track(name + " mac")
	s.Port.TraceTo(r, s.macTrack)
}

// beginJoinPhase moves the join to phase p and opens its slice on the MAC
// track, closing the previous phase first: phases are sequential, never
// nested in each other.
func (s *Station) beginJoinPhase(p joinPhase) {
	s.phase = p
	if s.rec == nil {
		return
	}
	now := s.sched.Now()
	if s.phaseOpen {
		s.rec.End(s.macTrack, now)
	}
	s.rec.Begin(s.macTrack, now, phaseNames[p])
	s.phaseOpen = true
}

// endJoinPhase closes the open phase slice, if any; end calls it, so a
// failed join still reads cleanly in the timeline.
func (s *Station) endJoinPhase() {
	if s.rec == nil || !s.phaseOpen {
		return
	}
	s.rec.End(s.macTrack, s.sched.Now())
	s.phaseOpen = false
}

// Observe collects the station's MAC Stats into the registry.
func (s *Station) Observe(reg *obs.Registry) { s.Port.Observe(reg) }

// handle routes received frames to the pending management wait and the
// steady-state paths (EAPOL, DHCP, ARP).
func (s *Station) handle(f dot11.Frame, _ medium.Reception) {
	if s.expect != nil && s.expect(f) {
		return
	}
	switch t := f.(type) {
	case *dot11.Deauth:
		s.handleDeauth(t)
	case *dot11.Data:
		if t.Header.FC.FromDS {
			s.handleDownlink(t)
		}
	}
}

// handleDeauth tears down state when the AP expels us — e.g. after a
// failed handshake MIC, or an idle-timeout on a real AP. A pending join
// fails at once, whichever phase it is in; an established association
// reports the loss through OnDisconnect.
func (s *Station) handleDeauth(d *dot11.Deauth) {
	if d.Header.Addr3 != s.bssid || s.bssid == (dot11.MAC{}) {
		return
	}
	wasJoined := s.joined
	s.joined = false
	s.ccmp = nil
	s.groupRx = nil
	if s.done != nil {
		s.end(fmt.Errorf("%w: deauthenticated by AP (reason %d)", ErrHandshake, d.Reason))
		return
	}
	if wasJoined && s.OnDisconnect != nil {
		s.OnDisconnect(d.Reason)
	}
}

// wait arms the join's one wait: unless a reply clears it within timeout,
// onTimeout runs. expect, when non-nil, claims the management reply that
// clears it; the data-frame phases clear it from their handlers.
func (s *Station) wait(timeout time.Duration, expect func(dot11.Frame) bool, onTimeout func(*Station)) {
	if s.timer != nil {
		panic("sta: join wait armed while another is pending")
	}
	s.expect = expect
	s.timer = s.sched.After(timeout, func() {
		s.timer, s.expect = nil, nil
		onTimeout(s)
	})
}

// clear disarms the pending wait. A reply clears its wait before going on,
// so the next phase can arm its own.
func (s *Station) clear() {
	s.sched.Cancel(s.timer)
	s.timer, s.expect = nil, nil
}

// waiting reports whether the join is in phase p with its wait armed: the
// only state in which p's reply handler acts.
func (s *Station) waiting(p joinPhase) bool { return s.phase == p && s.timer != nil }

// then runs next after the processing delay d, but only if the join is
// still in the phase that scheduled it with no wait armed: a deauth that
// ends the join meanwhile cancels the step.
func (s *Station) then(d time.Duration, next func(*Station)) {
	p := s.phase
	s.sched.DoAfter(d, func() {
		if s.phase == p && s.timer == nil {
			next(s)
		}
	})
}

// end finishes the pending join with err; it is the only way out of a
// join. It disarms the wait, closes the phase slice, powers the radio down
// on failure and calls Join's completion.
func (s *Station) end(err error) {
	done := s.done
	s.done, s.phase = nil, phaseIdle
	s.clear()
	s.endJoinPhase()
	if err != nil {
		s.Port.SetRadioOn(false)
	}
	done(err)
}

// send transmits a frame the station built itself. Port.Send only fails
// when the frame cannot be marshalled, which here is a bug.
func (s *Station) send(f dot11.Frame, done func(ok bool)) {
	if err := s.Port.Send(f, done); err != nil {
		panic(fmt.Sprintf("sta: %v", err)) // frame construction bug
	}
}

// Join drives the full association sequence. The device must already be
// booted (CPU active); Join manages the radio and power states and calls
// done exactly once.
func (s *Station) Join(done func(error)) {
	if s.done != nil {
		done(ErrBusy)
		return
	}
	if s.joined {
		done(nil)
		return
	}
	s.done = done
	s.Port.SetRadioOn(true)
	s.Dev.SetState(esp32.StateRadioListen)
	s.Dev.MarkPhase("Probe/Auth./Associate")
	s.beginJoinPhase(phaseProbe)
	s.probe(0)
}

// probe performs the active scan: up to three probe requests, each given
// scanDwell for a response naming our SSID.
func (s *Station) probe(attempt int) {
	if attempt == 3 {
		s.end(ErrNoAP)
		return
	}
	req := &dot11.ProbeReq{Elements: dot11.Elements{
		dot11.SSIDElement(s.Cfg.SSID),
		dot11.DefaultRates(),
	}}
	req.Header.Addr1 = dot11.Broadcast
	req.Header.Addr2 = s.Cfg.Addr
	req.Header.Addr3 = dot11.Broadcast

	s.wait(scanDwell, func(f dot11.Frame) bool {
		resp, ok := f.(*dot11.ProbeResp)
		if !ok {
			return false
		}
		if ssid, _, ok := resp.Elements.SSID(); !ok || ssid != s.Cfg.SSID {
			return false
		}
		s.clear()
		s.bssid = resp.Header.Addr3
		s.then(authProcessing, (*Station).authenticate)
		return true
	}, func(s *Station) { s.probe(attempt + 1) })

	s.send(req, nil)
}

// authenticate runs open-system authentication.
func (s *Station) authenticate() {
	s.beginJoinPhase(phaseAuth)
	req := &dot11.Auth{Algorithm: dot11.AuthOpen, Seq: 1}
	req.Header.Addr1 = s.bssid
	req.Header.Addr2 = s.Cfg.Addr
	req.Header.Addr3 = s.bssid

	s.wait(responseTimeout, func(f dot11.Frame) bool {
		resp, ok := f.(*dot11.Auth)
		if !ok || resp.Seq != 2 {
			return false
		}
		s.clear()
		if resp.Status != dot11.StatusSuccess {
			s.end(fmt.Errorf("%w: status %d", ErrAuthFailed, resp.Status))
			return true
		}
		s.then(authProcessing, (*Station).associate)
		return true
	}, func(s *Station) { s.end(ErrAuthFailed) })

	s.send(req, nil)
}

// associate sends the association request and prepares the supplicant.
func (s *Station) associate() {
	s.beginJoinPhase(phaseAssoc)
	req := &dot11.AssocReq{
		Capability:     dot11.CapESS | dot11.CapPrivacy,
		ListenInterval: listenInterval,
		Elements: dot11.Elements{
			dot11.SSIDElement(s.Cfg.SSID),
			dot11.DefaultRates(),
			dot11.RSNElement(dot11.DefaultRSN()),
		},
	}
	req.Header.Addr1 = s.bssid
	req.Header.Addr2 = s.Cfg.Addr
	req.Header.Addr3 = s.bssid

	s.wait(responseTimeout, func(f dot11.Frame) bool {
		resp, ok := f.(*dot11.AssocResp)
		if !ok {
			return false
		}
		s.clear()
		if resp.Status != dot11.StatusSuccess {
			s.end(fmt.Errorf("%w: status %d", ErrAssocFailed, resp.Status))
			return true
		}
		s.AID = resp.AID
		s.prepareHandshake()
		return true
	}, func(s *Station) { s.end(ErrAssocFailed) })

	s.send(req, nil)
}

// prepareHandshake arms the supplicant and waits for M1 (which arrives as
// an EAPOL data frame through handleDownlink).
func (s *Station) prepareHandshake() {
	s.beginJoinPhase(phase4Way)
	var snonce [crypto80211.NonceLen]byte
	for i := range snonce {
		snonce[i] = byte(s.rng.Uint64())
	}
	pmk := crypto80211.PSK(s.Cfg.Passphrase, s.Cfg.SSID)
	s.supp = crypto80211.NewSupplicant(pmk, [6]byte(s.bssid), [6]byte(s.Cfg.Addr), snonce)
	s.wait(4*responseTimeout, nil, func(s *Station) { s.end(ErrHandshake) })
}

// handleDownlink processes AP→station data frames, removing CCMP
// protection when present.
func (s *Station) handleDownlink(d *dot11.Data) {
	msdu := d.Payload
	if d.Header.FC.Protected {
		session := s.ccmp
		if d.Header.Addr1.IsGroup() {
			session = s.groupRx // group-addressed downlink uses the GTK
		}
		if session == nil {
			return // protected frame before keys: undecryptable
		}
		plain, err := session.Decapsulate(crypto80211.DataFrameMeta(d), msdu)
		if err != nil {
			return // bad MIC or replay: discard silently like hardware
		}
		msdu = plain
	}
	et, payload, err := netstack.UnwrapSNAP(msdu)
	if err != nil {
		return
	}
	switch et {
	case netstack.EtherTypeEAPOL:
		s.handleEAPOL(payload)
	case netstack.EtherTypeARP:
		s.handleARP(payload)
	case netstack.EtherTypeIPv4:
		s.handleIPv4(payload)
	}
}

func (s *Station) handleEAPOL(pdu []byte) {
	if !s.waiting(phase4Way) {
		return
	}
	// Model the supplicant compute delay before responding.
	k, err := crypto80211.ParseEAPOLKey(pdu)
	if err != nil {
		return
	}
	delay := eapolProcessingM2
	if k.Info&crypto80211.KeyInfoInstall != 0 {
		delay = eapolProcessingM4
	}
	pduCopy := append([]byte(nil), pdu...)
	s.sched.DoAfter(delay, func() {
		if !s.waiting(phase4Way) {
			return
		}
		resp, err := s.supp.Handle(pduCopy)
		if err != nil {
			s.end(fmt.Errorf("%w: %v", ErrHandshake, err))
			return
		}
		if resp != nil {
			s.sendEAPOL(resp)
		}
		if s.supp.Done() {
			s.installKeys()
		}
	})
}

// installKeys ends the 4-way wait. From here every data frame is
// CCMP-protected, as on the paper's WPA2 testbed. A cached lease then
// completes the join at once; otherwise DHCP starts after the network
// stack comes up.
func (s *Station) installKeys() {
	s.clear()
	s.ccmp = crypto80211.NewCCMPSession(s.supp.PTK().TK)
	s.groupRx = crypto80211.NewCCMPSession(s.supp.GTK())
	if s.Cfg.CachedLease != nil {
		// Fast rejoin: reuse the stored lease, skipping DHCP and ARP.
		s.IP = s.Cfg.CachedLease.IP
		s.Router = s.Cfg.CachedLease.Router
		s.RouterMAC = s.Cfg.CachedLease.RouterMAC
		s.joined = true
		s.end(nil)
		return
	}
	s.Dev.MarkPhase("DHCP/ARP")
	s.beginJoinPhase(phaseDHCP)
	s.Dev.SetState(esp32.StateNetworkWait)
	s.then(stackSetup, (*Station).startDHCP)
}

// sendEAPOL wraps an EAPOL PDU for the uplink. Handshake frames are
// cleartext: the keys they negotiate do not exist yet.
func (s *Station) sendEAPOL(pdu []byte) {
	msdu := netstack.WrapSNAP(netstack.EtherTypeEAPOL, pdu)
	s.send(dot11.NewDataToAP(s.bssid, s.Cfg.Addr, s.bssid, msdu), nil)
}

// sendMSDU transmits an MSDU to the DS, CCMP-protecting it once the
// pairwise key is installed.
func (s *Station) sendMSDU(da dot11.MAC, msdu []byte, done func(ok bool)) {
	f := dot11.NewDataToAP(s.bssid, s.Cfg.Addr, da, msdu)
	if s.ccmp != nil {
		f.Header.FC.Protected = true
		body, err := s.ccmp.Encapsulate(crypto80211.DataFrameMeta(f), msdu)
		if err != nil {
			panic(fmt.Sprintf("sta: CCMP encapsulation: %v", err))
		}
		f.Payload = body
	}
	s.send(f, done)
}

// startDHCP runs the DISCOVER/OFFER/REQUEST/ACK exchange.
func (s *Station) startDHCP() {
	s.dhcpc = netstack.NewDHCPClient(uint32(s.rng.Uint64()), [6]byte(s.Cfg.Addr))
	s.wait(6*responseTimeout, nil, func(s *Station) { s.end(ErrDHCPFailed) })
	s.sendDHCP(s.dhcpc.Discover())
}

// sendDHCP wraps a DHCP message in UDP/IPv4/SNAP and transmits it.
func (s *Station) sendDHCP(msg *netstack.DHCP) {
	dg := netstack.AppendUDP(nil, netstack.UDPHeader{
		SrcPort: netstack.DHCPClientPort, DstPort: netstack.DHCPServerPort,
	}, msg.Append(nil))
	s.ipID++
	pkt := netstack.AppendIPv4(nil, netstack.IPv4Header{
		Protocol: netstack.ProtoUDP, Src: netstack.IPZero, Dst: netstack.IPBroadcast, ID: s.ipID,
	}, dg)
	s.sendMSDU(dot11.Broadcast, netstack.WrapSNAP(netstack.EtherTypeIPv4, pkt), nil)
}

func (s *Station) handleIPv4(payload []byte) {
	hdr, body, err := netstack.ParseIPv4(payload)
	if err != nil || hdr.Protocol != netstack.ProtoUDP {
		return
	}
	udp, data, err := netstack.ParseUDP(body)
	if err != nil {
		return
	}
	if udp.DstPort != netstack.DHCPClientPort {
		if s.OnDatagram != nil {
			s.OnDatagram(hdr.Src, hdr.Dst, udp.SrcPort, udp.DstPort, append([]byte(nil), data...))
		}
		return
	}
	if !s.waiting(phaseDHCP) {
		return
	}
	// Copy: the reception buffer is not ours to retain across the
	// processing delay.
	dataCopy := append([]byte(nil), data...)
	s.sched.DoAfter(netProcessing, func() {
		if !s.waiting(phaseDHCP) {
			return
		}
		msg, err := netstack.ParseDHCP(dataCopy)
		if err != nil {
			return
		}
		next, err := s.dhcpc.Handle(msg)
		if err != nil {
			s.end(fmt.Errorf("%w: %v", ErrDHCPFailed, err))
			return
		}
		if next != nil {
			s.sendDHCP(next)
		}
		if s.dhcpc.Done() {
			s.IP = s.dhcpc.Assigned
			s.Router = s.dhcpc.Router
			s.clear()
			s.startARP()
		}
	})
}

// startARP first announces the freshly leased address (gratuitous ARP,
// which real DHCP clients emit for conflict detection — the 7th
// "higher-layer frame" of §3.1), then resolves the gateway's MAC.
func (s *Station) startARP() {
	s.beginJoinPhase(phaseARP)
	announce := netstack.NewARPRequest([6]byte(s.Cfg.Addr), s.IP, s.IP)
	s.sendMSDU(dot11.Broadcast, netstack.WrapSNAP(netstack.EtherTypeARP, announce.Append(nil)), nil)

	req := netstack.NewARPRequest([6]byte(s.Cfg.Addr), s.IP, s.Router)
	s.wait(2*responseTimeout, nil, func(s *Station) { s.end(ErrARPFailed) })
	s.sendMSDU(dot11.Broadcast, netstack.WrapSNAP(netstack.EtherTypeARP, req.Append(nil)), nil)
}

func (s *Station) handleARP(payload []byte) {
	rep, err := netstack.ParseARP(payload)
	if err != nil || rep.Op != netstack.ARPReply || !s.waiting(phaseARP) || rep.SenderIP != s.Router {
		return
	}
	s.RouterMAC = dot11.MAC(rep.SenderHW)
	s.clear()
	s.then(netProcessing, func(s *Station) {
		s.joined = true
		s.end(nil)
	})
}

// SendDatagram transmits one UDP datagram to an arbitrary IP through the
// AP, which delivers it upstream. Requires a completed Join.
func (s *Station) SendDatagram(dst netstack.IP, srcPort, dstPort uint16, payload []byte, done func(ok bool)) error {
	if !s.joined {
		return ErrNotJoined
	}
	dg := netstack.AppendUDP(nil, netstack.UDPHeader{SrcPort: srcPort, DstPort: dstPort}, payload)
	s.ipID++
	pkt := netstack.AppendIPv4(nil, netstack.IPv4Header{
		Protocol: netstack.ProtoUDP, Src: s.IP, Dst: dst, ID: s.ipID,
	}, dg)
	da := s.RouterMAC
	if dst == netstack.IPBroadcast {
		da = dot11.Broadcast
	}
	s.Dev.MarkPhase("Tx")
	s.sendMSDU(da, netstack.WrapSNAP(netstack.EtherTypeIPv4, pkt), done)
	return nil
}

// SendReading transmits one sensor datagram (UDP to the router) and calls
// done with the MAC-level outcome. Requires a completed Join.
func (s *Station) SendReading(payload []byte, dstPort uint16, done func(ok bool)) error {
	return s.SendDatagram(s.Router, 40000, dstPort, payload, done)
}

// Sleep drops the association state locally and deep-sleeps the device —
// the tail of every WiFi-DC cycle. It does not notify the AP (matching
// the scenario: "the WiFi chip disconnects from the AP after transmitting
// its data and goes to sleep").
func (s *Station) Sleep() {
	s.joined = false
	s.ccmp = nil
	s.groupRx = nil
	s.Port.SetRadioOn(false)
	s.Dev.MarkPhase("Sleep")
	s.Dev.SetState(esp32.StateDeepSleep)
}

// EnterPowerSave announces power-save to the AP (null frame with the PM
// bit) and settles into the WiFi-PS idle state. Requires a completed Join.
func (s *Station) EnterPowerSave(done func(ok bool)) error {
	if !s.joined {
		return ErrNotJoined
	}
	return s.Port.Send(dot11.NewNull(s.bssid, s.Cfg.Addr, true), func(ok bool) {
		if ok {
			s.Dev.SetState(esp32.StateWiFiPSIdle)
		}
		if done != nil {
			done(ok)
		}
	})
}

// SendReadingPS performs one WiFi-PS transmit episode: MCU wake, radio
// resync, the data frame, then back to power-save idle. The episode's
// shape is what Table 1's 19.8 mJ and Figure 4's WiFi-PS curve integrate.
func (s *Station) SendReadingPS(payload []byte, dstPort uint16, done func(ok bool)) error {
	if !s.joined {
		return ErrNotJoined
	}
	s.Dev.SetState(esp32.StateCPUActive)
	s.sched.DoAfter(PSWakeCPU, func() {
		s.Dev.SetState(esp32.StateRadioListen)
		s.sched.DoAfter(PSWakeListen, func() {
			err := s.SendReading(payload, dstPort, func(ok bool) {
				s.Dev.SetState(esp32.StateWiFiPSIdle)
				if done != nil {
					done(ok)
				}
			})
			if err != nil && done != nil {
				s.Dev.SetState(esp32.StateWiFiPSIdle)
				done(false)
			}
		})
	})
	return nil
}

// CurrentLease exports the network-layer state for caching across sleeps.
func (s *Station) CurrentLease() *Lease {
	if !s.joined {
		return nil
	}
	return &Lease{IP: s.IP, Router: s.Router, RouterMAC: s.RouterMAC}
}

// Joined reports whether the station holds a secured association and a
// lease.
func (s *Station) Joined() bool { return s.joined }

// BSSID reports the associated AP (zero until the scan succeeds).
func (s *Station) BSSID() dot11.MAC { return s.bssid }
