package ap

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"wile/internal/dot11"
	"wile/internal/mac"
	"wile/internal/medium"
	"wile/internal/netstack"
	"wile/internal/phy"
	"wile/internal/sim"
)

var (
	bssid   = dot11.MustParseMAC("aa:bb:cc:00:00:01")
	staAddr = dot11.MustParseMAC("02:57:00:00:00:05")
)

type fixture struct {
	sched *sim.Scheduler
	med   *medium.Medium
	ap    *AP
	sta   *mac.Port // raw MAC port standing in for a station
}

func newFixture() *fixture {
	sched := sim.New()
	med := medium.New(sched, phy.WiFi24Channel(6))
	a := New(sched, med, Config{
		SSID:       "lab-net",
		Passphrase: "correct horse battery staple",
		BSSID:      bssid,
		Channel:    6,
		IP:         netstack.MustParseIP("192.168.86.1"),
	})
	a.Start()
	p := mac.New(sched, med, "fake-sta", medium.Position{X: 2, Y: 0}, staAddr,
		phy.RateHTMCS7, 0, phy.SensitivityWiFi1M, sim.NewRand(5))
	p.SetRadioOn(true)
	return &fixture{sched: sched, med: med, ap: a, sta: p}
}

func TestBeaconCadenceAndContents(t *testing.T) {
	fx := newFixture()
	var beacons []*dot11.Beacon
	var times []sim.Time
	fx.sta.Handler = func(f dot11.Frame, rx medium.Reception) {
		if b, ok := f.(*dot11.Beacon); ok {
			// Copy the elements out of the reception buffer.
			cp := *b
			cp.Elements = append(dot11.Elements(nil), b.Elements...)
			beacons = append(beacons, &cp)
			times = append(times, fx.sched.Now())
		}
	}
	fx.sched.RunUntil(sim.Second + 60*sim.Millisecond)
	// 102.4 ms interval → 10 beacons within 1.06 s.
	if len(beacons) != 10 {
		t.Fatalf("received %d beacons, want 10", len(beacons))
	}
	for i := 1; i < len(times); i++ {
		gap := times[i].Sub(times[i-1])
		if gap < 100*TU/100*99 || gap > 106*TU/100*100 {
			// Allow a couple of slots of DCF jitter around 102.4 ms.
			if gap < TU*99 || gap > TU*106 {
				t.Fatalf("beacon gap %v outside 102.4 ms ± jitter", gap)
			}
		}
	}
	b := beacons[0]
	if ssid, hidden, ok := b.Elements.SSID(); !ok || hidden || ssid != "lab-net" {
		t.Errorf("beacon SSID %q hidden=%v", ssid, hidden)
	}
	if !b.Capability.Has(dot11.CapESS | dot11.CapPrivacy) {
		t.Errorf("capability %04x", b.Capability)
	}
	if ch, ok := b.Elements.DSChannel(); !ok || ch != 6 {
		t.Errorf("channel %d", ch)
	}
	// The first beacon opens a DTIM period of 3, with an empty bitmap.
	if tim, ok := b.Elements.Find(dot11.ElementTIM); !ok || !bytes.Equal(tim, []byte{0, 3, 0, 0}) {
		t.Errorf("beacon TIM %x, want 00030000", tim)
	}
	if _, ok := b.Elements.Find(dot11.ElementRSN); !ok {
		t.Error("beacon missing RSN")
	}
	if b.Timestamp == 0 {
		t.Error("beacon timestamp unset")
	}
}

func TestProbeResponseFiltering(t *testing.T) {
	fx := newFixture()
	responses := 0
	fx.sta.Handler = func(f dot11.Frame, rx medium.Reception) {
		if _, ok := f.(*dot11.ProbeResp); ok {
			responses++
		}
	}
	sendProbe := func(ssid string, wildcard bool) {
		els := dot11.Elements{dot11.DefaultRates()}
		if wildcard {
			els = append(dot11.Elements{dot11.SSIDElement("")}, els...)
		} else {
			els = append(dot11.Elements{dot11.SSIDElement(ssid)}, els...)
		}
		req := &dot11.ProbeReq{Elements: els}
		req.Header.Addr1 = dot11.Broadcast
		req.Header.Addr2 = staAddr
		req.Header.Addr3 = dot11.Broadcast
		fx.sta.Send(req, nil)
		fx.sched.RunFor(50 * sim.Millisecond.Duration())
	}
	sendProbe("lab-net", false)
	if responses != 1 {
		t.Fatalf("directed probe: %d responses", responses)
	}
	sendProbe("", true)
	if responses != 2 {
		t.Fatalf("wildcard probe: %d responses", responses)
	}
	sendProbe("other-net", false)
	if responses != 2 {
		t.Fatalf("foreign probe answered: %d responses", responses)
	}
	if fx.ap.Stats.ProbeResponses != 2 {
		t.Fatalf("AP counted %d probe responses", fx.ap.Stats.ProbeResponses)
	}
}

func TestAssocWithoutAuthDenied(t *testing.T) {
	fx := newFixture()
	var status *dot11.StatusCode
	fx.sta.Handler = func(f dot11.Frame, rx medium.Reception) {
		if r, ok := f.(*dot11.AssocResp); ok {
			s := r.Status
			status = &s
		}
	}
	req := &dot11.AssocReq{Capability: dot11.CapESS,
		Elements: dot11.Elements{dot11.SSIDElement("lab-net"), dot11.RSNElement(dot11.DefaultRSN())}}
	req.Header.Addr1 = bssid
	req.Header.Addr2 = staAddr
	req.Header.Addr3 = bssid
	fx.sta.Send(req, nil)
	fx.sched.RunFor(100 * sim.Millisecond.Duration())
	if status == nil {
		t.Fatal("no assoc response")
	}
	if *status == dot11.StatusSuccess {
		t.Fatal("unauthenticated association accepted")
	}
}

func TestAssocWithoutRSNRejected(t *testing.T) {
	fx := newFixture()
	// Authenticate first.
	auth := &dot11.Auth{Algorithm: dot11.AuthOpen, Seq: 1}
	auth.Header.Addr1 = bssid
	auth.Header.Addr2 = staAddr
	auth.Header.Addr3 = bssid
	fx.sta.Send(auth, nil)
	fx.sched.RunFor(50 * sim.Millisecond.Duration())

	var status *dot11.StatusCode
	fx.sta.Handler = func(f dot11.Frame, rx medium.Reception) {
		if r, ok := f.(*dot11.AssocResp); ok {
			s := r.Status
			status = &s
		}
	}
	req := &dot11.AssocReq{Capability: dot11.CapESS,
		Elements: dot11.Elements{dot11.SSIDElement("lab-net")}} // no RSN
	req.Header.Addr1 = bssid
	req.Header.Addr2 = staAddr
	req.Header.Addr3 = bssid
	fx.sta.Send(req, nil)
	fx.sched.RunFor(100 * sim.Millisecond.Duration())
	if status == nil || *status != dot11.StatusInvalidRSN {
		t.Fatalf("status = %v, want invalid-RSN", status)
	}
}

// associate authenticates and associates the fake station, so the AP
// holds state for it with an AID.
func (fx *fixture) associate(t *testing.T) {
	t.Helper()
	auth := &dot11.Auth{Algorithm: dot11.AuthOpen, Seq: 1}
	auth.Header.Addr1 = bssid
	auth.Header.Addr2 = staAddr
	auth.Header.Addr3 = bssid
	fx.sta.Send(auth, nil)
	fx.sched.RunFor(50 * sim.Millisecond.Duration())
	assoc := &dot11.AssocReq{Capability: dot11.CapESS, ListenInterval: 3,
		Elements: dot11.Elements{dot11.SSIDElement("lab-net"), dot11.RSNElement(dot11.DefaultRSN())}}
	assoc.Header.Addr1 = bssid
	assoc.Header.Addr2 = staAddr
	assoc.Header.Addr3 = bssid
	fx.sta.Send(assoc, nil)
	fx.sched.RunFor(50 * sim.Millisecond.Duration())
	info, ok := fx.ap.Station(staAddr)
	if !ok || !info.Associated || info.AID == 0 {
		t.Fatalf("association failed: %+v", info)
	}
}

func TestDeauthForgetsStation(t *testing.T) {
	fx := newFixture()
	fx.associate(t) // creates state
	d := &dot11.Deauth{Reason: dot11.ReasonLeaving}
	d.Header.Addr1 = bssid
	d.Header.Addr2 = staAddr
	d.Header.Addr3 = bssid
	fx.sta.Send(d, nil)
	fx.sched.RunFor(50 * sim.Millisecond.Duration())
	if _, ok := fx.ap.Station(staAddr); ok {
		t.Fatal("AP retains deauthed station")
	}
}

func TestStopSilencesAP(t *testing.T) {
	fx := newFixture()
	beacons := 0
	fx.sta.Handler = func(f dot11.Frame, rx medium.Reception) {
		if _, ok := f.(*dot11.Beacon); ok {
			beacons++
		}
	}
	fx.sched.RunFor(300 * sim.Millisecond.Duration())
	if beacons == 0 {
		t.Fatal("no beacons before Stop")
	}
	n := beacons
	fx.ap.Stop()
	fx.sched.RunFor(sim.Second.Duration())
	if beacons != n {
		t.Fatal("beacons after Stop")
	}
}

func TestBadAuthAlgorithmRejected(t *testing.T) {
	fx := newFixture()
	var status *dot11.StatusCode
	fx.sta.Handler = func(f dot11.Frame, rx medium.Reception) {
		if a, ok := f.(*dot11.Auth); ok {
			s := a.Status
			status = &s
		}
	}
	req := &dot11.Auth{Algorithm: dot11.AuthSAE, Seq: 1} // we only do open system
	req.Header.Addr1 = bssid
	req.Header.Addr2 = staAddr
	req.Header.Addr3 = bssid
	fx.sta.Send(req, nil)
	fx.sched.RunFor(100 * sim.Millisecond.Duration())
	if status == nil || *status == dot11.StatusSuccess {
		t.Fatalf("SAE auth outcome: %v", status)
	}
	if fx.ap.Stats.AuthAccepted != 0 {
		t.Fatal("AP counted a rejected auth as accepted")
	}
}

func TestDisassocKeepsAuthDropsAssoc(t *testing.T) {
	fx := newFixture()
	fx.associate(t)
	d := &dot11.Disassoc{Reason: dot11.ReasonDisassocLeaving}
	d.Header.Addr1 = bssid
	d.Header.Addr2 = staAddr
	d.Header.Addr3 = bssid
	fx.sta.Send(d, nil)
	fx.sched.RunFor(50 * sim.Millisecond.Duration())
	info, ok := fx.ap.Station(staAddr)
	if !ok {
		t.Fatal("disassoc erased the station entirely")
	}
	if info.Associated || info.Secured {
		// expected: association dropped
	} else if info.AID == 0 {
		t.Fatal("AID lost on disassoc")
	}
	if info.Associated {
		t.Fatal("still associated after disassoc")
	}
}

func TestAPString(t *testing.T) {
	fx := newFixture()
	s := fx.ap.String()
	if s == "" || !strings.Contains(s, "lab-net") {
		t.Fatalf("String() = %q", s)
	}
}

// TestHandshakeStartsAtEachAssociatingStation: stations that associate
// back to back each get their own handshake's first message. The AP
// starts a handshake once its association response is ACKed, by which
// time the request is back in the decode pool and may hold another
// station's request, so it must keep the station's address, not the
// request.
func TestHandshakeStartsAtEachAssociatingStation(t *testing.T) {
	fx := newFixture()
	ports := []*mac.Port{fx.sta}
	for i := 1; i < 4; i++ {
		p := mac.New(fx.sched, fx.med, fmt.Sprintf("fake-sta-%d", i), medium.Position{X: 2, Y: float64(i)},
			dot11.MAC{0x02, 0x57, 0, 0, 0, byte(0x05 + i)}, phy.RateHTMCS7, 0, phy.SensitivityWiFi1M, sim.NewRand(uint64(5+i)))
		p.SetRadioOn(true)
		ports = append(ports, p)
	}
	eapol := make([]int, len(ports))
	for i, p := range ports {
		p.Handler = func(f dot11.Frame, rx medium.Reception) {
			d, ok := f.(*dot11.Data)
			if !ok || !d.Header.FC.FromDS || d.Header.Addr1 != p.Addr {
				return
			}
			if et, _, err := netstack.UnwrapSNAP(d.Payload); err == nil && et == netstack.EtherTypeEAPOL {
				eapol[i]++
			}
		}
		auth := &dot11.Auth{Algorithm: dot11.AuthOpen, Seq: 1}
		auth.Header.Addr1, auth.Header.Addr2, auth.Header.Addr3 = bssid, p.Addr, bssid
		p.Send(auth, nil)
	}
	fx.sched.RunFor(50 * sim.Millisecond.Duration())
	// All requests queue at once, so the stations contend and the AP
	// decodes the later ones while earlier responses await their ACKs.
	for _, p := range ports {
		req := &dot11.AssocReq{Capability: dot11.CapESS, ListenInterval: 3,
			Elements: dot11.Elements{dot11.SSIDElement("lab-net"), dot11.RSNElement(dot11.DefaultRSN())}}
		req.Header.Addr1, req.Header.Addr2, req.Header.Addr3 = bssid, p.Addr, bssid
		p.Send(req, nil)
	}
	fx.sched.RunFor(100 * sim.Millisecond.Duration())
	for i, n := range eapol {
		if n == 0 {
			t.Errorf("station %v got no EAPOL message; per station: %v", ports[i].Addr, eapol)
		}
	}
}
