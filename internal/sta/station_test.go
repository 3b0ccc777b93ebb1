package sta_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"wile/internal/ap"
	"wile/internal/crypto80211"
	"wile/internal/dot11"
	"wile/internal/esp32"
	"wile/internal/mac"
	"wile/internal/medium"
	"wile/internal/netstack"
	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
	"wile/internal/sta"
	"wile/internal/units"
)

// observe adapts a passive test monitor to mac.Port.Monitor. It filters
// nothing, so every frame it sees counts as delivered.
func observe(fn func(f dot11.Frame)) func(dot11.Frame, medium.Reception) obs.DropReason {
	return func(f dot11.Frame, _ medium.Reception) obs.DropReason {
		fn(f)
		return obs.Delivered
	}
}

type world struct {
	sched *sim.Scheduler
	med   *medium.Medium
	ap    *ap.AP
	sta   *sta.Station
}

var staAddr = dot11.MustParseMAC("02:57:00:00:00:01")

func newWorld() *world {
	sched := sim.New()
	med := medium.New(sched, phy.WiFi24Channel(6))
	a := ap.New(sched, med, ap.Config{
		SSID:       "lab-net",
		Passphrase: "correct horse battery staple",
		BSSID:      dot11.MustParseMAC("aa:bb:cc:00:00:01"),
		Channel:    6,
		IP:         netstack.MustParseIP("192.168.86.1"),
		Position:   medium.Position{X: 0, Y: 0},
	})
	a.Start()
	s := sta.New(sched, med, sta.Config{
		SSID:       "lab-net",
		Passphrase: "correct horse battery staple",
		Addr:       staAddr,
		Position:   medium.Position{X: 3, Y: 0},
	})
	return &world{sched: sched, med: med, ap: a, sta: s}
}

// join drives a Join to completion and returns its error.
func (w *world) join(t *testing.T) error {
	t.Helper()
	var result *error
	w.sta.Dev.SetState(esp32.StateCPUActive)
	w.sta.Join(func(err error) { result = &err })
	w.sched.RunUntil(w.sched.Now() + 10*sim.Second)
	if result == nil {
		t.Fatal("join never completed")
	}
	return *result
}

func TestJoinSucceeds(t *testing.T) {
	w := newWorld()
	if err := w.join(t); err != nil {
		t.Fatal(err)
	}
	if !w.sta.Joined() {
		t.Fatal("station does not report joined")
	}
	if w.sta.IP == netstack.IPZero {
		t.Fatal("no IP leased")
	}
	if w.sta.Router != netstack.MustParseIP("192.168.86.1") {
		t.Fatalf("router = %v", w.sta.Router)
	}
	if w.sta.RouterMAC != w.ap.Cfg.BSSID {
		t.Fatalf("router MAC = %v", w.sta.RouterMAC)
	}
	if w.sta.AID == 0 {
		t.Fatal("no AID assigned")
	}
	info, ok := w.ap.Station(staAddr)
	if !ok || !info.Associated || !info.Secured {
		t.Fatalf("AP view: %+v ok=%v", info, ok)
	}
	if w.ap.Stats.HandshakesDone != 1 {
		t.Fatalf("AP handshakes = %d", w.ap.Stats.HandshakesDone)
	}
}

func TestJoinWrongPassphraseFails(t *testing.T) {
	w := newWorld()
	w.sta.Cfg.Passphrase = "not the right one"
	err := w.join(t)
	if err == nil {
		t.Fatal("join succeeded with wrong passphrase")
	}
	if !errors.Is(err, sta.ErrHandshake) {
		t.Fatalf("err = %v, want handshake failure", err)
	}
	if w.sta.Joined() {
		t.Fatal("station claims joined")
	}
}

func TestJoinNoAPTimesOut(t *testing.T) {
	w := newWorld()
	w.ap.Stop()
	err := w.join(t)
	if !errors.Is(err, sta.ErrNoAP) {
		t.Fatalf("err = %v, want ErrNoAP", err)
	}
	// Device radio must be off again after the failed join.
	if w.sta.Port.Transceiver().On() {
		t.Fatal("radio left on after failed join")
	}
}

func TestJoinWrongSSIDIgnoresAP(t *testing.T) {
	w := newWorld()
	w.sta.Cfg.SSID = "someone-elses-net"
	w.sta.Cfg.Passphrase = "irrelevant"
	if err := w.join(t); !errors.Is(err, sta.ErrNoAP) {
		t.Fatalf("err = %v, want ErrNoAP", err)
	}
}

func TestSendReadingDeliversUplink(t *testing.T) {
	w := newWorld()
	if err := w.join(t); err != nil {
		t.Fatal(err)
	}
	var got []byte
	var gotFrom dot11.MAC
	w.ap.OnUplink = func(from dot11.MAC, et netstack.EtherType, payload []byte) {
		gotFrom = from
		got = append([]byte(nil), payload...)
	}
	var outcome *bool
	if err := w.sta.SendReading([]byte("temp=21.5"), 5683, func(ok bool) { outcome = &ok }); err != nil {
		t.Fatal(err)
	}
	w.sched.RunFor(sim.Second.Duration())
	if outcome == nil || !*outcome {
		t.Fatal("reading not acknowledged")
	}
	if gotFrom != staAddr {
		t.Fatalf("uplink from %v", gotFrom)
	}
	// Payload is 12 bytes of addressing metadata + the datagram.
	if len(got) < 12 || string(got[12:]) != "temp=21.5" {
		t.Fatalf("uplink payload %q", got)
	}
	if w.ap.Stats.UplinkFrames != 1 {
		t.Fatalf("uplink frames = %d", w.ap.Stats.UplinkFrames)
	}
}

func TestSendReadingBeforeJoinFails(t *testing.T) {
	w := newWorld()
	if err := w.sta.SendReading([]byte("x"), 1, nil); !errors.Is(err, sta.ErrNotJoined) {
		t.Fatalf("err = %v", err)
	}
}

func TestJoinFrameCountsMatchPaper(t *testing.T) {
	// §3.1: "at least 8 frames are exchanged" in the 4-way handshake;
	// ≈20 MAC-layer frames total for the join; "7 higher-layer frames
	// including DHCP and ARP".
	w := newWorld()
	counts := map[string]int{}
	protectedFrames, eapolFrames := 0, 0
	mon := mac.New(w.sched, w.med, "monitor", medium.Position{X: 1, Y: 0},
		dot11.MustParseMAC("02:00:00:00:00:99"), phy.RateHTMCS7, 0, phy.SensitivityWiFi1M, sim.NewRand(9))
	mon.AutoACK = false
	mon.SetRadioOn(true)
	mon.Monitor = observe(func(f dot11.Frame) {
		kind := f.Kind().String()
		if kind == "beacon" {
			return // periodic, not part of the join exchange
		}
		counts[kind]++
		if d, ok := f.(*dot11.Data); ok && len(d.Payload) > 0 {
			if d.Header.FC.Protected {
				if d.Header.FC.FromDS && d.RA().IsGroup() {
					return // AP's GTK group relay: not client join cost
				}
				// Post-handshake traffic (DHCP/ARP) is CCMP ciphertext;
				// a passive monitor sees only that it is protected.
				protectedFrames++
				return
			}
			if et, _, err := netstack.UnwrapSNAP(d.Payload); err == nil && et == netstack.EtherTypeEAPOL {
				eapolFrames++
			}
		}
	})

	if err := w.join(t); err != nil {
		t.Fatal(err)
	}

	if eapolFrames != 4 {
		t.Errorf("EAPOL frames = %d, want 4", eapolFrames)
	}
	// 4 EAPOL + their 4 ACKs = the paper's "at least 8 frames".
	if eapolFrames+4 < 8 {
		t.Errorf("4-way exchange %d frames, want ≥8", eapolFrames+4)
	}
	// The 7 higher-layer frames (4 DHCP + 3 ARP) ride encrypted.
	if protectedFrames != 7 {
		t.Errorf("protected frames = %d, want 7 (4 DHCP + 3 ARP under CCMP)", protectedFrames)
	}
	// MAC-layer total (everything on air except beacons, the higher-layer
	// data frames, and their ACKs): mgmt + EAPOL data + ACKs.
	total := 0
	for _, v := range counts {
		total += v
	}
	// Four of the data frames on air are the AP's unACKed GTK group
	// relays of the client's broadcast frames (two DHCP, two ARP);
	// exclude them like beacons.
	macLayer := total - 2*protectedFrames - 4
	if macLayer < 19 {
		t.Errorf("MAC-layer join frames = %d, paper counts ≈20 (we emit 19: broadcast probe draws no ACK)", macLayer)
	}
	if counts["ack"] == 0 {
		t.Error("no ACKs observed")
	}
	for _, kind := range []string{"probe-req", "probe-resp", "auth", "assoc-req", "assoc-resp"} {
		if counts[kind] == 0 {
			t.Errorf("no %s frame observed", kind)
		}
	}
}

func TestWiFiDCFullCycleEnergy(t *testing.T) {
	// The Figure 3a / Table 1 WiFi-DC episode: boot from deep sleep, full
	// rejoin, one datagram, back to deep sleep. Table 1: 238.2 mJ.
	w := newWorld()
	dev := w.sta.Dev

	// 200 ms of deep sleep before the wake, as in the figure.
	var txOK *bool
	w.sched.After(200*sim.Millisecond.Duration(), func() {
		dev.SetState(esp32.StateCPUActive)
		dev.PlaySegments(esp32.BootWiFi(), func() {
			w.sta.Join(func(err error) {
				if err != nil {
					t.Errorf("join: %v", err)
					return
				}
				w.sta.SendReading([]byte("temp=21.5"), 5683, func(ok bool) {
					txOK = &ok
					w.sta.Sleep()
				})
			})
		})
	})
	w.sched.RunUntil(3 * sim.Second)

	if txOK == nil || !*txOK {
		t.Fatal("transmission never completed")
	}
	energy := dev.Energy()
	t.Logf("WiFi-DC episode energy: %.1f mJ (paper: 238.2 mJ)", energy.Milli())
	if energy < units.Scale(units.MilliJoules(238.2), 0.85) || energy > units.Scale(units.MilliJoules(238.2), 1.15) {
		t.Errorf("episode energy %.1f mJ outside ±15%% of 238.2 mJ", energy.Milli())
	}
	// The TX instant lands in the paper's 1.6–1.9 s window.
	var txAt sim.Time
	for _, m := range dev.Marks() {
		if m.Label == "Tx" {
			txAt = m.At
		}
	}
	t.Logf("data TX at %v (paper: ≈1.78 s)", txAt)
	if txAt < 1200*sim.Millisecond || txAt > 2*sim.Second {
		t.Errorf("TX at %v, want within the Figure 3a window", txAt)
	}
	// Device back in deep sleep.
	if dev.GetState() != esp32.StateDeepSleep {
		t.Error("device not back in deep sleep")
	}
}

func TestWiFiPSEpisodeEnergy(t *testing.T) {
	// Table 1 WiFi-PS: 19.8 mJ per message from the power-save idle state.
	w := newWorld()
	if err := w.join(t); err != nil {
		t.Fatal(err)
	}
	var psOK *bool
	w.sta.EnterPowerSave(func(ok bool) { psOK = &ok })
	w.sched.RunFor(sim.Second.Duration())
	if psOK == nil || !*psOK {
		t.Fatal("power-save entry failed")
	}
	if w.sta.Dev.GetState() != esp32.StateWiFiPSIdle {
		t.Fatalf("device state %v", w.sta.Dev.GetState())
	}

	before := w.sta.Dev.Energy()
	start := w.sched.Now()
	var txOK *bool
	if err := w.sta.SendReadingPS([]byte("temp=21.5"), 5683, func(ok bool) { txOK = &ok }); err != nil {
		t.Fatal(err)
	}
	w.sched.RunFor(sim.Second.Duration())
	if txOK == nil || !*txOK {
		t.Fatal("PS transmission failed")
	}
	episodeIdle := units.Energy(units.Power(esp32.Voltage, esp32.StateCurrent(esp32.StateWiFiPSIdle)), w.sched.Now().Sub(start))
	energy := w.sta.Dev.Energy() - before - episodeIdle // subtract the idle floor outside the episode
	t.Logf("WiFi-PS episode energy: %.1f mJ above idle (paper: 19.8 mJ)", energy.Milli())
	if energy < units.Scale(units.MilliJoules(19.8), 0.8) || energy > units.Scale(units.MilliJoules(19.8), 1.2) {
		t.Errorf("PS episode energy %.1f mJ outside ±20%% of 19.8 mJ", energy.Milli())
	}
	if w.sta.Dev.GetState() != esp32.StateWiFiPSIdle {
		t.Error("device did not return to PS idle")
	}
}

func TestSecondJoinAfterSleepWorks(t *testing.T) {
	// WiFi-DC repeats the join every cycle; the second cycle must behave
	// like the first (fresh supplicant, fresh DHCP transaction).
	w := newWorld()
	for cycle := 0; cycle < 3; cycle++ {
		if err := w.join(t); err != nil {
			t.Fatalf("cycle %d join: %v", cycle, err)
		}
		var ok *bool
		w.sta.SendReading([]byte(fmt.Sprintf("cycle-%d", cycle)), 5683, func(o bool) { ok = &o })
		w.sched.RunFor(sim.Second.Duration())
		if ok == nil || !*ok {
			t.Fatalf("cycle %d tx failed", cycle)
		}
		w.sta.Sleep()
		w.sched.RunFor(sim.Second.Duration())
	}
	if w.ap.Stats.HandshakesDone != 3 {
		t.Fatalf("handshakes = %d, want 3", w.ap.Stats.HandshakesDone)
	}
}

func TestJoinBusyRejected(t *testing.T) {
	w := newWorld()
	w.sta.Dev.SetState(esp32.StateCPUActive)
	w.sta.Join(func(error) {})
	var second *error
	w.sta.Join(func(err error) { second = &err })
	if second == nil || !errors.Is(*second, sta.ErrBusy) {
		t.Fatal("concurrent join not rejected")
	}
	w.sched.RunUntil(10 * sim.Second)
}

func TestDataFramesAreCCMPProtected(t *testing.T) {
	// After the 4-way handshake every data frame on the air must carry
	// the Protected bit and CCMP ciphertext: a passive monitor cannot
	// read the sensor value, and the AP rejects cleartext injections.
	w := newWorld()
	var protectedPayloads [][]byte
	mon := mac.New(w.sched, w.med, "monitor", medium.Position{X: 1, Y: 0},
		dot11.MustParseMAC("02:00:00:00:00:97"), phy.RateHTMCS7, 0, phy.SensitivityWiFi1M, sim.NewRand(4))
	mon.AutoACK = false
	mon.SetRadioOn(true)
	mon.Monitor = observe(func(f dot11.Frame) {
		if d, ok := f.(*dot11.Data); ok && d.Header.FC.Protected {
			protectedPayloads = append(protectedPayloads, append([]byte(nil), d.Payload...))
		}
	})
	if err := w.join(t); err != nil {
		t.Fatal(err)
	}
	var outcome *bool
	secret := []byte("super-secret-reading-42")
	if err := w.sta.SendReading(secret, 5683, func(ok bool) { outcome = &ok }); err != nil {
		t.Fatal(err)
	}
	w.sched.RunFor(sim.Second.Duration())
	if outcome == nil || !*outcome {
		t.Fatal("reading not delivered")
	}
	if len(protectedPayloads) < 8 {
		t.Fatalf("only %d protected frames on the air (want DHCP+ARP+reading)", len(protectedPayloads))
	}
	for i, p := range protectedPayloads {
		if bytes.Contains(p, secret) {
			t.Fatalf("frame %d leaks the plaintext reading", i)
		}
		if bytes.Contains(p, []byte{0xaa, 0xaa, 0x03, 0, 0, 0}) {
			t.Fatalf("frame %d leaks a cleartext SNAP header", i)
		}
	}

	// A cleartext data injection from the (secured) station's address must
	// be dropped by the AP, not delivered.
	uplinkBefore := w.ap.Stats.UplinkFrames
	forged := dot11.NewDataToAP(w.ap.Cfg.BSSID, staAddr, w.ap.Cfg.BSSID,
		netstack.WrapSNAP(netstack.EtherTypeIPv4, []byte("forged")))
	injector := mac.New(w.sched, w.med, "injector", medium.Position{X: 1, Y: 1},
		staAddr, phy.RateHTMCS7, 0, phy.SensitivityWiFi1M, sim.NewRand(6))
	injector.SetRadioOn(true)
	injector.Send(forged, nil)
	w.sched.RunFor(sim.Second.Duration())
	if w.ap.Stats.UplinkFrames != uplinkBefore {
		t.Fatal("AP accepted a cleartext frame from a secured station")
	}
	if w.ap.Stats.CCMPDrops == 0 {
		t.Fatal("CCMP drop not counted")
	}
}

func TestSnifferDecryptsJoinWithPassphrase(t *testing.T) {
	// The Wireshark trick: a passive monitor that knows the PSK captures
	// the handshake nonces, derives the PTK, and reads the "encrypted"
	// DHCP exchange — validating that our on-air CCMP bytes are the real
	// construction, not an opaque simulation flag.
	w := newWorld()
	sniffer := crypto80211.NewSniffer("correct horse battery staple", "lab-net")
	var plaintexts [][]byte
	mon := mac.New(w.sched, w.med, "sniffer", medium.Position{X: 1, Y: 0},
		dot11.MustParseMAC("02:00:00:00:00:96"), phy.RateHTMCS7, 0, phy.SensitivityWiFi1M, sim.NewRand(8))
	mon.AutoACK = false
	mon.SetRadioOn(true)
	mon.Monitor = observe(func(f dot11.Frame) {
		if msdu, ok := sniffer.Observe(f); ok {
			plaintexts = append(plaintexts, append([]byte(nil), msdu...))
		}
	})

	if err := w.join(t); err != nil {
		t.Fatal(err)
	}
	var outcome *bool
	w.sta.SendReading([]byte("temp=21.5"), 5683, func(ok bool) { outcome = &ok })
	w.sched.RunFor(sim.Second.Duration())
	if outcome == nil || !*outcome {
		t.Fatal("reading not delivered")
	}

	if sniffer.Stats.HandshakesSeen != 1 {
		t.Fatalf("sniffer saw %d handshakes", sniffer.Stats.HandshakesSeen)
	}
	if !sniffer.CanDecrypt(w.ap.Cfg.BSSID, staAddr) {
		t.Fatal("sniffer has no PTK for the pair")
	}
	// DHCP (4) + ARP (3) + the reading (1) = 8 client↔AP MSDUs, plus the
	// AP's four GTK-protected re-broadcasts of the client's broadcast
	// frames (DISCOVER, REQUEST, ARP announce, ARP request) = 12.
	if len(plaintexts) != 12 {
		t.Fatalf("decrypted %d MSDUs, want 12", len(plaintexts))
	}
	// The decrypted MSDUs are real protocol bytes: find the DHCP
	// DISCOVER and the final sensor reading.
	var sawDiscover, sawReading bool
	for _, msdu := range plaintexts {
		et, payload, err := netstack.UnwrapSNAP(msdu)
		if err != nil {
			t.Fatalf("decrypted MSDU is not SNAP: %x", msdu)
		}
		switch et {
		case netstack.EtherTypeIPv4:
			if _, body, err := netstack.ParseIPv4(payload); err == nil {
				if udpHdr, data, err := netstack.ParseUDP(body); err == nil {
					if udpHdr.DstPort == netstack.DHCPServerPort {
						if msg, err := netstack.ParseDHCP(data); err == nil {
							if tp, _ := msg.Type(); tp == netstack.DHCPDiscover {
								sawDiscover = true
							}
						}
					}
					if udpHdr.DstPort == 5683 && string(data) == "temp=21.5" {
						sawReading = true
					}
				}
			}
		}
	}
	if !sawDiscover {
		t.Error("sniffer never recovered the DHCP DISCOVER")
	}
	if !sawReading {
		t.Error("sniffer never recovered the sensor reading plaintext")
	}
	if sniffer.Stats.Undecryptable != 0 {
		t.Errorf("%d undecryptable frames with the right passphrase", sniffer.Stats.Undecryptable)
	}
}

func TestSnifferWrongPassphraseDecryptsNothing(t *testing.T) {
	w := newWorld()
	sniffer := crypto80211.NewSniffer("wrong passphrase entirely", "lab-net")
	decrypted := 0
	mon := mac.New(w.sched, w.med, "sniffer", medium.Position{X: 1, Y: 0},
		dot11.MustParseMAC("02:00:00:00:00:95"), phy.RateHTMCS7, 0, phy.SensitivityWiFi1M, sim.NewRand(8))
	mon.AutoACK = false
	mon.SetRadioOn(true)
	mon.Monitor = observe(func(f dot11.Frame) {
		if _, ok := sniffer.Observe(f); ok {
			decrypted++
		}
	})
	if err := w.join(t); err != nil {
		t.Fatal(err)
	}
	if decrypted != 0 {
		t.Fatalf("wrong passphrase decrypted %d frames", decrypted)
	}
	// M2's MIC fails under the wrong PMK, so the handshake never counts.
	if sniffer.Stats.HandshakesSeen != 0 {
		t.Fatalf("wrong passphrase counted %d handshakes", sniffer.Stats.HandshakesSeen)
	}
	if sniffer.Stats.Undecryptable == 0 {
		t.Fatal("no undecryptable frames counted")
	}
}

func TestGroupRelayDecryptsWithGTK(t *testing.T) {
	// Station B must hear station A's broadcast ARP announce, relayed by
	// the AP under the group key B received in its own message 3.
	w := newWorld()
	if err := w.join(t); err != nil {
		t.Fatal(err)
	}
	b := sta.New(w.sched, w.med, sta.Config{
		SSID:       "lab-net",
		Passphrase: "correct horse battery staple",
		Addr:       dot11.MustParseMAC("02:57:00:00:00:03"),
		Position:   medium.Position{X: 2, Y: 1},
		Seed:       0x576,
	})
	var joinErr *error
	b.Dev.SetState(esp32.StateCPUActive)
	b.Join(func(err error) { joinErr = &err })
	w.sched.RunUntil(w.sched.Now() + 10*sim.Second)
	if joinErr == nil || *joinErr != nil {
		t.Fatalf("station B join: %v", joinErr)
	}
	relaysBefore := w.ap.Stats.GroupRelays

	// A broadcasts a datagram; the AP floods it; B receives it decrypted
	// via its GTK session.
	var got []byte
	b.OnDatagram = func(src, dst netstack.IP, sp, dp uint16, payload []byte) {
		if dp == 9999 {
			got = payload
		}
	}
	if err := w.sta.SendDatagram(netstack.IPBroadcast, 40000, 9999, []byte("hello-bss"), nil); err != nil {
		t.Fatal(err)
	}
	w.sched.RunFor(sim.Second.Duration())
	if w.ap.Stats.GroupRelays != relaysBefore+1 {
		t.Fatalf("group relays = %d, want %d", w.ap.Stats.GroupRelays, relaysBefore+1)
	}
	if string(got) != "hello-bss" {
		t.Fatalf("station B received %q via the GTK", got)
	}
}

func TestStationHandlesDeauth(t *testing.T) {
	w := newWorld()
	if err := w.join(t); err != nil {
		t.Fatal(err)
	}
	var reason *dot11.ReasonCode
	w.sta.OnDisconnect = func(r dot11.ReasonCode) { reason = &r }

	// The AP expels the station (e.g. admin action).
	d := &dot11.Deauth{Reason: dot11.ReasonInactivity}
	d.Header.Addr1 = staAddr
	d.Header.Addr2 = w.ap.Cfg.BSSID
	d.Header.Addr3 = w.ap.Cfg.BSSID
	w.ap.Port.Send(d, nil)
	w.sched.RunFor(sim.Second.Duration())

	if reason == nil || *reason != dot11.ReasonInactivity {
		t.Fatalf("OnDisconnect reason = %v", reason)
	}
	if w.sta.Joined() {
		t.Fatal("station still claims joined")
	}
	if err := w.sta.SendReading([]byte("x"), 1, nil); !errors.Is(err, sta.ErrNotJoined) {
		t.Fatalf("post-deauth send: %v", err)
	}
}

// TestDeauthFailsPendingJoinAtOnce sends the AP's deauth at three points
// of a join where no management reply is awaited: right after the probe
// response, during the network-stack setup that follows the 4-way
// handshake, and during the ARP wait. Each time the join must fail with
// ErrHandshake within 10 ms instead of going on or timing out.
func TestDeauthFailsPendingJoinAtOnce(t *testing.T) {
	for _, c := range []struct {
		name  string
		ready func(w *world) bool
	}{
		{"after-probe-response", func(w *world) bool { return w.sta.BSSID() != (dot11.MAC{}) }},
		{"stack-setup", func(w *world) bool { return w.ap.Stats.HandshakesDone == 1 }},
		{"arp-wait", func(w *world) bool { return w.sta.IP != netstack.IPZero }},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld()
			var result *error
			var endedAt sim.Time
			w.sta.Dev.SetState(esp32.StateCPUActive)
			w.sta.Join(func(err error) { result, endedAt = &err, w.sched.Now() })
			for !c.ready(w) {
				if result != nil {
					t.Fatalf("join ended before the deauth point: %v", *result)
				}
				if !w.sched.Step() {
					t.Fatal("simulation ran dry before the deauth point")
				}
			}
			d := &dot11.Deauth{Reason: dot11.ReasonUnspecified}
			d.Header.Addr1 = staAddr
			d.Header.Addr2 = w.ap.Cfg.BSSID
			d.Header.Addr3 = w.ap.Cfg.BSSID
			if err := w.ap.Port.Send(d, nil); err != nil {
				t.Fatal(err)
			}
			sent := w.sched.Now()
			w.sched.RunUntil(sent + 5*sim.Second)
			switch {
			case result == nil:
				t.Fatal("join never completed")
			case !errors.Is(*result, sta.ErrHandshake):
				t.Fatalf("join ended %v after the deauth with %v, want ErrHandshake", endedAt.Sub(sent), *result)
			case endedAt.Sub(sent) > 10*time.Millisecond:
				t.Fatalf("join failed %v after the deauth, want within 10ms", endedAt.Sub(sent))
			}
			if w.sta.Joined() || w.sta.Port.Transceiver().On() {
				t.Fatal("station left joined or with its radio on after the failed join")
			}
		})
	}
}

func TestForeignDeauthIgnored(t *testing.T) {
	w := newWorld()
	if err := w.join(t); err != nil {
		t.Fatal(err)
	}
	// A deauth claiming a different BSS must not tear anything down.
	d := &dot11.Deauth{Reason: dot11.ReasonLeaving}
	d.Header.Addr1 = staAddr
	d.Header.Addr2 = dot11.MustParseMAC("aa:aa:aa:aa:aa:99")
	d.Header.Addr3 = dot11.MustParseMAC("aa:aa:aa:aa:aa:99")
	forger := mac.New(w.sched, w.med, "forger", medium.Position{X: 1, Y: 1},
		dot11.MustParseMAC("aa:aa:aa:aa:aa:99"), phy.RateHTMCS7, 0, phy.SensitivityWiFi1M, sim.NewRand(3))
	forger.SetRadioOn(true)
	forger.Send(d, nil)
	w.sched.RunFor(sim.Second.Duration())
	if !w.sta.Joined() {
		t.Fatal("foreign deauth tore down the association")
	}
}

func TestFiveStationsJoinConcurrently(t *testing.T) {
	// Five clients wake within 150 ms of each other and all complete the
	// full join — interleaved probe/auth/assoc exchanges, five overlapping
	// 4-way handshakes and DHCP transactions on one channel.
	w := newWorld()
	const n = 5
	stations := []*sta.Station{w.sta}
	for i := 1; i < n; i++ {
		stations = append(stations, sta.New(w.sched, w.med, sta.Config{
			SSID:       "lab-net",
			Passphrase: "correct horse battery staple",
			Addr:       dot11.MustParseMAC(fmt.Sprintf("02:57:00:00:01:%02x", i)),
			Position:   medium.Position{X: 2 + float64(i)*0.5, Y: float64(i)},
			Seed:       uint64(0x1000 + i),
		}))
	}
	errs := make([]*error, n)
	for i, s := range stations {
		i, s := i, s
		w.sched.After(time.Duration(i)*30*time.Millisecond, func() {
			s.Dev.SetState(esp32.StateCPUActive)
			s.Join(func(err error) { errs[i] = &err })
		})
	}
	w.sched.RunUntil(15 * sim.Second)

	ips := map[netstack.IP]int{}
	for i, s := range stations {
		if errs[i] == nil {
			t.Fatalf("station %d never finished", i)
		}
		if *errs[i] != nil {
			t.Fatalf("station %d join: %v", i, *errs[i])
		}
		if !s.Joined() {
			t.Fatalf("station %d not joined", i)
		}
		ips[s.IP]++
		info, ok := w.ap.Station(s.Cfg.Addr)
		if !ok || !info.Secured {
			t.Fatalf("AP does not see station %d secured", i)
		}
	}
	if len(ips) != n {
		t.Fatalf("lease collision: %v", ips)
	}
	if w.ap.Stats.HandshakesDone != n {
		t.Fatalf("handshakes = %d", w.ap.Stats.HandshakesDone)
	}
	// Distinct AIDs.
	aids := map[uint16]bool{}
	for _, s := range stations {
		if aids[s.AID] {
			t.Fatalf("duplicate AID %d", s.AID)
		}
		aids[s.AID] = true
	}
	// And each can transmit.
	oks := 0
	for _, s := range stations {
		s.SendReading([]byte("x"), 5683, func(ok bool) {
			if ok {
				oks++
			}
		})
	}
	w.sched.RunFor(2 * sim.Second.Duration())
	if oks != n {
		t.Fatalf("%d of %d post-join transmissions succeeded", oks, n)
	}
}

// TestJoinPhaseSpans verifies the join state machine emits one B/E slice
// per phase on the MAC track — probe, auth, assoc, 4-way, dhcp, arp, in
// that order — with every opened slice closed by the time Join completes,
// so the Figure-3a timeline shows the phases as nested spans instead of
// bare instants.
func TestJoinPhaseSpans(t *testing.T) {
	w := newWorld()
	rec := obs.NewRecorder()
	w.sta.TraceTo(rec)
	if err := w.join(t); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The phase names are unique to the join slices (the MAC's own frame
	// spans are "tx auth", "rx assoc-resp", ... — never the bare phase
	// name), so ordered substring search pins both presence and order.
	last := -1
	for _, phase := range []string{"probe", "auth", "assoc", "4-way", "dhcp", "arp"} {
		idx := strings.Index(out, `"name":"`+phase+`"}`)
		if idx < 0 {
			t.Fatalf("no slice named %q in the trace:\n%s", phase, out)
		}
		lineStart := strings.LastIndexByte(out[:idx], '\n') + 1
		if !strings.HasPrefix(out[lineStart:], `{"ph":"B","pid":1,"tid":2,`) { // mac track is tid 2
			t.Fatalf("%q slice is not a B event on the mac track: %s", phase, out[lineStart:idx+24])
		}
		if idx <= last {
			t.Fatalf("phase %q opens out of order", phase)
		}
		last = idx
	}
	// Every Begin on the mac track must have a matching End: the join left
	// no phase running off the edge of the trace.
	begins := strings.Count(out, `"ph":"B","pid":1,"tid":2`)
	ends := strings.Count(out, `"ph":"E","pid":1,"tid":2`)
	if begins != ends {
		t.Fatalf("mac track has %d Begins but %d Ends", begins, ends)
	}
}

// TestJoinFailureClosesPhaseSpan verifies a failed join (no AP on the air)
// still closes its open phase slice on the way out.
func TestJoinFailureClosesPhaseSpan(t *testing.T) {
	sched := sim.New()
	med := medium.New(sched, phy.WiFi24Channel(6))
	s := sta.New(sched, med, sta.Config{
		SSID: "nobody-home", Passphrase: "x", Addr: staAddr,
	})
	rec := obs.NewRecorder()
	s.TraceTo(rec)
	var result *error
	s.Dev.SetState(esp32.StateCPUActive)
	s.Join(func(err error) { result = &err })
	sched.RunUntil(sched.Now() + 10*sim.Second)
	if result == nil || !errors.Is(*result, sta.ErrNoAP) {
		t.Fatalf("join result = %v, want ErrNoAP", result)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	begins := strings.Count(out, `"ph":"B","pid":1,"tid":2`)
	ends := strings.Count(out, `"ph":"E","pid":1,"tid":2`)
	if begins == 0 {
		t.Fatal("failed join recorded no phase slice at all")
	}
	if begins != ends {
		t.Fatalf("failed join left a phase open: %d Begins, %d Ends", begins, ends)
	}
}
