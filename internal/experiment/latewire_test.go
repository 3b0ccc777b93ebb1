package experiment

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"wile/internal/ap"
	"wile/internal/core"
	"wile/internal/dot11"
	"wile/internal/esp32"
	"wile/internal/mac"
	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
	"wile/internal/sta"
)

// observer is a component that wires its counters into a registry.
type observer interface{ Observe(reg *obs.Registry) }

// macWant maps the mac.* counter names to the port Stats fields they report.
func macWant(s mac.Stats) map[string]int {
	return map[string]int{
		"mac.tx_frames":     s.TxFrames,
		"mac.tx_acks":       s.TxACKs,
		"mac.rx_frames":     s.RxFrames,
		"mac.rx_fcs_errors": s.RxFCSErrors,
		"mac.rx_duplicates": s.RxDuplicates,
		"mac.retries":       s.Retries,
		"mac.drops":         s.Drops,
	}
}

func sensorWant(s *core.Sensor) map[string]int {
	want := macWant(s.Port.Stats)
	want["wile.tx_messages"] = s.Stats.Messages
	want["wile.tx_fragments"] = s.Stats.Fragments
	want["wile.rx_downlinks"] = s.Stats.Downlinks
	return want
}

// joinWorld builds an AP and a station. Its step joins the station, or
// once joined sends one reading, then runs five seconds of beacons.
func joinWorld() (*ap.AP, *sta.Station, func()) {
	b := newWiFiBed(nil)
	step := func() {
		if b.sta.Joined() {
			_ = b.sta.SendReading([]byte("temp=17.0"), 5683, nil)
		} else {
			b.sta.Dev.SetState(esp32.StateCPUActive)
			b.sta.Join(func(error) {})
		}
		b.sched.RunFor(5 * time.Second)
	}
	return b.ap, b.sta, step
}

// snapshotCounters decodes the counters object of reg's JSON snapshot.
func snapshotCounters(t *testing.T, reg *obs.Registry) map[string]int {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc.Counters
}

// TestLateWiredCountersMatchStats wires each counter-keeping component into
// a registry only after it has carried traffic, then drives more. The
// registry must report exactly the counters the component keeps, each
// equal to its Stats field: the full totals, however late the wiring.
func TestLateWiredCountersMatchStats(t *testing.T) {
	for _, tc := range []struct {
		name string
		// build returns the component, one round of traffic, and the
		// counters its Stats say the registry must read.
		build func() (c observer, step func(), want func() map[string]int)
	}{
		{"mac.Port", func() (observer, func(), func() map[string]int) {
			w := newWorld(nil)
			addrA, addrB := dot11.LocalMAC(0xa), dot11.LocalMAC(0xb)
			a := mac.New(w.sched, w.med, "a", apPos, addrA, phy.RateOFDM24, 0, phy.SensitivityWiFi1M, sim.NewRand(1))
			b := mac.New(w.sched, w.med, "b", devicePos, addrB, phy.RateOFDM24, 0, phy.SensitivityWiFi1M, sim.NewRand(2))
			a.SetRadioOn(true)
			b.SetRadioOn(true)
			step := func() {
				// Unicast both ways: a transmits data and ACKs, and
				// receives data.
				_ = a.Send(dot11.NewDataToAP(addrB, addrA, addrB, []byte("up")), nil)
				_ = b.Send(dot11.NewDataToAP(addrA, addrB, addrA, []byte("down")), nil)
				w.sched.RunFor(time.Second)
			}
			return a, step, func() map[string]int { return macWant(a.Stats) }
		}},
		{"core.Sensor", func() (observer, func(), func() map[string]int) {
			w := newWorld(nil)
			s := core.NewSensor(w.sched, w.med, core.SensorConfig{DeviceID: 0x1001, Position: devicePos, SkipBoot: true})
			step := func() {
				s.TransmitOnce([]core.Reading{core.Temperature(17)}, nil)
				w.sched.RunFor(time.Second)
			}
			return s, step, func() map[string]int { return sensorWant(s) }
		}},
		{"core.Scanner", func() (observer, func(), func() map[string]int) {
			w := newWorld(nil)
			s := core.NewSensor(w.sched, w.med, core.SensorConfig{DeviceID: 0x1001, Position: devicePos, SkipBoot: true})
			sc := core.NewScanner(w.sched, w.med, core.ScannerConfig{Position: apPos})
			sc.Start()
			step := func() {
				s.TransmitOnce([]core.Reading{core.Temperature(17)}, nil)
				w.sched.RunFor(time.Second)
			}
			return sc, step, func() map[string]int {
				want := macWant(sc.Port.Stats)
				want["wile.beacons_seen"] = sc.Stats.BeaconsSeen
				want["wile.other_beacons"] = sc.Stats.OtherBeacons
				want["wile.rx_messages"] = sc.Stats.Messages
				want["wile.rx_duplicates"] = sc.Stats.Duplicates
				want["wile.decode_errors"] = sc.Stats.DecodeErrors
				want["wile.encrypted_drops"] = sc.Stats.EncryptedDrops
				return want
			}
		}},
		{"core.ReliableSensor", func() (observer, func(), func() map[string]int) {
			w := newWorld(nil)
			s := core.NewSensor(w.sched, w.med, core.SensorConfig{
				DeviceID: 0x1002, Position: devicePos, Period: time.Second,
				RxWindow: 20 * time.Millisecond, SkipBoot: true,
			})
			r := core.NewReliableSensor(s, 5)
			base := core.NewResponder(w.sched, w.med, "base", apPos, 6)
			base.AutoAck = true
			base.Port.SetRadioOn(true)
			r.Run()
			step := func() {
				r.Queue([]core.Reading{core.Counter(1)})
				w.sched.RunFor(3 * time.Second)
			}
			return r, step, func() map[string]int {
				want := sensorWant(s)
				want["wile.reliable_queued"] = r.Stats.Queued
				want["wile.reliable_delivered"] = r.Stats.Delivered
				want["wile.reliable_retransmitted"] = r.Stats.Retransmitted
				want["wile.reliable_given_up"] = r.Stats.GivenUp
				return want
			}
		}},
		{"ap.AP", func() (observer, func(), func() map[string]int) {
			a, _, step := joinWorld()
			return a, step, func() map[string]int { return macWant(a.Port.Stats) }
		}},
		{"sta.Station", func() (observer, func(), func() map[string]int) {
			_, st, step := joinWorld()
			return st, step, func() map[string]int { return macWant(st.Port.Stats) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, step, want := tc.build()
			step()
			traffic := 0
			for _, n := range want() {
				traffic += n
			}
			if traffic == 0 {
				t.Fatal("no counted traffic before wiring")
			}
			reg := obs.NewRegistry()
			c.Observe(reg)
			step()
			got, wantNow := snapshotCounters(t, reg), want()
			for name, n := range wantNow {
				if g, ok := got[name]; !ok || g != n {
					t.Errorf("%s = %d (present %v), Stats say %d", name, g, ok, n)
				}
			}
			for name := range got {
				if _, ok := wantNow[name]; !ok {
					t.Errorf("registry has %s, which the component keeps no Stats field for", name)
				}
			}
		})
	}
}
