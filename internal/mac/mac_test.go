package mac

import (
	"testing"
	"time"

	"wile/internal/dot11"
	"wile/internal/medium"
	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
)

type fixture struct {
	sched *sim.Scheduler
	med   *medium.Medium
}

func pos(x, y float64) medium.Position { return medium.Position{X: x, Y: y} }

func newFixture() *fixture {
	s := sim.New()
	return &fixture{sched: s, med: medium.New(s, phy.WiFi24Channel(6))}
}

func (fx *fixture) port(name string, pos medium.Position, addr dot11.MAC, seed uint64) *Port {
	p := New(fx.sched, fx.med, name, pos, addr, phy.RateOFDM24, 0, phy.SensitivityWiFi1M, sim.NewRand(seed))
	p.SetRadioOn(true)
	return p
}

var (
	addrA = dot11.MustParseMAC("02:00:00:00:00:0a")
	addrB = dot11.MustParseMAC("02:00:00:00:00:0b")
	addrC = dot11.MustParseMAC("02:00:00:00:00:0c")
)

func TestUnicastDataWithAutoACK(t *testing.T) {
	fx := newFixture()
	a := fx.port("a", pos(0, 0), addrA, 1)
	b := fx.port("b", pos(2, 0), addrB, 2)

	// The frame goes back to the decode pool when the Handler returns, so
	// the Handler keeps copies of what the test reads.
	var rxPayloads []string
	b.Handler = func(f dot11.Frame, rx medium.Reception) {
		if d, ok := f.(*dot11.Data); ok {
			rxPayloads = append(rxPayloads, string(d.Payload))
		} else {
			rxPayloads = append(rxPayloads, f.Kind().String())
		}
	}

	var outcome *bool
	f := dot11.NewDataToAP(addrB, addrA, addrB, []byte("payload"))
	if err := a.Send(f, func(ok bool) { outcome = &ok }); err != nil {
		t.Fatal(err)
	}
	fx.sched.Run()

	if outcome == nil || !*outcome {
		t.Fatal("sender did not report ACKed delivery")
	}
	if len(rxPayloads) != 1 || rxPayloads[0] != "payload" {
		t.Fatalf("receiver got %q, want one data frame carrying \"payload\"", rxPayloads)
	}
	if b.Stats.TxACKs != 1 {
		t.Fatalf("receiver sent %d ACKs, want 1", b.Stats.TxACKs)
	}
	if a.Stats.Retries != 0 {
		t.Fatalf("clean exchange took %d retries", a.Stats.Retries)
	}
}

func TestBroadcastNeedsNoACK(t *testing.T) {
	fx := newFixture()
	a := fx.port("a", pos(0, 0), addrA, 1)
	b := fx.port("b", pos(2, 0), addrB, 2)

	got := 0
	b.Handler = func(f dot11.Frame, rx medium.Reception) { got++ }

	var outcome *bool
	beacon := dot11.NewBeacon(addrA, 100, dot11.CapESS, dot11.Elements{dot11.SSIDElement("")})
	if err := a.Send(beacon, func(ok bool) { outcome = &ok }); err != nil {
		t.Fatal(err)
	}
	fx.sched.Run()

	if outcome == nil || !*outcome {
		t.Fatal("broadcast not reported delivered")
	}
	if got != 1 {
		t.Fatalf("receiver got %d beacons", got)
	}
	if b.Stats.TxACKs != 0 {
		t.Fatal("broadcast was ACKed")
	}
}

func TestRetryThenDropWhenPeerDeaf(t *testing.T) {
	fx := newFixture()
	a := fx.port("a", pos(0, 0), addrA, 1)
	b := fx.port("b", pos(2, 0), addrB, 2)
	b.SetRadioOn(false) // peer sleeps: no ACKs ever

	var outcome *bool
	f := dot11.NewDataToAP(addrB, addrA, addrB, []byte("x"))
	if err := a.Send(f, func(ok bool) { outcome = &ok }); err != nil {
		t.Fatal(err)
	}
	fx.sched.Run()

	if outcome == nil || *outcome {
		t.Fatal("undeliverable frame not reported failed")
	}
	if a.Stats.Retries != RetryLimit+1 {
		t.Fatalf("retries = %d, want %d", a.Stats.Retries, RetryLimit+1)
	}
	if a.Stats.Drops != 1 {
		t.Fatalf("drops = %d", a.Stats.Drops)
	}
	// Original + RetryLimit retransmissions on the air.
	if a.Stats.TxFrames != RetryLimit+1 {
		t.Fatalf("TxFrames = %d, want %d", a.Stats.TxFrames, RetryLimit+1)
	}
}

func TestRetryBitSetOnRetransmission(t *testing.T) {
	fx := newFixture()
	a := fx.port("a", pos(0, 0), addrA, 1)
	b := fx.port("b", pos(2, 0), addrB, 2)
	b.SetRadioOn(false)
	mon := fx.port("mon", pos(1, 0), addrC, 3)
	mon.AutoACK = false
	var seen []bool
	mon.Monitor = func(f dot11.Frame, rx medium.Reception) obs.DropReason {
		if d, ok := f.(*dot11.Data); ok {
			seen = append(seen, d.Header.FC.Retry)
		}
		return obs.Delivered
	}
	a.Send(dot11.NewDataToAP(addrB, addrA, addrB, []byte("x")), nil)
	fx.sched.Run()
	if len(seen) != RetryLimit+1 {
		t.Fatalf("monitor saw %d attempts", len(seen))
	}
	if seen[0] {
		t.Fatal("first attempt has retry bit set")
	}
	for i := 1; i < len(seen); i++ {
		if !seen[i] {
			t.Fatalf("retry %d missing retry bit", i)
		}
	}
}

// TestLostACKsAreDeduplicated turns the receiver's transmit power down so
// far that none of its ACKs reach the sender, which therefore retransmits
// until RetryLimit. Every copy carries the sequence number the sender
// stamped, and each one after the first carries the retry bit; the
// receiver ACKs every copy, hands the frame up once, and counts and
// resolves the rest as duplicates. A monitor port beside the receiver
// reads the copies off the air (a Monitor on the receiver itself would
// settle their outcomes in place of its duplicate cache). A unicast
// Action frame takes the same path as Data.
func TestLostACKsAreDeduplicated(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame dot11.Frame
	}{
		{"data", dot11.NewDataToAP(addrB, addrA, addrB, []byte("x"))},
		{"action", func() dot11.Frame {
			act := dot11.NewVendorAction(addrA, [3]byte{0x02, 0x57, 0x4c}, []byte("x"))
			act.Header.Addr1 = addrB
			return act
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFixture()
			prov := obs.NewProvenance()
			fx.med.ObserveProvenance(prov)
			a := fx.port("a", pos(0, 0), addrA, 1)
			b := fx.port("b", pos(2, 0), addrB, 2)
			b.Transceiver().TxPower = -100 // b hears a; a never hears b

			type onAir struct {
				seq   uint16
				retry bool
			}
			var copies []onAir
			mon := fx.port("mon", pos(2, 0), addrC, 3)
			mon.AutoACK = false
			mon.Monitor = func(f dot11.Frame, rx medium.Reception) obs.DropReason {
				if f.Kind() == tc.frame.Kind() {
					h := dot11.HeaderOf(f)
					copies = append(copies, onAir{h.Sequence, h.FC.Retry})
				}
				return obs.Delivered
			}
			handled := 0
			b.Handler = func(f dot11.Frame, rx medium.Reception) {
				if f.Kind() == tc.frame.Kind() {
					handled++
				}
			}

			// A group-addressed frame first, so the frame under test is
			// stamped sequence number 1 rather than the zero it starts with.
			a.Send(dot11.NewBeacon(addrA, 100, 0, nil), nil)
			var outcome *bool
			if err := a.Send(tc.frame, func(ok bool) { outcome = &ok }); err != nil {
				t.Fatal(err)
			}
			fx.sched.Run()

			if outcome == nil || *outcome {
				t.Fatal("frame whose ACKs never arrive was not reported failed")
			}
			if len(copies) != RetryLimit+1 {
				t.Fatalf("receiver decoded %d copies, want %d", len(copies), RetryLimit+1)
			}
			for i, c := range copies {
				if c.seq != 1 || c.retry != (i > 0) {
					t.Errorf("copy %d: sequence %d retry %v, want 1 %v", i, c.seq, c.retry, i > 0)
				}
			}
			if handled != 1 {
				t.Errorf("handler saw the frame %d times, want once", handled)
			}
			if b.Stats.TxACKs != RetryLimit+1 {
				t.Errorf("receiver sent %d ACKs, want one per copy (%d)", b.Stats.TxACKs, RetryLimit+1)
			}
			if b.Stats.RxDuplicates != RetryLimit {
				t.Errorf("RxDuplicates = %d, want %d", b.Stats.RxDuplicates, RetryLimit)
			}
			if got := prov.Outcomes()[obs.DropDedupFiltered]; got != RetryLimit {
				t.Errorf("ledger resolved %d copies as dedup_filtered, want %d", got, RetryLimit)
			}
			if err := prov.Verify(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestCarrierSenseDefersSecondSender(t *testing.T) {
	fx := newFixture()
	a := fx.port("a", pos(0, 0), addrA, 1)
	b := fx.port("b", pos(1, 0), addrB, 2)
	rx := fx.port("rx", pos(0.5, 0), addrC, 3)

	var got []dot11.MAC
	rx.Handler = func(f dot11.Frame, r medium.Reception) { got = append(got, f.TA()) }
	rx.AutoACK = false // pure sniffer for group frames

	// Both queue a broadcast beacon at t=0. Without carrier sense they
	// would collide; with the DCF the later winner defers.
	a.Send(dot11.NewBeacon(addrA, 100, 0, nil), nil)
	b.Send(dot11.NewBeacon(addrB, 100, 0, nil), nil)
	fx.sched.Run()

	if len(got) != 2 {
		t.Fatalf("delivered %d of 2 beacons (collision not avoided)", len(got))
	}
	if fx.med.Stats.Collisions != 0 {
		t.Fatalf("%d collisions despite CSMA", fx.med.Stats.Collisions)
	}
}

func TestMonitorModeSeesForeignFrames(t *testing.T) {
	fx := newFixture()
	a := fx.port("a", pos(0, 0), addrA, 1)
	fx.port("b", pos(2, 0), addrB, 2) // peer that ACKs
	mon := fx.port("mon", pos(1, 0), addrC, 3)

	var monitored, handled int
	mon.Monitor = func(f dot11.Frame, rx medium.Reception) obs.DropReason {
		monitored++
		return obs.Delivered
	}
	mon.Handler = func(f dot11.Frame, rx medium.Reception) { handled++ }

	a.Send(dot11.NewDataToAP(addrB, addrA, addrB, []byte("secret")), nil)
	fx.sched.Run()

	// Monitor sees the data frame and b's ACK; the normal handler sees
	// neither (unicast to someone else).
	if monitored != 2 {
		t.Fatalf("monitor saw %d frames, want 2 (data + ACK)", monitored)
	}
	if handled != 0 {
		t.Fatalf("handler saw %d foreign frames", handled)
	}
	if mon.Stats.TxACKs != 0 {
		t.Fatal("monitor ACKed a foreign frame")
	}
}

// TestReceiveRecyclesEveryDecodedFrame feeds receive one frame at a time
// and checks that the port owns each frame it decodes: whichever hooks saw
// it — a Handler, a Monitor or both — the frame is back in the decode pool
// when receive returns, so the next decode of its kind reuses it.
func TestReceiveRecyclesEveryDecodedFrame(t *testing.T) {
	data := dot11.NewDataToAP(addrB, addrA, addrB, []byte("x"))
	beacon := dot11.NewBeacon(addrA, 100, 0, nil)
	for _, tc := range []struct {
		name             string
		frame            dot11.Frame
		handler, monitor bool
	}{
		{"handler", data, true, false},
		{"monitor", beacon, false, true},
		{"monitor+handler", beacon, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFixture()
			b := fx.port("b", pos(2, 0), addrB, 2)
			raw, err := dot11.Marshal(tc.frame)
			if err != nil {
				t.Fatal(err)
			}
			// The hooks keep each frame's identity only, to compare it
			// with the next decode; they read nothing after returning.
			var handled, monitored dot11.Frame
			if tc.handler {
				b.Handler = func(f dot11.Frame, rx medium.Reception) { handled = f }
			}
			if tc.monitor {
				b.Monitor = func(f dot11.Frame, rx medium.Reception) obs.DropReason {
					monitored = f
					return obs.Delivered
				}
			}
			b.receive(medium.Reception{Data: raw, Rate: phy.RateOFDM24})
			seen := handled
			if tc.monitor {
				seen = monitored
			}
			if seen == nil || (tc.handler && tc.monitor && handled != monitored) {
				t.Fatalf("hooks saw handler=%v monitor=%v", handled, monitored)
			}
			// Under the race detector sync.Pool deliberately drops items,
			// so reuse is only observable in a normal build.
			if raceEnabled {
				return
			}
			again, err := dot11.Decode(raw)
			if err != nil {
				t.Fatal(err)
			}
			if again != seen {
				t.Errorf("the frame the hooks saw was not back in the decode pool when receive returned")
			}
			dot11.Release(again)
		})
	}
}

func TestSequenceNumbersIncrement(t *testing.T) {
	fx := newFixture()
	a := fx.port("a", pos(0, 0), addrA, 1)
	mon := fx.port("mon", pos(1, 0), addrC, 3)
	var seqs []uint16
	mon.Monitor = func(f dot11.Frame, rx medium.Reception) obs.DropReason {
		if bea, ok := f.(*dot11.Beacon); ok {
			seqs = append(seqs, bea.Header.Sequence)
		}
		return obs.Delivered
	}
	for i := 0; i < 5; i++ {
		a.Send(dot11.NewBeacon(addrA, 100, 0, nil), nil)
	}
	fx.sched.Run()
	if len(seqs) != 5 {
		t.Fatalf("saw %d beacons", len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != (seqs[i-1]+1)&0xfff {
			t.Fatalf("sequence numbers not consecutive: %v", seqs)
		}
	}
}

func TestSendWithRadioOffFails(t *testing.T) {
	fx := newFixture()
	a := fx.port("a", pos(0, 0), addrA, 1)
	a.SetRadioOn(false)
	var outcome *bool
	a.Send(dot11.NewBeacon(addrA, 100, 0, nil), func(ok bool) { outcome = &ok })
	fx.sched.Run()
	if outcome == nil || *outcome {
		t.Fatal("send from powered-off radio reported success")
	}
}

type txRecorder struct {
	bursts []time.Duration
}

func (r *txRecorder) RadioTx(airtime time.Duration) { r.bursts = append(r.bursts, airtime) }

func TestRadioListenerNotified(t *testing.T) {
	fx := newFixture()
	a := fx.port("a", pos(0, 0), addrA, 1)
	b := fx.port("b", pos(2, 0), addrB, 2)
	rec := &txRecorder{}
	a.Radio = rec
	recB := &txRecorder{}
	b.Radio = recB

	a.Send(dot11.NewDataToAP(addrB, addrA, addrB, []byte("x")), nil)
	fx.sched.Run()

	if len(rec.bursts) != 1 {
		t.Fatalf("sender radio notified %d times", len(rec.bursts))
	}
	if len(recB.bursts) != 1 {
		t.Fatalf("ACKer radio notified %d times", len(recB.bursts))
	}
	if rec.bursts[0] <= 0 {
		t.Fatal("non-positive airtime")
	}
}

func TestQueueDrainsInOrder(t *testing.T) {
	fx := newFixture()
	a := fx.port("a", pos(0, 0), addrA, 1)
	b := fx.port("b", pos(2, 0), addrB, 2)
	var payloads []string
	b.Handler = func(f dot11.Frame, rx medium.Reception) {
		if d, ok := f.(*dot11.Data); ok {
			payloads = append(payloads, string(d.Payload))
		}
	}
	for _, s := range []string{"one", "two", "three"} {
		a.Send(dot11.NewDataToAP(addrB, addrA, addrB, []byte(s)), nil)
	}
	if a.QueueLen() == 0 {
		t.Fatal("queue empty immediately after 3 sends")
	}
	fx.sched.Run()
	if len(payloads) != 3 || payloads[0] != "one" || payloads[1] != "two" || payloads[2] != "three" {
		t.Fatalf("payloads = %v", payloads)
	}
}

func TestControlRate(t *testing.T) {
	if ControlRate(phy.RateDSSS11) != phy.RateDSSS1 {
		t.Error("DSSS control rate")
	}
	if ControlRate(phy.RateHTMCS7SGI) != phy.RateOFDM6 {
		t.Error("HT control rate")
	}
}

func BenchmarkUnicastExchange(b *testing.B) {
	fx := newFixture()
	a := fx.port("a", pos(0, 0), addrA, 1)
	p2 := fx.port("b", pos(2, 0), addrB, 2)
	_ = p2
	payload := []byte("sensor-reading")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Send(dot11.NewDataToAP(addrB, addrA, addrB, payload), nil)
		fx.sched.Run()
	}
}

func TestDCFFairnessUnderSaturation(t *testing.T) {
	// Two saturating broadcasters must share the channel roughly evenly —
	// the DCF's core fairness property. Each port re-queues a new beacon
	// the moment the previous one completes.
	fx := newFixture()
	a := fx.port("a", pos(0, 0), addrA, 11)
	b := fx.port("b", pos(1, 0), addrB, 22)
	counts := map[dot11.MAC]int{}
	rx := fx.port("rx", pos(0.5, 0), addrC, 33)
	rx.AutoACK = false
	rx.Handler = func(f dot11.Frame, r medium.Reception) {
		counts[f.TA()]++
	}
	var pump func(p *Port, from dot11.MAC)
	pump = func(p *Port, from dot11.MAC) {
		p.Send(dot11.NewBeacon(from, 100, 0, nil), func(bool) { pump(p, from) })
	}
	pump(a, addrA)
	pump(b, addrB)
	fx.sched.RunUntil(sim.Second)

	na, nb := counts[addrA], counts[addrB]
	total := na + nb
	if total < 500 {
		t.Fatalf("only %d frames in 1 s of saturation", total)
	}
	share := float64(na) / float64(total)
	if share < 0.40 || share > 0.60 {
		t.Fatalf("unfair split: %d vs %d (%.2f)", na, nb, share)
	}
	if fx.med.Stats.Collisions > total/10 {
		t.Fatalf("%d collisions for %d frames", fx.med.Stats.Collisions, total)
	}
}
