package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"wile/internal/core"
	"wile/internal/energy"
	"wile/internal/esp32"
	"wile/internal/mac"
	"wile/internal/medium"
	"wile/internal/obs"
	"wile/internal/sim"
	"wile/internal/units"
)

// harnessObs is what the harness builds every world with: a ledger, a
// registry and a trace recorder.
func harnessObs() *Obs {
	return &Obs{Prov: obs.NewProvenance(), Reg: obs.NewRegistry(), Rec: obs.NewRecorder()}
}

// balanced checks a world's ledger and registry against the Run it
// reports, once the world has stopped:
//   - every frame resolved (Verify), or exactly inFlight frames pending;
//   - potential receptions = transmissions × (radios − 1), since every
//     radio attaches before the first transmission;
//   - Collisions = collided outcomes, and the decode-side outcomes sum to
//     Deliveries;
//   - the wile.medium_* counters equal the Stats.
func balanced(t *testing.T, name string, o *Obs, r Run, inFlight int) {
	t.Helper()
	p := o.Prov
	if inFlight == 0 {
		if err := p.Verify(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	} else if got := p.Pending(); got != inFlight {
		t.Errorf("%s: %d frames in flight, want %d", name, got, inFlight)
	}
	radios := int64(p.Actors())
	if want := int64(r.Transmissions) * (radios - 1); p.Potential() != want {
		t.Errorf("%s: potential receptions = %d, want transmissions×(radios−1) = %d×%d",
			name, p.Potential(), r.Transmissions, radios-1)
	}
	out := p.Outcomes()
	if got := int64(r.Collisions); got != out[obs.DropCollided] {
		t.Errorf("%s: Collisions = %d, ledger collided = %d", name, got, out[obs.DropCollided])
	}
	decodeSide := out[obs.Delivered] + out[obs.DropFCSError] + out[obs.DropDedupFiltered] + out[obs.DropDecodeError]
	if decodeSide != int64(r.Deliveries) {
		t.Errorf("%s: decode-side outcomes = %d, want Deliveries = %d", name, decodeSide, r.Deliveries)
	}
	for _, c := range []struct {
		name string
		want int
	}{
		{"wile.medium_transmissions", r.Transmissions},
		{"wile.medium_deliveries", r.Deliveries},
		{"wile.medium_collisions", r.Collisions},
	} {
		if got := o.Reg.Counter(c.name).Value(); got != int64(c.want) {
			t.Errorf("%s: %s = %d, Run says %d", name, c.name, got, c.want)
		}
	}
}

// same fails unless a world built with Obs reached the result it reaches
// with Obs nil: observability must change no outcome.
func same(t *testing.T, name string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: the result with Obs differs from the one with Obs nil", name)
	}
}

// monotone exports rec and reads the dispatch instants of its sched
// tracks in recording order, which the export keeps: sim time must never
// go backwards between dispatches, and every one of the run's events
// must be there.
func monotone(t *testing.T, name string, rec *obs.Recorder, events uint64) {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph, Name string
			Tid      int
			Ts       json.Number
			Args     struct{ Name string }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	last := map[int]int64{} // sched track tid -> latest dispatch, ns
	var n uint64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Args.Name == "sched" {
			last[ev.Tid] = 0
			continue
		}
		prev, ok := last[ev.Tid]
		if ev.Ph != "i" || !ok {
			continue
		}
		// "µs.nnn" with the dot dropped is the sim time in ns.
		at, err := strconv.ParseInt(strings.Replace(ev.Ts.String(), ".", "", 1), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if at < prev {
			t.Errorf("%s: dispatch %d at %d ns follows one at %d ns", name, n, at, prev)
		}
		last[ev.Tid] = at
		n++
	}
	if n != events {
		t.Errorf("%s: %d dispatch instants, want one per event (%d)", name, n, events)
	}
}

// wave is a device's waveform as a run left it: its step history and its
// exact energy, both read at end.
type wave struct {
	steps  []energy.Step
	energy units.Joules
	end    sim.Time
}

// waveOf reads d's waveform now.
func waveOf(d *esp32.Device, sched *sim.Scheduler) wave {
	return wave{d.Steps(), d.Energy(), sched.Now()}
}

// charged fails unless a device's exact energy equals Σ I·Δt over its
// step history up to end, at the rail voltage, within a relative 1e-9:
// the recorder integrates at every touch, not once per step, so the two
// sums round differently.
func charged(t *testing.T, name string, w wave) {
	t.Helper()
	if len(w.steps) == 0 {
		t.Fatalf("%s: no step history", name)
	}
	var c units.Coulombs
	for i, s := range w.steps {
		end := w.end
		if i+1 < len(w.steps) {
			end = w.steps[i+1].At
		}
		c += units.Charge(s.Current, end.Sub(s.At))
	}
	want := c.Energy(esp32.Voltage)
	if d := math.Abs(float64(w.energy - want)); d > 1e-9*math.Abs(float64(want)) {
		t.Errorf("%s: device energy %v, Σ I·Δt over its %d steps gives %v", name, w.energy, len(w.steps), want)
	}
}

// booted fails unless a sensor stopped mid-boot ends its step history
// with the boundaries of esp32.BootWiLE(), played from the instant from,
// that fall at or before its end, each drawing its segment's current: the
// recorder must have caught the profile up to the deadline.
func booted(t *testing.T, name string, w wave, from sim.Time) {
	t.Helper()
	var want []energy.Step
	at := from
	for _, seg := range esp32.BootWiLE() {
		if at > w.end {
			break
		}
		want = append(want, energy.Step{At: at, Current: seg.Current})
		at = at.Add(seg.D)
	}
	tail := w.steps[max(0, len(w.steps)-len(want)):]
	if !reflect.DeepEqual(tail, want) {
		t.Errorf("%s: step history ends %+v, want the boot's boundaries up to %v, %+v", name, tail, w.end, want)
	}
}

// traceRun splits a figure run into what must not depend on Obs (the
// trace less its meter's wiring, and the samples), its Run and the
// device's waveform.
func traceRun(tr *Trace, err error) (any, Run, wave, error) {
	if err != nil {
		return nil, Run{}, wave{}, err
	}
	v := *tr
	v.Meter = nil
	return []any{v, tr.Meter.Samples}, tr.Run, wave{tr.Steps, tr.DeviceEnergy, sim.FromDuration(tr.Window)}, nil
}

// launches passes each transmit burst on to the device after logging when
// the frame's airtime ends: a count of the frames in flight that does not
// go through the ledger.
type launches struct {
	mac.RadioListener
	sched *sim.Scheduler
	ends  *[]sim.Time
}

func (l launches) RadioTx(airtime time.Duration) {
	*l.ends = append(*l.ends, l.sched.Now().Add(airtime))
	l.RadioListener.RadioTx(airtime)
}

// fleetDeadline ends the booting fleet's run inside a boot and inside a
// beacon's airtime.
const fleetDeadline = 1_704_100 * sim.Microsecond

// bootingFleet is a field no entry point builds: six duty-cycled Wi-LE
// sensors with full boots, DCF and seed-drawn phases, in a 4 m disc
// around one scanner, run to fleetDeadline. It reports what must not
// depend on Obs, the Run, each sensor's waveform, the frames in flight at
// the deadline and, by sensor index, the instant each sensor still
// booting there began its boot.
func bootingFleet(o *Obs) (res any, r Run, waves []wave, inFlight int, boots map[int]sim.Time) {
	w := newWorld(o)
	rng := sim.NewRand(5)
	sc := core.NewScanner(w.sched, w.med, core.ScannerConfig{Seed: rng.Uint64() | 1})
	comps := []component{sc}
	var sensors []*core.Sensor
	var ends []sim.Time
	for i := 0; i < 6; i++ {
		d, a := 4*rng.Float64(), 2*math.Pi*rng.Float64()
		s := core.NewSensor(w.sched, w.med, core.SensorConfig{
			DeviceID: 0x3000 + uint32(i),
			Position: medium.Position{X: d * math.Cos(a), Y: d * math.Sin(a)},
			Period:   time.Second,
			Seed:     rng.Uint64() | 1,
		})
		s.Port.Radio = launches{s.Dev, w.sched, &ends}
		w.sched.DoAfter(time.Duration(rng.Float64()*float64(time.Second)), s.Run)
		sensors, comps = append(sensors, s), append(comps, s)
	}
	w.attach(o, comps...)
	sc.Start()
	w.sched.RunUntil(fleetDeadline)

	out := []any{sc.Stats}
	boots = map[int]sim.Time{}
	for i, s := range sensors {
		wv := waveOf(s.Dev, w.sched)
		out = append(out, s.Stats, s.Dev.Marks(), wv)
		waves = append(waves, wv)
		if s.Dev.GetState() == esp32.StateCPUActive {
			// The boot under way began at the last first-segment mark.
			for _, mk := range s.Dev.Marks() {
				if mk.Label == esp32.BootWiLE()[0].Label {
					boots[i] = mk.At
				}
			}
		}
	}
	for _, end := range ends {
		if end > fleetDeadline {
			inFlight++
		}
	}
	return out, w.run(), waves, inFlight, boots
}

// TestEveryWorldBalancesItsLedger builds every world the package's entry
// points build, with harnessObs attached, runs the same code on it, and
// checks balanced and same on each, and charged on the world's device
// where it has one. The drop scenario's sensors are its own and stay out
// of charged. It builds each world once more with the scheduler firehose
// on and checks same and monotone. The density sweep stays out: its
// handlers resolve no reception, so its ledger cannot balance.
func TestEveryWorldBalancesItsLedger(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(o *Obs) (any, Run, wave, error)
	}{
		{"MeasureWiLE", func(o *Obs) (any, Run, wave, error) {
			b := newWiLEBed(o)
			m, full, err := b.measure()
			return []any{m, full}, m.Run, waveOf(b.sensor.Dev, b.sched), err
		}},
		{"MeasureWiFiDC", func(o *Obs) (any, Run, wave, error) {
			b := newWiFiBed(o)
			m, err := b.dutyCycle("WiFi-DC")
			return m, m.Run, waveOf(b.sta.Dev, b.sched), err
		}},
		{"MeasureWiFiPS", func(o *Obs) (any, Run, wave, error) {
			b := newWiFiBed(o)
			m, err := b.powerSave()
			return m, m.Run, waveOf(b.sta.Dev, b.sched), err
		}},
		{"MeasureWiFiDCFast", func(o *Obs) (any, Run, wave, error) {
			b := newWiFiBed(o)
			m, err := b.fastRejoin()
			return m, m.Run, waveOf(b.sta.Dev, b.sched), err
		}},
		{"RunClaims", func(o *Obs) (any, Run, wave, error) {
			b := newWiFiBed(o)
			c, err := b.claims()
			if err != nil {
				return nil, Run{}, wave{}, err
			}
			return c, c.Run, waveOf(b.sta.Dev, b.sched), nil
		}},
		{"RunJoinCapture", func(o *Obs) (any, Run, wave, error) {
			b := newWiFiBed(o)
			packets, err := b.capture()
			return packets, b.run(), waveOf(b.sta.Dev, b.sched), err
		}},
		{"RunFig3a", func(o *Obs) (any, Run, wave, error) { return traceRun(RunFig3a(o)) }},
		{"RunFig3b", func(o *Obs) (any, Run, wave, error) { return traceRun(RunFig3b(o)) }},
		{"RunDropScenario", func(o *Obs) (any, Run, wave, error) {
			res, err := RunDropScenario(o)
			if err != nil {
				return nil, Run{}, wave{}, err
			}
			return res, res.Run, wave{}, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, _, w, err := tc.run(nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name != "RunDropScenario" {
				charged(t, tc.name, w)
			}
			o := harnessObs()
			got, r, _, err := tc.run(o)
			if err != nil {
				t.Fatal(err)
			}
			same(t, tc.name, got, want)
			balanced(t, tc.name, o, r, 0)

			o = harnessObs()
			o.Sched = true
			if got, r, _, err = tc.run(o); err != nil {
				t.Fatal(err)
			}
			same(t, tc.name+" with the firehose", got, want)
			monotone(t, tc.name, o.Rec, r.Events)
		})
	}

	// A fleet stopped mid-boot: every sensor's waveform must be caught up
	// to the deadline, and the ledger must hold exactly the frames whose
	// airtime the deadline cuts.
	t.Run("BootingFleet", func(t *testing.T) {
		want, _, waves, inFlight, boots := bootingFleet(nil)
		if len(boots) == 0 || inFlight == 0 {
			t.Fatalf("at the %v deadline %d sensors boot and %d frames fly, want some of each", fleetDeadline, len(boots), inFlight)
		}
		for i, wv := range waves {
			name := fmt.Sprintf("sensor %d", i)
			charged(t, name, wv)
			if from, ok := boots[i]; ok {
				booted(t, name, wv, from)
			}
		}
		o := harnessObs()
		got, r, _, _, _ := bootingFleet(o)
		same(t, "BootingFleet", got, want)
		balanced(t, "BootingFleet", o, r, inFlight)

		o = harnessObs()
		o.Sched = true
		got, r, _, _, _ = bootingFleet(o)
		same(t, "BootingFleet with the firehose", got, want)
		monotone(t, "BootingFleet", o.Rec, r.Events)
	})

	// The ablation points take their world as an argument, so the test
	// hooks the firehose onto it itself.
	firehose := func() *Obs { return &Obs{Rec: obs.NewRecorder(), Sched: true} }

	t.Run("RunJitterStudy", func(t *testing.T) {
		for _, want := range RunJitterStudy(nil, 0) {
			o := harnessObs()
			got := runJitterPoint(newWorld(o), want.PPM, want.Cycles)
			name := fmt.Sprintf("%v ppm", want.PPM)
			same(t, name, got, want)
			balanced(t, name, o, got.Run, 0)

			o = firehose()
			w := newWorld(nil)
			w.firehose(o)
			got = runJitterPoint(w, want.PPM, want.Cycles)
			same(t, name+" with the firehose", got, want)
			monotone(t, name, o.Rec, got.Events)
		}
	})

	// A jammed point ends with the jammer's last burst in flight: it
	// launches at the window's end.
	t.Run("RunInterferenceStudy", func(t *testing.T) {
		for _, p := range RunInterferenceStudy(nil) {
			o := harnessObs()
			got := runInterferencePoint(newWorld(o), p.Duty)
			name := fmt.Sprintf("duty %v", p.Duty)
			want := runInterferencePoint(newWorld(nil), p.Duty)
			same(t, name, got, want)
			inFlight := 0
			if p.Duty > 0 {
				inFlight = 1
			}
			balanced(t, name, o, got.Run, inFlight)

			o = firehose()
			w := newWorld(nil)
			w.firehose(o)
			got = runInterferencePoint(w, p.Duty)
			same(t, name+" with the firehose", got, want)
			monotone(t, name, o.Rec, got.Events)
		}
	})

	t.Run("RunHopperStudy", func(t *testing.T) {
		for _, want := range RunHopperStudy(nil) {
			ws := hopperWorlds(want.Channels)
			os := make([]*Obs, len(ws))
			for c := range ws {
				os[c] = harnessObs()
				ws[c].wire(os[c])
			}
			got := runHopperPoint(ws)
			name := fmt.Sprintf("%d channels", want.Channels)
			same(t, name, got, want)
			for c := range ws {
				balanced(t, fmt.Sprintf("%s, channel world %d", name, c), os[c], ws[c].run(), 0)
			}

			// The channel worlds share one kernel: one hook sees it all.
			o := firehose()
			ws = hopperWorlds(want.Channels)
			ws[0].firehose(o)
			got = runHopperPoint(ws)
			same(t, name+" with the firehose", got, want)
			monotone(t, name, o.Rec, got.Events)
		}
	})
}
