package experiment

import (
	"fmt"

	"wile/internal/ap"
	"wile/internal/core"
	"wile/internal/dot11"
	"wile/internal/esp32"
	"wile/internal/mac"
	"wile/internal/medium"
	"wile/internal/netstack"
	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
	"wile/internal/sta"
)

// The §5.1 testbed: the ESP32 sits a few meters from the AP, with the
// multimeter in series on its rail. Every Table 1 row and both Figure 3
// traces come from one of its two layouts, built by newWiFiBed and
// newWiLEBed.
var (
	apPos     = medium.Position{X: 0, Y: 0}
	devicePos = medium.Position{X: 3, Y: 0}
)

const (
	testSSID       = "google-wifi"
	testPassphrase = "correct horse battery staple"
)

// Obs bundles the optional observability sinks a run can be wired to: a
// trace recorder for the timeline, a registry for counters, a frame
// provenance ledger and a sim-time metrics sampler. Any field may be nil; a
// nil *Obs disables observability entirely.
type Obs struct {
	Rec *obs.Recorder
	Reg *obs.Registry
	// Prov, when non-nil, is wired into the run's medium so every frame
	// resolves to a drop-taxonomy outcome (wile-trace -drops reads it).
	Prov *obs.Provenance
	// Series, when non-nil, samples Reg (or the run's registry) on its
	// sim-time cadence for the whole window.
	Series *obs.TimeSeries
	// Sched additionally records every scheduler dispatch as an instant on
	// a "sched" track — the firehose view (one instant per timer, frame
	// delivery and profile end), for debugging rather than figure runs.
	Sched bool
}

// world bundles one experiment's simulation: a kernel, a medium, and the
// trace recorder its components were attached to.
type world struct {
	sched *sim.Scheduler
	med   *medium.Medium
	// rec is o.Rec for a testbed (nil when untraced); current is the
	// multimeter's counter track on it.
	rec     *obs.Recorder
	current obs.TrackID
}

// Run is the record of a world's run that every result embeds: the exact
// count of scheduler events dispatched (sim.Fired) and the medium's tally.
type Run struct {
	Events uint64
	medium.Stats
}

// run reads w's record so far; by value, so closures copy w, not heap it.
func (w world) run() Run { return Run{w.sched.Fired(), w.med.Stats} }

// newWorld builds a kernel and its channel-6 medium, wired to o.
func newWorld(o *Obs) world {
	s := sim.New()
	w := world{sched: s, med: medium.New(s, phy.WiFi24Channel(6))}
	w.wire(o)
	return w
}

// wire attaches o's medium-level sinks: medium counters into the registry,
// the provenance ledger into the medium (and into the registry and the
// trace as drop totals and instants when those sinks are also present),
// and the time-series sampler onto the kernel.
func (w world) wire(o *Obs) {
	if o == nil {
		return
	}
	if o.Reg != nil {
		w.med.Observe(o.Reg)
	}
	if p := o.Prov; p != nil {
		w.med.ObserveProvenance(p)
		if o.Reg != nil {
			p.Observe(o.Reg)
		}
		if o.Rec != nil {
			p.TraceTo(o.Rec)
		}
	}
	if o.Series != nil {
		o.Series.Run(w.sched)
	}
}

// firehose records every dispatch of w's scheduler on a "sched" track of
// o.Rec, when o asks for it.
func (w world) firehose(o *Obs) {
	if o != nil && o.Sched && o.Rec != nil {
		obs.ObserveScheduler(o.Rec, w.sched, o.Rec.Track("sched"))
	}
}

// component is a testbed device with a timeline and counters to report.
type component interface {
	TraceTo(*obs.Recorder)
	Observe(*obs.Registry)
}

// attach wires a testbed's components into o, in order: their trace
// tracks, then the multimeter's current track and the scheduler firehose,
// then their counters.
func (w *world) attach(o *Obs, cs ...component) {
	if o == nil {
		return
	}
	if r := o.Rec; r != nil {
		for _, c := range cs {
			c.TraceTo(r)
		}
		w.rec, w.current = r, r.Track("current_mA")
		w.firehose(o)
	}
	if o.Reg != nil {
		for _, c := range cs {
			c.Observe(o.Reg)
		}
	}
}

// wifiBed is the WiFi layout: the Google WiFi AP at the origin, beaconing,
// and the ESP32 station 3 m out, asleep.
type wifiBed struct {
	world
	ap  *ap.AP
	sta *sta.Station
}

func newWiFiBed(o *Obs) *wifiBed {
	b := &wifiBed{world: newWorld(o)}
	b.ap = ap.New(b.sched, b.med, ap.Config{
		SSID:       testSSID,
		Passphrase: testPassphrase,
		BSSID:      dot11.MustParseMAC("aa:bb:cc:00:00:01"),
		Channel:    6,
		IP:         netstack.MustParseIP("192.168.86.1"),
		Position:   apPos,
	})
	b.ap.Start()
	b.sta = sta.New(b.sched, b.med, sta.Config{
		SSID:       testSSID,
		Passphrase: testPassphrase,
		Addr:       dot11.MustParseMAC("02:57:00:00:00:01"),
		Position:   devicePos,
	})
	b.attach(o, b.sta, b.ap)
	return b
}

// monitor attaches a passive monitor-mode port halfway between the AP and
// the station. It hears every frame of the join, transmits nothing (not
// even an ACK), and hands each decoded frame to fn, which copies what it
// keeps. It filters nothing, so every frame it decodes is delivered.
func (b *wifiBed) monitor(fn func(dot11.Frame, medium.Reception)) {
	mon := mac.New(b.sched, b.med, "monitor", medium.Position{X: 1.5, Y: 0},
		dot11.MustParseMAC("02:00:00:00:00:99"), phy.RateHTMCS7, 0,
		phy.SensitivityWiFi1M, sim.NewRand(7))
	mon.AutoACK = false
	mon.SetRadioOn(true)
	mon.Monitor = func(f dot11.Frame, rx medium.Reception) obs.DropReason {
		fn(f, rx)
		return obs.Delivered
	}
}

// join powers the station's CPU on, joins, and runs the kernel to until.
// It fails unless the join completed cleanly by then, naming the run what.
func (b *wifiBed) join(what string, until sim.Time) error {
	var res struct {
		err  error
		done bool
	}
	b.sta.Dev.SetState(esp32.StateCPUActive)
	b.sta.Join(func(err error) { res.err, res.done = err, true })
	b.sched.RunUntil(until)
	if res.err != nil || !res.done {
		return fmt.Errorf("experiment: %s join: %v", what, res.err)
	}
	return nil
}

// wifiWake is one WiFi-DC duty cycle (Figure 3a, Table 1 WiFi-DC): wake
// from deep sleep, boot, join, send one reading, back to deep sleep.
type wifiWake struct {
	err   error
	acked bool
}

// run starts the cycle on the station now; the scheduler then plays it.
func (c *wifiWake) run(station *sta.Station) {
	station.Dev.SetState(esp32.StateCPUActive)
	station.Dev.PlaySegments(esp32.BootWiFi(), func() {
		station.Join(func(err error) {
			if err != nil {
				c.err = err
				return
			}
			c.err = station.SendReading([]byte("temp=17.0"), 5683, func(ok bool) {
				c.acked = ok
				station.Sleep()
			})
		})
	})
}

// check reports a cycle that failed or did not finish, naming it what.
func (c *wifiWake) check(what string) error {
	if c.err != nil {
		return fmt.Errorf("experiment: %s join: %w", what, c.err)
	}
	if !c.acked {
		return fmt.Errorf("experiment: %s transmission incomplete", what)
	}
	return nil
}

// wileBed is the Wi-LE layout: sensor 0x1001 where the station sits and a
// scanner where the AP sits, listening.
type wileBed struct {
	world
	sensor  *core.Sensor
	scanner *core.Scanner
	// sent and heard record the one transmission: the sensor finished it,
	// and the scanner decoded it.
	sent, heard bool
}

func newWiLEBed(o *Obs) *wileBed {
	b := &wileBed{world: newWorld(o)}
	b.sensor = core.NewSensor(b.sched, b.med, core.SensorConfig{DeviceID: 0x1001, Position: devicePos})
	b.scanner = core.NewScanner(b.sched, b.med, core.ScannerConfig{Position: apPos})
	b.attach(o, b.sensor, b.scanner)
	b.scanner.Start()
	b.scanner.OnMessage = func(*core.Message, core.Meta) { b.heard = true }
	return b
}

// transmit injects one temperature reading now.
func (b *wileBed) transmit() {
	b.sensor.TransmitOnce([]core.Reading{core.Temperature(17.0)}, func(ok bool) { b.sent = ok })
}

// check reports a transmission that failed or went unheard, naming the
// run what.
func (b *wileBed) check(what string) error {
	if !b.sent {
		return fmt.Errorf("experiment: %s transmission incomplete", what)
	}
	if !b.heard {
		return fmt.Errorf("experiment: %s beacon not received", what)
	}
	return nil
}
