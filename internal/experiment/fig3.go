package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"

	"wile/internal/core"
	"wile/internal/energy"
	"wile/internal/esp32"
	"wile/internal/meter"
	"wile/internal/obs"
	"wile/internal/sim"
	"wile/internal/units"
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
	// a "sched" track — the firehose view (one event per timer tick and
	// meter sample), for debugging sessions rather than figure runs.
	Sched bool
}

// rec/reg/prov/series unwrap an optional Obs.
func (o *Obs) rec() *obs.Recorder {
	if o == nil {
		return nil
	}
	return o.Rec
}

func (o *Obs) reg() *obs.Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}

func (o *Obs) prov() *obs.Provenance {
	if o == nil {
		return nil
	}
	return o.Prov
}

func (o *Obs) series() *obs.TimeSeries {
	if o == nil {
		return nil
	}
	return o.Series
}

// wire attaches the Obs bundle's medium-level sinks to a freshly built
// world: medium counters into the registry, the provenance ledger into the
// medium (and into the registry and the trace as drop totals and instants
// when those sinks are also present), and the time-series sampler onto the
// kernel. Per-component
// wiring (TraceTo / Observe) stays at the call sites, which know the cast.
func (o *Obs) wire(w *world) {
	if reg := o.reg(); reg != nil {
		w.med.Observe(reg)
	}
	if p := o.prov(); p != nil {
		w.med.ObserveProvenance(p)
		if reg := o.reg(); reg != nil {
			p.Observe(reg)
		}
		if r := o.rec(); r != nil {
			p.TraceTo(r)
		}
	}
	if ts := o.series(); ts != nil {
		ts.Run(w.sched)
	}
}

// Trace is one Figure-3 current waveform: the 50 kSa/s multimeter record
// plus the phase annotations the paper overlays.
type Trace struct {
	// Samples is the raw multimeter record.
	Samples []meter.Sample
	// Marks labels the phase boundaries.
	Marks []energy.Mark
	// Energy integrates the trace (meter view).
	Energy units.Joules
	// DeviceEnergy integrates the exact device waveform (ground truth).
	DeviceEnergy units.Joules
	// Steps is that exact waveform, the one the meter sampled.
	Steps []energy.Step
	// Window is the observation length.
	Window time.Duration
	// Events counts the scheduler events the run dispatched (sim.Fired),
	// meter samples included: an exact work count.
	Events uint64
}

// Release returns the trace's sample buffer to the shared meter pool so a
// following figure run can reuse it instead of allocating another
// 100k-sample slice. The trace (and any slice of its Samples) must not be
// used afterwards.
func (t *Trace) Release() {
	meter.RecycleSamples(t.Samples)
	t.Samples = nil
}

// preSleep is the deep-sleep lead-in both Figure 3 traces start with.
const preSleep = 200 * time.Millisecond

// figureWindow is the 2-second x-axis of Figure 3.
const figureWindow = 2 * time.Second

// RunFig3a records the WiFi-DC transmission waveform of Figure 3a:
// deep sleep → MC/WiFi init → probe/auth/assoc (+ 4-way) → DHCP/ARP →
// data TX → deep sleep, sampled at 50 kSa/s.
func RunFig3a() (*Trace, error) { return RunFig3aObs(nil) }

// RunFig3aObs is RunFig3a with observability attached: device power states,
// MAC activity and the meter waveform land in o's recorder, MAC counters in
// its registry.
func RunFig3aObs(o *Obs) (*Trace, error) {
	w := newWorld()
	o.wire(w)
	accessPoint := w.newAP()
	station := w.newStation()
	dev := station.Dev
	m := meter.New(w.sched, dev, meter.DefaultSampleRate)
	if r := o.rec(); r != nil {
		station.TraceTo(r)
		accessPoint.TraceTo(r)
		m.TraceTo(r, r.Track("current_mA"))
		if o.Sched {
			obs.ObserveScheduler(r, w.sched, r.Track("sched"))
		}
	}
	if reg := o.reg(); reg != nil {
		station.Observe(reg)
		accessPoint.Observe(reg)
	}
	m.Reserve(figureWindow)
	m.Start()

	var wake wifiWake
	w.sched.DoAfter(preSleep, func() { wake.run(station) })
	w.sched.RunUntil(sim.FromDuration(figureWindow))
	m.Stop()
	if err := wake.check("fig3a"); err != nil {
		return nil, err
	}
	return &Trace{
		Samples:      m.Samples,
		Marks:        dev.Marks(),
		Energy:       m.Energy(0, sim.FromDuration(figureWindow), esp32.Voltage),
		DeviceEnergy: dev.Energy(),
		Steps:        dev.Steps(),
		Window:       figureWindow,
		Events:       w.sched.Fired(),
	}, nil
}

// RunFig3b records the Wi-LE waveform of Figure 3b: deep sleep → shorter
// MC/WiFi init → one injected beacon → deep sleep.
func RunFig3b() (*Trace, error) { return RunFig3bObs(nil) }

// RunFig3bObs is RunFig3b with observability attached: sensor power states,
// injection instants, MAC spans and the meter waveform land in o's
// recorder, MAC counters in its registry.
func RunFig3bObs(o *Obs) (*Trace, error) {
	w := newWorld()
	o.wire(w)
	sensor := core.NewSensor(w.sched, w.med, core.SensorConfig{DeviceID: 0x1001, Position: devicePos})
	scanner := core.NewScanner(w.sched, w.med, core.ScannerConfig{Position: apPos})
	m := meter.New(w.sched, sensor.Dev, meter.DefaultSampleRate)
	if r := o.rec(); r != nil {
		sensor.TraceTo(r)
		scanner.TraceTo(r)
		m.TraceTo(r, r.Track("current_mA"))
		if o.Sched {
			obs.ObserveScheduler(r, w.sched, r.Track("sched"))
		}
	}
	if reg := o.reg(); reg != nil {
		sensor.Observe(reg)
		scanner.Observe(reg)
	}
	scanner.Start()
	received := false
	scanner.OnMessage = func(*core.Message, core.Meta) { received = true }

	m.Reserve(figureWindow)
	m.Start()
	var txOK *bool
	w.sched.DoAfter(preSleep, func() {
		sensor.Dev.MarkPhase("Wake")
		sensor.TransmitOnce([]core.Reading{core.Temperature(17.0)}, func(ok bool) { txOK = &ok })
	})
	w.sched.RunUntil(sim.FromDuration(figureWindow))
	m.Stop()
	if txOK == nil || !*txOK {
		return nil, fmt.Errorf("experiment: fig3b transmission incomplete")
	}
	if !received {
		return nil, fmt.Errorf("experiment: fig3b beacon not received")
	}
	return &Trace{
		Samples:      m.Samples,
		Marks:        sensor.Dev.Marks(),
		Energy:       m.Energy(0, sim.FromDuration(figureWindow), esp32.Voltage),
		DeviceEnergy: sensor.Dev.Energy(),
		Steps:        sensor.Dev.Steps(),
		Window:       figureWindow,
		Events:       w.sched.Fired(),
	}, nil
}

// WriteCSV exports the trace in the Figure-3 plotting format.
func (t *Trace) WriteCSV(w io.Writer) error {
	m := &meter.Meter{Samples: t.Samples}
	return m.WriteCSV(w, t.Marks)
}

// PhaseBounds reports the start of the named phase and the start of the
// next phase (or the window end).
func (t *Trace) PhaseBounds(label string) (start, end sim.Time, ok bool) {
	for i, mk := range t.Marks {
		if mk.Label != label {
			continue
		}
		end := sim.FromDuration(t.Window)
		if i+1 < len(t.Marks) {
			end = t.Marks[i+1].At
		}
		return mk.At, end, true
	}
	return 0, 0, false
}

// RenderASCII draws the waveform as a terminal plot (log-free, mA on the
// y-axis), the closest a CLI gets to Figure 3.
func (t *Trace) RenderASCII(w io.Writer, width, height int) {
	if width <= 0 {
		width = 78
	}
	if height <= 0 {
		height = 16
	}
	// Bucket samples into columns, keeping each column's max (spikes
	// matter more than averages in this figure).
	cols := make([]units.Amps, width)
	maxA := units.Amps(0)
	for _, s := range t.Samples {
		c := int(float64(s.At) / float64(sim.FromDuration(t.Window)) * float64(width))
		if c >= width {
			c = width - 1
		}
		if s.Current > cols[c] {
			cols[c] = s.Current
		}
		if s.Current > maxA {
			maxA = s.Current
		}
	}
	if maxA == 0 {
		maxA = units.Amps(1)
	}
	fmt.Fprintf(w, "current draw (peak %.0f mA), %v window\n", maxA.Milli(), t.Window)
	for row := height; row >= 1; row-- {
		threshold := units.Scale(maxA, float64(row)/float64(height))
		line := make([]byte, width)
		for c := range cols {
			if cols[c] >= threshold {
				line[c] = '#'
			} else {
				line[c] = ' '
			}
		}
		label := "      "
		if row == height {
			label = fmt.Sprintf("%4.0fmA", maxA.Milli())
		} else if row == 1 {
			label = "   0mA"
		}
		fmt.Fprintf(w, "%s |%s|\n", label, string(line))
	}
	// Phase ruler.
	ruler := []byte(strings.Repeat(" ", width))
	for _, mk := range t.Marks {
		c := int(float64(mk.At) / float64(sim.FromDuration(t.Window)) * float64(width))
		if c >= 0 && c < width {
			ruler[c] = '^'
		}
	}
	fmt.Fprintf(w, "       %s\n", string(ruler))
	for _, mk := range t.Marks {
		fmt.Fprintf(w, "       ^ %v %s\n", mk.At, mk.Label)
	}
}
