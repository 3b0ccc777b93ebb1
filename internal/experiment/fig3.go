package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"

	"wile/internal/energy"
	"wile/internal/esp32"
	"wile/internal/meter"
	"wile/internal/sim"
	"wile/internal/units"
)

// Trace is one Figure-3 current waveform: the 50 kSa/s multimeter record
// plus the phase annotations the paper overlays.
type Trace struct {
	// Meter is the multimeter that recorded the trace; its Samples hold
	// the raw record.
	Meter *meter.Meter
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
	// Run is the figure's run. The meter schedules nothing, so its Events
	// count only the device's and the network's.
	Run
}

// Release returns the trace's sample buffer to the shared meter pool so a
// following figure run can reuse it instead of allocating another
// 100k-sample slice. The trace (and any slice of its samples) must not be
// used afterwards.
func (t *Trace) Release() {
	meter.RecycleSamples(t.Meter.Samples)
	t.Meter.Samples = nil
}

// preSleep is the deep-sleep lead-in both Figure 3 traces start with.
const preSleep = 200 * time.Millisecond

// figureWindow is the 2-second x-axis of Figure 3.
const figureWindow = 2 * time.Second

// record meters dev at 50 kSa/s over the Figure 3 window, with wake
// starting preSleep in.
func (w *world) record(dev *esp32.Device, wake func()) *Trace {
	m := meter.New(w.sched, dev, meter.DefaultSampleRate)
	if w.rec != nil {
		m.TraceTo(w.rec, w.current)
	}
	m.Reserve(figureWindow)
	m.Start()
	w.sched.DoAfter(preSleep, wake)
	end := sim.FromDuration(figureWindow)
	w.sched.RunUntil(end)
	m.Stop()
	return &Trace{
		Meter:        m,
		Marks:        dev.Marks(),
		Energy:       m.Energy(0, end, esp32.Voltage),
		DeviceEnergy: dev.Energy(),
		Steps:        dev.Steps(),
		Window:       figureWindow,
		Run:          w.run(),
	}
}

// RunFig3a records the WiFi-DC transmission waveform of Figure 3a:
// deep sleep → MC/WiFi init → probe/auth/assoc (+ 4-way) → DHCP/ARP →
// data TX → deep sleep, sampled at 50 kSa/s. With o, device power states,
// MAC activity and the meter waveform land in its recorder, MAC counters
// in its registry.
func RunFig3a(o *Obs) (*Trace, error) {
	b := newWiFiBed(o)
	var wake wifiWake
	tr := b.record(b.sta.Dev, func() { wake.run(b.sta) })
	if err := wake.check("fig3a"); err != nil {
		return nil, err
	}
	return tr, nil
}

// RunFig3b records the Wi-LE waveform of Figure 3b: deep sleep → shorter
// MC/WiFi init → one injected beacon → deep sleep. With o, sensor power
// states, injection instants, MAC spans and the meter waveform land in its
// recorder, MAC counters in its registry.
func RunFig3b(o *Obs) (*Trace, error) {
	b := newWiLEBed(o)
	tr := b.record(b.sensor.Dev, func() {
		b.sensor.Dev.MarkPhase("Wake")
		b.transmit()
	})
	if err := b.check("fig3b"); err != nil {
		return nil, err
	}
	return tr, nil
}

// WriteCSV exports the trace in the Figure-3 plotting format.
func (t *Trace) WriteCSV(w io.Writer) error {
	return t.Meter.WriteCSV(w, t.Marks)
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
	t.Meter.Walk(func(s meter.Sample) bool {
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
		return true
	})
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
