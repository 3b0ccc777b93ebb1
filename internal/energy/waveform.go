package energy

import (
	"time"

	"wile/internal/sim"
	"wile/internal/units"
)

// Step is one point of a piecewise-constant current waveform: the current
// that flows from At onward.
type Step struct {
	At      sim.Time
	Current units.Amps
}

// Segment is one piece of a scripted current profile (a boot sequence, a
// BLE connection event): Current for D. A profile is a []Segment played in
// order.
type Segment struct {
	D       time.Duration
	Current units.Amps
	// Label, when set, names the phase the segment starts.
	Label string
}

// Mark is a labeled instant on a waveform, used to annotate figure phases
// ("MC/WiFi init", "Probe/Auth./Associate", …).
type Mark struct {
	At    sim.Time
	Label string
}

// ProfileDuration sums a profile's segment durations.
func ProfileDuration(segs []Segment) time.Duration {
	var d time.Duration
	for _, s := range segs {
		d += s.D
	}
	return d
}

// ProfileCharge integrates a profile's charge.
func ProfileCharge(segs []Segment) units.Coulombs {
	var c units.Coulombs
	for _, s := range segs {
		c += units.Charge(s.Current, s.D)
	}
	return c
}

// Recorder is one device's current waveform, as the series ammeter of the
// paper's §5.1 sees it: the step history, and the exact charge integral
// over it. It plays one scripted profile at a time; between profiles the
// device's own state machine sets the current.
type Recorder struct {
	sched *sim.Scheduler
	// rest is the current the device returns to when a profile ends;
	// label, if set, sees each labeled segment as it starts.
	rest  func() units.Amps
	label func(string)

	lastT  sim.Time
	charge units.Coulombs
	steps  []Step

	// The profile playing, its cursor and the caller's completion.
	// advance is next, bound once so that playing allocates nothing.
	profile []Segment
	pos     int
	done    func()
	advance func()
}

// NewRecorder starts a waveform at the scheduler's current time, drawing
// rest(). label may be nil.
func NewRecorder(sched *sim.Scheduler, rest func() units.Amps, label func(string)) *Recorder {
	r := &Recorder{sched: sched, rest: rest, label: label, lastT: sched.Now()}
	r.steps = append(r.steps, Step{At: r.lastT, Current: rest()})
	r.advance = r.next
	return r
}

// touch integrates charge up to now.
func (r *Recorder) touch() {
	if now := r.sched.Now(); now > r.lastT {
		r.charge += units.Charge(r.Current(), now.Sub(r.lastT))
		r.lastT = now
	}
}

// Set changes the current from now on, logging a step if it differs.
func (r *Recorder) Set(a units.Amps) {
	r.touch()
	if a != r.Current() {
		r.steps = append(r.steps, Step{At: r.sched.Now(), Current: a})
	}
}

// Current reports the instantaneous draw — what the series multimeter
// reads at this exact virtual instant (meter.Probe).
func (r *Recorder) Current() units.Amps { return r.steps[len(r.steps)-1].Current }

// Charge reports the charge drawn since construction, integrated exactly
// over the waveform.
func (r *Recorder) Charge() units.Coulombs {
	r.touch()
	return r.charge
}

// Steps returns the waveform recorded so far: each step's current holds
// until the next step's time.
func (r *Recorder) Steps() []Step {
	r.touch()
	return r.steps
}

// Play runs a scripted profile: each segment's current for its duration,
// then the rest current, then done (which may be nil). Play panics if the
// previous profile is still playing.
func (r *Recorder) Play(segs []Segment, done func()) {
	if r.profile != nil {
		panic("energy: Play while a profile is still playing")
	}
	r.profile, r.pos, r.done = segs, -1, done
	r.next()
}

// next moves the cursor to the following segment, or ends the profile.
func (r *Recorder) next() {
	r.pos++
	if r.pos == len(r.profile) {
		done := r.done
		r.profile, r.done = nil, nil
		r.Set(r.rest())
		if done != nil {
			done()
		}
		return
	}
	s := r.profile[r.pos]
	if s.Label != "" && r.label != nil {
		r.label(s.Label)
	}
	r.Set(s.Current)
	r.sched.DoAfter(s.D, r.advance)
}

// ChargeAt integrates a waveform only where it draws exactly a, holding
// the last step until end: the TX-burst charge of a wake, for instance.
func ChargeAt(steps []Step, a units.Amps, end sim.Time) units.Coulombs {
	var c units.Coulombs
	for i, s := range steps {
		if s.Current == a {
			c += units.Charge(a, stepEnd(steps, i, end).Sub(s.At))
		}
	}
	return c
}

// LastAbove reports when a waveform last fell to floor: the end of the
// last step drawing more than floor (end, if that is the last step), or
// zero if no step does.
func LastAbove(steps []Step, floor units.Amps, end sim.Time) sim.Time {
	for i := len(steps) - 1; i >= 0; i-- {
		if steps[i].Current > floor {
			return stepEnd(steps, i, end)
		}
	}
	return 0
}

// stepEnd is the time step i gives way to the next, or end for the last.
func stepEnd(steps []Step, i int, end sim.Time) sim.Time {
	if i+1 < len(steps) {
		return steps[i+1].At
	}
	return end
}
