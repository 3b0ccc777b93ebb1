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
//
// A profile costs one scheduler event, at its end. Every boundary inside it
// is known when it starts, so the recorder applies them lazily: Set,
// Charge, Steps and CatchUp first apply, in order, each boundary at
// or before now, as if an event had fired there. So the step history never
// holds a step after now, and a Set at a boundary's instant lands after
// that boundary.
type Recorder struct {
	sched *sim.Scheduler
	// rest is the current the device returns to when a profile ends;
	// label, if set, sees each labeled segment with the instant it starts.
	rest  func() units.Amps
	label func(sim.Time, string)

	lastT  sim.Time
	charge units.Coulombs
	steps  []Step

	// The profile playing, from the segment under way (which ends at
	// segEnd) on, and the caller's completion. end is finish, bound once
	// so that playing allocates nothing.
	profile []Segment
	segEnd  sim.Time
	done    func()
	end     func()
}

// NewRecorder starts a waveform at the scheduler's current time, drawing
// rest(). label may be nil; it runs while the recorder applies boundaries,
// so it must not call back into the recorder.
func NewRecorder(sched *sim.Scheduler, rest func() units.Amps, label func(sim.Time, string)) *Recorder {
	r := &Recorder{sched: sched, rest: rest, label: label, lastT: sched.Now()}
	r.steps = append(r.steps, Step{At: r.lastT, Current: rest()})
	r.end = r.finish
	return r
}

// integrate adds the charge the last step draws from lastT up to t.
func (r *Recorder) integrate(t sim.Time) {
	if t > r.lastT {
		r.charge += units.Charge(r.steps[len(r.steps)-1].Current, t.Sub(r.lastT))
		r.lastT = t
	}
}

// step changes the current at t, logging a step if it differs.
func (r *Recorder) step(t sim.Time, a units.Amps) {
	r.integrate(t)
	if a != r.steps[len(r.steps)-1].Current {
		r.steps = append(r.steps, Step{At: t, Current: a})
	}
}

// begin starts segment s at t.
func (r *Recorder) begin(t sim.Time, s Segment) {
	if s.Label != "" && r.label != nil {
		r.label(t, s.Label)
	}
	r.step(t, s.Current)
}

// CatchUp applies every boundary of the playing profile at or before now.
// The recorder's own readers call it first; a caller that stamps its own
// instants beside the label callback's calls it to keep them in order.
func (r *Recorder) CatchUp() {
	now := r.sched.Now()
	for len(r.profile) > 1 && r.segEnd <= now {
		r.profile = r.profile[1:]
		t := r.segEnd
		r.segEnd = t.Add(r.profile[0].D)
		r.begin(t, r.profile[0])
	}
}

// Set changes the current from now on, logging a step if it differs.
func (r *Recorder) Set(a units.Amps) {
	r.CatchUp()
	r.step(r.sched.Now(), a)
}

// Charge reports the charge drawn since construction, integrated exactly
// over the waveform.
func (r *Recorder) Charge() units.Coulombs {
	r.CatchUp()
	r.integrate(r.sched.Now())
	return r.charge
}

// Steps returns the waveform recorded so far: each step's current holds
// until the next step's time.
func (r *Recorder) Steps() []Step {
	r.CatchUp()
	r.integrate(r.sched.Now())
	return r.steps
}

// Play runs a scripted profile: each segment's current for its duration,
// then the rest current, then done (which may be nil). It books one event,
// at the profile's end. Play panics if the previous profile is still
// playing.
func (r *Recorder) Play(segs []Segment, done func()) {
	if r.profile != nil {
		panic("energy: Play while a profile is still playing")
	}
	r.done = done
	if len(segs) == 0 {
		r.finish()
		return
	}
	now := r.sched.Now()
	r.profile, r.segEnd = segs, now.Add(segs[0].D)
	r.begin(now, segs[0])
	r.sched.DoAt(now.Add(ProfileDuration(segs)), r.end)
}

// finish ends the profile: its last boundaries, the rest current, done.
func (r *Recorder) finish() {
	r.CatchUp()
	done := r.done
	r.profile, r.done = nil, nil
	r.Set(r.rest())
	if done != nil {
		done()
	}
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
