package energy

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"wile/internal/sim"
	"wile/internal/units"
)

var (
	restA       = units.MicroAmps(2)
	testProfile = []Segment{
		{D: 3 * time.Millisecond, Current: units.MilliAmps(40), Label: "boot"},
		{D: 2 * time.Millisecond, Current: units.MilliAmps(40)},
		{D: 5 * time.Millisecond, Current: units.MilliAmps(70), Label: "cal"},
	}
)

func newTestRecorder(s *sim.Scheduler, labels *[]string) *Recorder {
	return NewRecorder(s, func() units.Amps { return restA }, func(_ sim.Time, l string) { *labels = append(*labels, l) })
}

func TestRecorderPlaysProfile(t *testing.T) {
	s := sim.New()
	var labels []string
	r := newTestRecorder(s, &labels)
	var doneAt sim.Time
	s.After(time.Millisecond, func() { r.Play(testProfile, func() { doneAt = s.Now() }) })
	s.RunUntil(20 * sim.Millisecond)

	if want := sim.FromDuration(time.Millisecond + ProfileDuration(testProfile)); doneAt != want {
		t.Fatalf("done at %v, want %v", doneAt, want)
	}
	// Equal consecutive currents log one step; the profile ends at rest.
	want := []Step{
		{At: 0, Current: restA},
		{At: sim.Millisecond, Current: units.MilliAmps(40)},
		{At: 6 * sim.Millisecond, Current: units.MilliAmps(70)},
		{At: 11 * sim.Millisecond, Current: restA},
	}
	if got := r.Steps(); !reflect.DeepEqual(got, want) {
		t.Fatalf("steps = %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(labels, []string{"boot", "cal"}) {
		t.Fatalf("labels = %q", labels)
	}
	// One scheduler event for the profile, at its end, plus the one that
	// started it.
	if got := s.Fired(); got != 2 {
		t.Fatalf("%d events fired, want 2", got)
	}
	wantQ := ProfileCharge(testProfile) + units.Charge(restA, 10*time.Millisecond)
	if got := r.Charge(); math.Abs(float64(got-wantQ)) > 1e-15 {
		t.Fatalf("charge = %v, want %v", got, wantQ)
	}
}

func TestRecorderPlayWhilePlayingPanics(t *testing.T) {
	s := sim.New()
	var labels []string
	r := newTestRecorder(s, &labels)
	r.Play(testProfile, nil)
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "energy: ") {
			t.Fatalf("second Play recovered %q, want an energy: panic", msg)
		}
	}()
	r.Play(testProfile, nil)
}

func TestRecorderDoneMayPlayAgain(t *testing.T) {
	s := sim.New()
	var labels []string
	r := newTestRecorder(s, &labels)
	plays := 0
	var again func()
	again = func() {
		if plays++; plays < 3 {
			r.Play(testProfile, again)
		}
	}
	r.Play(testProfile, again)
	s.Run()
	if plays != 3 || s.Now() != sim.FromDuration(3*ProfileDuration(testProfile)) {
		t.Fatalf("%d plays ending at %v", plays, s.Now())
	}
	if a := current(r); a != restA {
		t.Fatalf("current after the last profile = %v", a)
	}
}

func TestWaveformQueries(t *testing.T) {
	tx, idle := units.MilliAmps(180), units.MicroAmps(2.5)
	steps := []Step{
		{At: 0, Current: idle},
		{At: 10 * sim.Millisecond, Current: units.MilliAmps(30)},
		{At: 12 * sim.Millisecond, Current: tx},
		{At: 13 * sim.Millisecond, Current: units.MilliAmps(30)},
		{At: 15 * sim.Millisecond, Current: tx},
		{At: 17 * sim.Millisecond, Current: idle},
	}
	end := 50 * sim.Millisecond
	if got, want := ChargeAt(steps, tx, end), units.Charge(tx, 3*time.Millisecond); math.Abs(float64(got-want)) > 1e-15 {
		t.Errorf("TX charge = %v, want %v", got, want)
	}
	if got := LastAbove(steps, idle, end); got != 17*sim.Millisecond {
		t.Errorf("wake ends at %v, want 17 ms", got)
	}
	// A waveform still awake at end holds its last step until end.
	if got := LastAbove(steps[:5], idle, end); got != end {
		t.Errorf("open wake ends at %v, want %v", got, end)
	}
	if got := LastAbove(steps[:1], idle, end); got != 0 {
		t.Errorf("a waveform that never woke ends at %v", got)
	}
}

// TestSetAtABoundaryLandsAfterIt pins the catch-up rule where the
// per-segment player left it to sequence numbers: a Set at a boundary's
// instant lands after the boundary, even from an event booked before the
// profile started, and no read sees a step after now.
func TestSetAtABoundaryLandsAfterIt(t *testing.T) {
	s := sim.New()
	var labels []string
	r := newTestRecorder(s, &labels)
	x := units.MilliAmps(5)
	var at5 []Step
	var at6 units.Amps
	s.After(5*time.Millisecond, func() { at5 = append(at5, r.Steps()...) })
	s.After(6*time.Millisecond, func() { at6 = current(r); r.Set(x) })
	s.After(time.Millisecond, func() { r.Play(testProfile, nil) })
	s.Run()

	if want := []Step{{0, restA}, {sim.Millisecond, units.MilliAmps(40)}}; !reflect.DeepEqual(at5, want) {
		t.Fatalf("steps at 5 ms = %+v, want %+v", at5, want)
	}
	if at6 != units.MilliAmps(70) {
		t.Fatalf("current at the 6 ms boundary = %v, want the segment's 70 mA", at6)
	}
	want := []Step{
		{At: 0, Current: restA},
		{At: sim.Millisecond, Current: units.MilliAmps(40)},
		{At: 6 * sim.Millisecond, Current: units.MilliAmps(70)},
		{At: 6 * sim.Millisecond, Current: x},
		{At: 11 * sim.Millisecond, Current: restA},
	}
	if got := r.Steps(); !reflect.DeepEqual(got, want) {
		t.Fatalf("steps = %+v\nwant %+v", got, want)
	}
}

// oracle is the per-segment player the recorder replaced: one scheduler
// event per segment boundary, each applying its boundary as it fires. It
// is the reference TestRecorderMatchesOracle holds the recorder to.
type oracle struct {
	sched *sim.Scheduler
	rest  func() units.Amps
	label func(sim.Time, string)

	lastT  sim.Time
	charge units.Coulombs
	steps  []Step

	profile []Segment
	pos     int
	done    func()
}

func newOracle(sched *sim.Scheduler, rest func() units.Amps, label func(sim.Time, string)) waveform {
	o := &oracle{sched: sched, rest: rest, label: label, lastT: sched.Now()}
	o.steps = append(o.steps, Step{At: o.lastT, Current: rest()})
	return o
}

func (o *oracle) touch() {
	if now := o.sched.Now(); now > o.lastT {
		o.charge += units.Charge(o.last(), now.Sub(o.lastT))
		o.lastT = now
	}
}

func (o *oracle) Set(a units.Amps) {
	o.touch()
	if a != o.last() {
		o.steps = append(o.steps, Step{At: o.sched.Now(), Current: a})
	}
}

func (o *oracle) last() units.Amps { return o.steps[len(o.steps)-1].Current }

func (o *oracle) Charge() units.Coulombs {
	o.touch()
	return o.charge
}

func (o *oracle) Steps() []Step {
	o.touch()
	return o.steps
}

func (o *oracle) Play(segs []Segment, done func()) {
	if o.profile != nil {
		panic("energy: Play while a profile is still playing")
	}
	o.profile, o.pos, o.done = segs, -1, done
	o.next()
}

func (o *oracle) next() {
	o.pos++
	if o.pos == len(o.profile) {
		done := o.done
		o.profile, o.done = nil, nil
		o.Set(o.rest())
		if done != nil {
			done()
		}
		return
	}
	s := o.profile[o.pos]
	if s.Label != "" && o.label != nil {
		o.label(o.sched.Now(), s.Label)
	}
	o.Set(s.Current)
	o.sched.DoAfter(s.D, o.next)
}

// waveform is what the recorder and the oracle both offer.
type waveform interface {
	Set(units.Amps)
	Charge() units.Coulombs
	Steps() []Step
	Play([]Segment, func())
}

// current is w's draw now: the current of the last step of its history.
func current(w waveform) units.Amps {
	steps := w.Steps()
	return steps[len(steps)-1].Current
}

// script is one random world for TestRecorderMatchesOracle: profiles
// played back to back, calls at instants strictly between boundaries, and
// RunUntil deadlines, some of them inside a profile or at a boundary.
type script struct {
	start     sim.Time
	plays     []play
	calls     []call
	deadlines []sim.Time
}

// play is one profile; gap is how long after the previous profile's done
// it starts, 0 meaning from inside that done.
type play struct {
	segs []Segment
	gap  time.Duration
}

// call is one action at an instant: kind 0 sets the current to a, 1 makes
// a the rest current, 2 reads the last step's current, 3 Charge, 4 Steps.
type call struct {
	at   sim.Time
	kind int
	a    units.Amps
}

// observed is everything a run of a script shows: each read (the current,
// the charge's bits, the step history), the labels with their instants,
// and the instants done ran.
type observed struct {
	reads  []any
	labels []Mark
	dones  []sim.Time
}

var palette = []units.Amps{0, units.MicroAmps(2), units.MilliAmps(40), units.MilliAmps(70), units.MilliAmps(180)}

func randomScript(rng *rand.Rand) script {
	sc := script{start: sim.Time(rng.Int63n(int64(sim.Millisecond)))}
	dur := func() time.Duration {
		switch rng.Intn(3) {
		case 0:
			return time.Duration(1 + rng.Intn(5))
		case 1:
			return time.Duration(1+rng.Intn(1000)) * time.Microsecond
		}
		return time.Duration(1+rng.Intn(5)) * time.Millisecond
	}
	// Lay the plays out to find every boundary, and each play's own.
	boundary := map[sim.Time]bool{}
	var bounds [][]sim.Time
	t := sc.start
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		p := play{}
		if i > 0 && rng.Intn(2) == 0 {
			p.gap = dur()
		}
		t = t.Add(p.gap)
		own := []sim.Time{t}
		boundary[t] = true
		for j, m := 0, rng.Intn(26); j < m; j++ {
			seg := Segment{D: dur(), Current: palette[rng.Intn(len(palette))]}
			if rng.Intn(3) == 0 {
				seg.Label = fmt.Sprintf("L%d.%d", i, j)
			}
			p.segs = append(p.segs, seg)
			t = t.Add(seg.D)
			own = append(own, t)
			boundary[t] = true
		}
		sc.plays = append(sc.plays, p)
		bounds = append(bounds, own)
	}
	end := t + sim.Millisecond
	for i, n := 0, rng.Intn(30); i < n; i++ {
		at := sim.Time(1 + rng.Int63n(int64(end)))
		if boundary[at] {
			continue
		}
		sc.calls = append(sc.calls, call{at: at, kind: rng.Intn(5), a: palette[rng.Intn(len(palette))]})
	}
	// Half the deadlines fall on a boundary, the rest anywhere in a play.
	var last sim.Time
	for i, n := 0, rng.Intn(4); i < n; i++ {
		own := bounds[rng.Intn(len(bounds))]
		d := own[rng.Intn(len(own))]
		if from, to := own[0], own[len(own)-1]; rng.Intn(2) == 0 {
			d = from + sim.Time(rng.Int63n(int64(to-from)+1))
		}
		if d > last {
			sc.deadlines = append(sc.deadlines, d)
			last = d
		}
	}
	return sc
}

// run plays sc on a waveform built by mk and reports what it showed.
func (sc script) run(mk func(*sim.Scheduler, func() units.Amps, func(sim.Time, string)) waveform) observed {
	s := sim.New()
	var ob observed
	rest := restA
	w := mk(s, func() units.Amps { return rest }, func(at sim.Time, l string) {
		ob.labels = append(ob.labels, Mark{At: at, Label: l})
	})
	read := func() {
		ob.reads = append(ob.reads, s.Now(), math.Float64bits(float64(w.Charge())),
			append([]Step(nil), w.Steps()...))
	}
	for _, c := range sc.calls {
		s.DoAt(c.at, func() {
			switch c.kind {
			case 0:
				w.Set(c.a)
			case 1:
				rest = c.a
			case 2:
				ob.reads = append(ob.reads, s.Now(), current(w))
			case 3:
				ob.reads = append(ob.reads, s.Now(), math.Float64bits(float64(w.Charge())))
			case 4:
				ob.reads = append(ob.reads, s.Now(), append([]Step(nil), w.Steps()...))
			}
		})
	}
	var playFrom func(i int)
	playFrom = func(i int) {
		w.Play(sc.plays[i].segs, func() {
			ob.dones = append(ob.dones, s.Now())
			if i+1 == len(sc.plays) {
				return
			}
			if gap := sc.plays[i+1].gap; gap > 0 {
				s.DoAfter(gap, func() { playFrom(i + 1) })
				return
			}
			playFrom(i + 1)
		})
	}
	s.DoAt(sc.start, func() { playFrom(0) })
	for _, d := range sc.deadlines {
		s.RunUntil(d)
		read()
	}
	s.Run()
	read()
	return ob
}

// TestRecorderMatchesOracle holds the one-event recorder to the
// per-segment player over random worlds: profiles of 0–25 segments down
// to 1 ns, with equal neighbours and labels anywhere, played again from
// done or after a gap; Sets, rest changes and reads strictly between
// boundaries; and RunUntil deadlines inside profiles. Every read, every
// label's instant and every done's instant must match, the charge bit for
// bit.
func TestRecorderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	recorder := func(s *sim.Scheduler, rest func() units.Amps, label func(sim.Time, string)) waveform {
		return NewRecorder(s, rest, label)
	}
	for trial := 0; trial < 2000; trial++ {
		sc := randomScript(rng)
		got, want := sc.run(recorder), sc.run(newOracle)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: the recorder diverges from the oracle\nscript %+v\ngot  %+v\nwant %+v", trial, sc, got, want)
		}
	}
}
