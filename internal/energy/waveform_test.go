package energy

import (
	"math"
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
	return NewRecorder(s, func() units.Amps { return restA }, func(l string) { *labels = append(*labels, l) })
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
	// One scheduler event per segment, plus the one that started it.
	if got := s.Fired(); got != uint64(len(testProfile))+1 {
		t.Fatalf("%d events fired, want %d", got, len(testProfile)+1)
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
	if r.Current() != restA {
		t.Fatalf("current after the last profile = %v", r.Current())
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
