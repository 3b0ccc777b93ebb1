// Package obs is the simulator's observability layer: a sim-time trace
// recorder and a registry of the components' counters, which turn one run
// into the two views a production system is debugged through — a timeline
// and a set of counters.
//
// The paper's entire argument is a waveform (Figures 3a/3b are
// current-vs-time traces, Table 1 is their integral), so the layer is built
// around the same discipline as the simulation itself: every recorded
// event is keyed exclusively on sim.Time. No wall clock, no goroutine IDs,
// no map iteration feeds an export, which makes traces and metric
// snapshots byte-identical across runs and across GOMAXPROCS — the engine
// determinism contract (DESIGN.md §7) extended to observability.
//
// Cost model. Instrumented packages never call into obs unconditionally:
// every hook is a nil-guarded pointer in the host struct (the same pattern
// as mac.Port.Monitor), so a simulation with observability disabled pays
// one predictable branch per hook site and zero allocations — proven by
// BenchmarkObsDisabled. The wile-vet obsguard analyzer enforces the guard
// mechanically. With a Recorder attached, recording one event is an append
// to its event log; formatting work happens only at export time. Counters
// need no hook at all: every count is a plain field of a component's Stats,
// and a Registry that collected the Stats (a Source) reads them only when
// it is itself read. No simulator code pushes into a registry, so a
// snapshot is a function of the simulated run alone.
//
// Trace model. A Recorder owns a set of named tracks (one per device, MAC
// port, or instrument) and an ordered event log of slices (Span,
// Begin/End), instants and counter samples, held in memory as one slice.
// Every trace the simulator records is one Figure 3 window; the largest,
// the scheduler firehose of fig3a (-sched), is 773 events or 56.7 KB.
// WriteChromeTrace exports the log in the Chrome trace-event JSON format,
// which https://ui.perfetto.dev opens directly as a timeline: tracks become
// threads, counter tracks become counter lanes. Export is a pure function
// of the track list and the event log.
package obs

import (
	"io"

	"wile/internal/sim"
)

// TrackID names one timeline lane of a Recorder.
type TrackID int32

// phase codes, matching the Chrome trace-event "ph" field.
const (
	phSpan    = 'X' // complete slice: ts + dur
	phBegin   = 'B' // open slice
	phEnd     = 'E' // close the innermost open slice
	phInstant = 'i' // instant
	phCounter = 'C' // counter sample
)

// Event is one recorded trace event, stored raw and formatted only at
// export: the export bytes are a pure function of the track list and these
// fields, in record order.
type Event struct {
	At    sim.Time
	Dur   sim.Time
	Value float64
	Name  string
	Track TrackID
	Ph    byte
}

// startEvents is the event log's initial capacity (192 KiB of events), so
// a figure-scale trace, a few hundred events, never grows it.
const startEvents = 4096

// Recorder collects sim-time-stamped trace events in memory.
//
// A Recorder is intentionally not synchronized: each simulation kernel is
// single-goroutine by design (the experiment engine parallelizes across
// kernels, never within one), so a Recorder must be attached to exactly
// one kernel's components. Parallel sweeps that want traces attach one
// Recorder per point.
type Recorder struct {
	tracks []string
	events []Event
	// open tracks the begin-timestamps of the open slices per track, so
	// End can clamp a close that would travel back in time (a negative
	// duration renders as garbage in every trace viewer).
	open [][]sim.Time
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{events: make([]Event, 0, startEvents)} }

// Track registers a new timeline lane and returns its id. Tracks appear in
// the exported trace in registration order.
func (r *Recorder) Track(name string) TrackID {
	r.tracks = append(r.tracks, name)
	r.open = append(r.open, nil)
	return TrackID(len(r.tracks) - 1)
}

// Tracks reports the number of registered tracks.
func (r *Recorder) Tracks() int { return len(r.tracks) }

// Len reports the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// record appends one event to the log.
func (r *Recorder) record(e Event) { r.events = append(r.events, e) }

// Span records a complete slice [start, end) on the track. Spans may be
// recorded at the moment they end (the natural point for a state machine
// that learns durations retroactively); export order is record order and
// the format does not require time-sorted events. An end before start is a
// caller bug that would export a negative duration; it is clamped to a
// zero-length slice at start.
func (r *Recorder) Span(track TrackID, start, end sim.Time, name string) {
	if end < start {
		end = start
	}
	r.record(Event{Ph: phSpan, Track: track, At: start, Dur: end - start, Name: name})
}

// Begin opens a slice on the track. Slices on one track must nest; an
// unmatched Begin stays open to the end of the trace, which Perfetto
// renders as running off the right edge — exactly right for "the state the
// device was left in".
func (r *Recorder) Begin(track TrackID, at sim.Time, name string) {
	r.open[track] = append(r.open[track], at)
	r.record(Event{Ph: phBegin, Track: track, At: at, Name: name})
}

// End closes the innermost open slice on the track. An End before the
// matching Begin would export a negative duration; it is clamped to the
// Begin's timestamp.
func (r *Recorder) End(track TrackID, at sim.Time) {
	if stack := r.open[track]; len(stack) > 0 {
		if begin := stack[len(stack)-1]; at < begin {
			at = begin
		}
		r.open[track] = stack[:len(stack)-1]
	}
	r.record(Event{Ph: phEnd, Track: track, At: at})
}

// Instant records a zero-duration event on the track.
func (r *Recorder) Instant(track TrackID, at sim.Time, name string) {
	r.record(Event{Ph: phInstant, Track: track, At: at, Name: name})
}

// Counter records a sample of the track's counter series; the track name is
// the series name. Callers that sample a mostly-flat signal should record
// only on change — the meter does — so a 50 kSa/s waveform costs one event
// per step rather than one per sample.
func (r *Recorder) Counter(track TrackID, at sim.Time, value float64) {
	r.record(Event{Ph: phCounter, Track: track, At: at, Value: value})
}

// ObserveScheduler wires the kernel's dispatch hook to an instant event per
// fired simulation event on the given track. This is the firehose view —
// every timer, frame delivery and profile end becomes an event, 490 over
// the Figure 3a window — so figure-scale runs keep it off and debugging
// runs (wile-trace -sched) turn it on.
func ObserveScheduler(r *Recorder, sched *sim.Scheduler, track TrackID) {
	sched.OnDispatch = func(at sim.Time) { r.Instant(track, at, "dispatch") }
}

// WriteChromeTrace exports the recorded events as Chrome trace-event JSON
// (the "JSON Array Format" with a traceEvents wrapper), ready for
// https://ui.perfetto.dev or chrome://tracing. Export leaves the log as it
// is, so recording may go on and the recorder be exported again.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	e := newEncoder(w)
	names := quoteNames(r.tracks)
	e.lit("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	e.lit(`{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"wile-sim"}}`)
	for i := range r.tracks {
		tid := int64(i) + 1
		e.lit(",\n{\"ph\":\"M\",\"pid\":1,\"tid\":")
		e.num(tid)
		e.lit(`,"name":"thread_name","args":{"name":`)
		e.raw(names.at(i))
		e.lit("}}")
		e.lit(",\n{\"ph\":\"M\",\"pid\":1,\"tid\":")
		e.num(tid)
		e.lit(`,"name":"thread_sort_index","args":{"sort_index":`)
		e.num(tid)
		e.lit("}}")
	}
	for i := range r.events {
		writeEvent(e, &names, &r.events[i])
	}
	e.lit("\n]}\n")
	return e.flush()
}

// writeEvent renders one event. tracks holds the quoted track names, which
// counter events are named by.
func writeEvent(e encoder, tracks *quotedNames, ev *Event) {
	switch ev.Ph {
	case phSpan:
		e.lit(",\n{\"ph\":\"X\",\"pid\":1,\"tid\":")
		e.num(int64(ev.Track) + 1)
		e.lit(`,"ts":`)
		e.micros(ev.At)
		e.lit(`,"dur":`)
		e.micros(ev.Dur)
		e.lit(`,"name":`)
		e.quote(ev.Name)
		e.lit("}")
	case phBegin:
		e.lit(",\n{\"ph\":\"B\",\"pid\":1,\"tid\":")
		e.num(int64(ev.Track) + 1)
		e.lit(`,"ts":`)
		e.micros(ev.At)
		e.lit(`,"name":`)
		e.quote(ev.Name)
		e.lit("}")
	case phEnd:
		e.lit(",\n{\"ph\":\"E\",\"pid\":1,\"tid\":")
		e.num(int64(ev.Track) + 1)
		e.lit(`,"ts":`)
		e.micros(ev.At)
		e.lit("}")
	case phInstant:
		e.lit(",\n{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":")
		e.num(int64(ev.Track) + 1)
		e.lit(`,"ts":`)
		e.micros(ev.At)
		e.lit(`,"name":`)
		e.quote(ev.Name)
		e.lit("}")
	case phCounter:
		// Counter series attach to the process; the track name is the
		// series name and the single sampled value its only lane.
		e.lit(",\n{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":")
		e.micros(ev.At)
		e.lit(`,"name":`)
		e.raw(tracks.at(int(ev.Track)))
		e.lit(`,"args":{"value":`)
		e.jsonValue(ev.Value)
		e.lit("}}")
	}
}
