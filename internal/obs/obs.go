// Package obs is the simulator's observability layer: a sim-time trace
// recorder and a metrics registry that turn one run into the two views a
// production system is debugged through — a timeline and a set of counters.
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
// into a fixed-size staging chunk; formatting work happens only at export
// time. Component counters need no hook at all: they stay plain Stats
// fields, and a Registry that collected them (a Source) reads them only
// when it is itself read.
//
// Trace model. A Recorder owns a set of named tracks (one per device, MAC
// port, or instrument) and an ordered event log of slices (Span, Begin/End),
// instants and counter samples. The log lives in a pluggable Sink: the
// default MemorySink buffers everything (cheap, unbounded), while a
// SpillSink encodes full chunks to a temp file so live memory stays
// O(chunk) however long the run — the firehose view (-sched) needs this.
// WriteChromeTrace exports the log in the Chrome trace-event JSON format,
// which https://ui.perfetto.dev opens directly as a timeline: tracks become
// threads, counter tracks become counter lanes. Export is a pure function
// of the track list and the event stream, so a spilled run exports
// byte-identically to a buffered one.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

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
// export. Sinks receive events in chunks and must replay them unchanged:
// the export bytes are a pure function of this struct's fields.
type Event struct {
	At    sim.Time
	Dur   sim.Time
	Value float64
	Name  string
	Track TrackID
	Ph    byte
}

// ChunkEvents is the staging-chunk capacity of a Recorder: how many events
// accumulate in memory before the sink sees them. At ~56 bytes per event a
// full chunk is a few hundred kilobytes — the live-heap ceiling a spilling
// recorder holds regardless of trace length.
const ChunkEvents = 4096

// Recorder collects sim-time-stamped trace events into a Sink.
//
// A Recorder is intentionally not synchronized: each simulation kernel is
// single-goroutine by design (the experiment engine parallelizes across
// kernels, never within one), so a Recorder must be attached to exactly
// one kernel's components. Parallel sweeps that want traces attach one
// Recorder per point.
type Recorder struct {
	tracks []string
	chunk  []Event
	sink   Sink
	n      int
	err    error
	// open tracks the begin-timestamps of the open slices per track, so
	// End can clamp a close that would travel back in time (a negative
	// duration renders as garbage in every trace viewer).
	open [][]sim.Time
}

// NewRecorder returns an empty recorder buffering in memory — the classic
// unbounded recorder, right for figure-scale runs.
func NewRecorder() *Recorder { return NewStreamRecorder(NewMemorySink()) }

// NewStreamRecorder returns a recorder that flushes full staging chunks to
// the given sink. With a SpillSink the recorder's live memory is bounded by
// the chunk, not the trace.
func NewStreamRecorder(sink Sink) *Recorder {
	return &Recorder{sink: sink, chunk: make([]Event, 0, ChunkEvents)}
}

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
func (r *Recorder) Len() int { return r.n }

// Err reports the first sink error, if any. The record path cannot return
// errors (hook sites have no error plumbing), so a failing spill latches
// here and resurfaces from WriteChromeTrace.
func (r *Recorder) Err() error { return r.err }

// record stages one event, flushing the chunk to the sink when full.
func (r *Recorder) record(e Event) {
	r.chunk = append(r.chunk, e)
	r.n++
	if len(r.chunk) == cap(r.chunk) {
		r.flush()
	}
}

// flush hands the staged chunk to the sink.
func (r *Recorder) flush() {
	if len(r.chunk) == 0 {
		return
	}
	if err := r.sink.Flush(r.chunk); err != nil && r.err == nil {
		r.err = err
	}
	r.chunk = r.chunk[:0]
}

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
// per plateau rather than one per sample.
func (r *Recorder) Counter(track TrackID, at sim.Time, value float64) {
	r.record(Event{Ph: phCounter, Track: track, At: at, Value: value})
}

// ObserveScheduler wires the kernel's dispatch hook to an instant event per
// fired simulation event on the given track. This is the firehose view —
// every timer tick and meter sample becomes an event — so figure-scale runs
// keep it off and debugging sessions (wile-trace -sched) turn it on,
// ideally on a spill-backed recorder (see NewSpillSink).
func ObserveScheduler(r *Recorder, sched *sim.Scheduler, track TrackID) {
	sched.OnDispatch = func(at sim.Time) { r.Instant(track, at, "dispatch") }
}

// WriteChromeTrace exports the recorded events as Chrome trace-event JSON.
// It flushes the staging chunk first; a latched sink error surfaces here.
// The sink is left positioned for further recording, so a recorder may be
// exported more than once.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	r.flush()
	if r.err != nil {
		return r.err
	}
	return WriteChromeTrace(w, r.tracks, r.sink)
}

// WriteChromeTrace exports one event stream as Chrome trace-event JSON
// (the "JSON Array Format" with a traceEvents wrapper), ready for
// https://ui.perfetto.dev or chrome://tracing. It is a pure function of
// the track list and the replayed events: the same stream exports
// byte-identical bytes whether it was buffered in memory or spilled to
// disk, chunked this way or that.
func WriteChromeTrace(w io.Writer, tracks []string, events Sink) error {
	bw := &errWriter{w: w}
	bw.printf("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	bw.printf("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"wile-sim\"}}")
	for i, name := range tracks {
		bw.printf(",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}", i+1, quote(name))
		bw.printf(",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":%d}}", i+1, i+1)
	}
	err := events.Replay(func(chunk []Event) error {
		for i := range chunk {
			writeEvent(bw, tracks, &chunk[i])
		}
		return bw.err
	})
	if err != nil {
		return err
	}
	bw.printf("\n]}\n")
	return bw.err
}

// writeEvent renders one event; the formatting here is the byte-identity
// contract every Sink implementation is tested against.
func writeEvent(bw *errWriter, tracks []string, e *Event) {
	tid := int(e.Track) + 1
	switch e.Ph {
	case phSpan:
		bw.printf(",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%s}",
			tid, micros(e.At), micros(e.Dur), quote(e.Name))
	case phBegin:
		bw.printf(",\n{\"ph\":\"B\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"name\":%s}",
			tid, micros(e.At), quote(e.Name))
	case phEnd:
		bw.printf(",\n{\"ph\":\"E\",\"pid\":1,\"tid\":%d,\"ts\":%s}", tid, micros(e.At))
	case phInstant:
		bw.printf(",\n{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"name\":%s}",
			tid, micros(e.At), quote(e.Name))
	case phCounter:
		// Counter series attach to the process; the track name is the
		// series name and the single sampled value its only lane.
		bw.printf(",\n{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":%s,\"name\":%s,\"args\":{\"value\":%s}}",
			micros(e.At), quote(tracks[e.Track]), formatValue(e.Value))
	}
}

// micros renders a sim.Time (nanoseconds) as the microsecond timestamps the
// trace format uses, with the sub-microsecond remainder as three fixed
// decimals so distinct virtual instants never collapse. Negative times
// carry one leading sign: -1500 ns is "-1.500", never "-1.-500".
func micros(t sim.Time) string {
	sign := ""
	if t < 0 {
		sign, t = "-", -t
	}
	us, ns := t/1000, t%1000
	return fmt.Sprintf("%s%d.%03d", sign, us, ns)
}

// quote renders a name as a JSON string. A name of printable ASCII other
// than '"' and '\\' is quoted as is; anything else goes through the JSON
// encoder without its HTML escaping, so control bytes, invalid UTF-8 and
// every rune come out as valid JSON.
func quote(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			var b strings.Builder
			enc := json.NewEncoder(&b)
			enc.SetEscapeHTML(false)
			_ = enc.Encode(s) // a string always encodes
			return strings.TrimSuffix(b.String(), "\n")
		}
	}
	return `"` + s + `"`
}

// formatValue renders a counter sample with the shortest round-trip float
// formatting, which is deterministic for a given bit pattern.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// errWriter latches the first write error so export code reads linearly.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
