package obs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"

	"wile/internal/sim"
)

// fillRecorder records a deterministic mixed-kind event stream of n events
// (approximately; spans/begins/ends come in small groups).
func fillRecorder(r *Recorder, n int) {
	dev := r.Track("dev power")
	mac := r.Track("dev mac")
	cur := r.Track("current_mA")
	sched := r.Track("sched")
	for i := 0; r.Len() < n; i++ {
		at := sim.Time(i) * sim.Microsecond
		switch i % 5 {
		case 0:
			r.Begin(dev, at, "cpu-active")
		case 1:
			r.Span(mac, at, at+3*sim.Microsecond, "tx beacon")
		case 2:
			r.Counter(cur, at, float64(i%97)*0.31)
		case 3:
			r.End(dev, at)
		default:
			r.Instant(sched, at, "dispatch")
		}
	}
}

// TestStreamedExportByteIdentical is the tentpole's core contract: the same
// event stream exports byte-identically through the in-memory sink and the
// spill-to-disk sink, across GOMAXPROCS settings, and for stream lengths
// that exercise zero, one and many chunk flushes.
func TestStreamedExportByteIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 7, ChunkEvents - 1, ChunkEvents, 3*ChunkEvents + 11} {
			buffered := NewRecorder()
			fillRecorder(buffered, n)
			var want bytes.Buffer
			if err := buffered.WriteChromeTrace(&want); err != nil {
				t.Fatal(err)
			}

			spill, err := NewSpillSink(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			streamed := NewStreamRecorder(spill)
			fillRecorder(streamed, n)
			var got bytes.Buffer
			if err := streamed.WriteChromeTrace(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("procs=%d n=%d: spilled export differs from buffered (%d vs %d bytes)",
					procs, n, got.Len(), want.Len())
			}
			if err := spill.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSpillSinkRoundTripExactValues pins the binary framing against the
// value edge cases the JSON formatter is sensitive to: negative timestamps,
// counter bit patterns (including negative zero and ±Inf), and repeated
// interned names.
func TestSpillSinkRoundTripExactValues(t *testing.T) {
	events := []Event{
		{Ph: 'X', Track: 0, At: -1500, Dur: 1, Name: "negative start"},
		{Ph: 'i', Track: 1, At: 0, Name: "dispatch"},
		{Ph: 'i', Track: 1, At: 1, Name: "dispatch"},
		{Ph: 'C', Track: 2, At: 2, Value: math.Copysign(0, -1)},
		{Ph: 'C', Track: 2, At: 3, Value: math.Inf(1)},
		{Ph: 'C', Track: 2, At: 4, Value: 0.1 + 0.2},
		{Ph: 'B', Track: 0, At: 5, Name: "negative start"},
		{Ph: 'E', Track: 0, At: 6},
	}
	s, err := NewSpillSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Flush(events[:3]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(events[3:]); err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(events) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(events))
	}
	// Two replays must both see the exact stream (Replay does not consume).
	for round := 0; round < 2; round++ {
		var got []Event
		if err := s.Replay(func(chunk []Event) error {
			got = append(got, chunk...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(events) {
			t.Fatalf("round %d: replayed %d events, want %d", round, len(got), len(events))
		}
		for i := range events {
			want, have := events[i], got[i]
			// Compare Value by bit pattern: NaN/−0 compare wrong as floats.
			if want.At != have.At || want.Dur != have.Dur || want.Name != have.Name ||
				want.Track != have.Track || want.Ph != have.Ph ||
				math.Float64bits(want.Value) != math.Float64bits(have.Value) {
				t.Fatalf("round %d event %d: got %+v, want %+v", round, i, have, want)
			}
		}
	}
}

// TestSpillSinkFlushAfterReplay verifies the sink repositions correctly
// when recording resumes after an export — the wile-trace flow when a
// run is exported mid-way for inspection.
func TestSpillSinkFlushAfterReplay(t *testing.T) {
	s, err := NewSpillSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := NewStreamRecorder(s)
	tr := r.Track("t")
	r.Instant(tr, 1, "a")
	var first bytes.Buffer
	if err := r.WriteChromeTrace(&first); err != nil {
		t.Fatal(err)
	}
	r.Instant(tr, 2, "b")
	var second bytes.Buffer
	if err := r.WriteChromeTrace(&second); err != nil {
		t.Fatal(err)
	}
	want := NewRecorder()
	wtr := want.Track("t")
	want.Instant(wtr, 1, "a")
	want.Instant(wtr, 2, "b")
	var wantBuf bytes.Buffer
	if err := want.WriteChromeTrace(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second.Bytes(), wantBuf.Bytes()) {
		t.Fatalf("post-replay recording diverged:\n%s\n---\n%s", second.Bytes(), wantBuf.Bytes())
	}
}

// TestSpillSinkTruncatedFile cuts the spill file at every byte offset. A
// cut inside a record makes Replay, and WriteChromeTrace over the sink,
// fail with io.ErrUnexpectedEOF rather than panic; a cut at a record
// boundary replays exactly the events recorded before it.
func TestSpillSinkTruncatedFile(t *testing.T) {
	events := []Event{
		{Ph: phSpan, Track: 0, At: 10, Dur: 5, Name: "tx beacon"},
		{Ph: phCounter, Track: 1, At: 20, Value: 3.5},
		{Ph: phInstant, Track: 0, At: -30, Name: "tx beacon"},
		{Ph: phBegin, Track: 0, At: 1 << 40, Name: "cpu-active"},
		{Ph: phEnd, Track: 0, At: 1 << 41},
	}
	s, err := NewSpillSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Flushing one event at a time marks the record boundaries: the end of
	// each event record and of the string definition a new name puts in
	// front of it. Each maps to the number of events before it.
	boundaries := map[int64]int{0: 0}
	seen := map[string]bool{}
	for i := range events {
		start, err := s.f.Seek(0, io.SeekEnd)
		if err != nil {
			t.Fatal(err)
		}
		if name := events[i].Name; name != "" && !seen[name] {
			seen[name] = true
			def := 1 + len(binary.AppendUvarint(nil, uint64(len(name)))) + len(name)
			boundaries[start+int64(def)] = i
		}
		if err := s.Flush(events[i : i+1]); err != nil {
			t.Fatal(err)
		}
		end, err := s.f.Seek(0, io.SeekEnd)
		if err != nil {
			t.Fatal(err)
		}
		boundaries[end] = i + 1
	}
	full, err := os.ReadFile(s.f.Name())
	if err != nil {
		t.Fatal(err)
	}
	tracks := []string{"dev", "current_mA"}
	for cut := 0; cut <= len(full); cut++ {
		if err := s.f.Truncate(0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.f.WriteAt(full[:cut], 0); err != nil {
			t.Fatal(err)
		}
		var got []Event
		err := s.Replay(func(chunk []Event) error {
			got = append(got, chunk...)
			return nil
		})
		n, atBoundary := boundaries[int64(cut)]
		if atBoundary {
			if err != nil || !slices.Equal(got, events[:n]) {
				t.Errorf("cut at record boundary %d: replayed %v, %v; want the first %d events", cut, got, err, n)
			}
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at byte %d of %d: Replay returned %v, want io.ErrUnexpectedEOF", cut, len(full), err)
		}
		if err := WriteChromeTrace(io.Discard, tracks, s); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at byte %d of %d: WriteChromeTrace returned %v, want io.ErrUnexpectedEOF", cut, len(full), err)
		}
	}
}

// TestSpillRecorderBoundedHeap is the scaling gate: a firehose-sized
// recording through a spill sink must keep the live heap under a fixed
// ceiling a buffered recorder would blow through many times over.
func TestSpillRecorderBoundedHeap(t *testing.T) {
	const events = 1_000_000 // ≥56 MB if buffered in memory
	const ceiling = 16 << 20 // 16 MB of live-heap growth allowed

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	s, err := NewSpillSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := NewStreamRecorder(s)
	fillRecorder(r, events)
	if err := r.WriteChromeTrace(io.Discard); err != nil {
		t.Fatal(err)
	}
	if r.Len() < events {
		t.Fatalf("recorded %d events, want ≥ %d", r.Len(), events)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > ceiling {
		t.Fatalf("live heap grew %d bytes over a %d-event spill run; ceiling is %d",
			grew, events, ceiling)
	}
}

// TestRecorderLatchesSinkError verifies a failing sink surfaces at export
// instead of panicking a hook site.
func TestRecorderLatchesSinkError(t *testing.T) {
	s, err := NewSpillSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewStreamRecorder(s)
	tr := r.Track("t")
	for i := 0; i <= ChunkEvents; i++ { // force one flush into the closed sink
		r.Instant(tr, sim.Time(i), "tick")
	}
	if r.Err() == nil {
		t.Fatal("flush into a closed sink did not latch an error")
	}
	if err := r.WriteChromeTrace(io.Discard); err == nil {
		t.Fatal("WriteChromeTrace did not surface the latched sink error")
	}
}
