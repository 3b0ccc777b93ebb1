package obs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"wile/internal/sim"
)

// Sink stores a Recorder's event stream between recording and export. The
// recorder hands events over in chunks (Flush); export pulls them back in
// record order (Replay). The contract that makes streaming invisible:
// Replay must yield exactly the events Flush received, unchanged and in
// order — chunk boundaries may differ — so WriteChromeTrace produces
// byte-identical output over any correct implementation.
type Sink interface {
	// Flush appends one chunk of events to the store. The slice is reused
	// by the recorder after the call returns; implementations must copy
	// what they keep.
	Flush(chunk []Event) error
	// Replay streams the stored events to yield, in record order, without
	// consuming them: a second Replay sees the same stream, and events
	// flushed afterwards append behind it.
	Replay(yield func(chunk []Event) error) error
	// Len reports the number of stored events.
	Len() int
	// Close releases backing resources (spill files). The sink is
	// unusable afterwards.
	Close() error
}

// MemorySink buffers the whole event stream in memory — the classic
// recorder storage. Cheap per event, unbounded overall: a firehose run
// holds every event live until export.
type MemorySink struct {
	events []Event
}

// NewMemorySink returns an empty in-memory store.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Flush appends the chunk to the in-memory log.
func (m *MemorySink) Flush(chunk []Event) error {
	m.events = append(m.events, chunk...)
	return nil
}

// Replay yields the whole log as one chunk.
func (m *MemorySink) Replay(yield func(chunk []Event) error) error {
	return yield(m.events)
}

// Len reports the number of stored events.
func (m *MemorySink) Len() int { return len(m.events) }

// Close drops the log.
func (m *MemorySink) Close() error {
	m.events = nil
	return nil
}

// SpillSink encodes each flushed chunk to a temp file in a compact binary
// framing, keeping live memory at O(chunk) + O(unique names) no matter how
// long the trace grows — export cost scales with the chunk, not the trace.
// Event names are interned through a string table (they repeat massively:
// "dispatch", power-state names, MAC span labels), so the file stays a few
// tens of bytes per event and replay allocates each distinct name once.
//
// The framing is private to one process run — records are:
//
//	'S' uvarint(len) bytes...   define the next string-table id
//	'E' uvarint(track) ph varint(at) varint(dur) uvarint(nameID+1|0)
//	    [8-byte value, counters only]
type SpillSink struct {
	f     *os.File
	ids   map[string]uint32 // encode-side intern table
	buf   []byte            // encode scratch, reused per chunk
	n     int
	atEnd bool // file offset is at the append position
}

// spill record tags.
const (
	spillString = 'S'
	spillEvent  = 'E'
)

// spillReadBuf sizes the replay read buffer, which also bounds the length
// of a name; no other record comes close.
const spillReadBuf = 64 << 10

// NewSpillSink creates a spill store backed by a fresh temp file in dir
// (the default temp directory when dir is empty). Close removes the file.
func NewSpillSink(dir string) (*SpillSink, error) {
	f, err := os.CreateTemp(dir, "wile-trace-*.spill")
	if err != nil {
		return nil, fmt.Errorf("obs: creating spill file: %w", err)
	}
	return &SpillSink{f: f, ids: make(map[string]uint32), atEnd: true}, nil
}

// Flush encodes the chunk and appends it to the spill file.
func (s *SpillSink) Flush(chunk []Event) error {
	if s.f == nil {
		return fmt.Errorf("obs: spill sink is closed")
	}
	if !s.atEnd {
		if _, err := s.f.Seek(0, io.SeekEnd); err != nil {
			return fmt.Errorf("obs: seeking spill file: %w", err)
		}
		s.atEnd = true
	}
	s.buf = s.buf[:0]
	for i := range chunk {
		s.buf = s.appendEvent(s.buf, &chunk[i])
	}
	if _, err := s.f.Write(s.buf); err != nil {
		return fmt.Errorf("obs: writing spill file: %w", err)
	}
	s.n += len(chunk)
	return nil
}

// appendEvent encodes one event, interning its name.
func (s *SpillSink) appendEvent(b []byte, e *Event) []byte {
	nameID := uint64(0)
	if e.Name != "" {
		id, ok := s.ids[e.Name]
		if !ok {
			id = uint32(len(s.ids))
			s.ids[e.Name] = id
			b = append(b, spillString)
			b = binary.AppendUvarint(b, uint64(len(e.Name)))
			b = append(b, e.Name...)
		}
		nameID = uint64(id) + 1
	}
	b = append(b, spillEvent)
	b = binary.AppendUvarint(b, uint64(e.Track))
	b = append(b, e.Ph)
	b = binary.AppendVarint(b, int64(e.At))
	b = binary.AppendVarint(b, int64(e.Dur))
	b = binary.AppendUvarint(b, nameID)
	if e.Ph == phCounter {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Value))
	}
	return b
}

// Replay decodes the spill file from the start, yielding fixed-size chunks.
// Live memory during replay is one chunk, the read buffer and the rebuilt
// string table.
func (s *SpillSink) Replay(yield func(chunk []Event) error) error {
	if s.f == nil {
		return fmt.Errorf("obs: spill sink is closed")
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("obs: rewinding spill file: %w", err)
	}
	s.atEnd = false
	r := bufio.NewReaderSize(s.f, spillReadBuf)
	names := make([]string, 0, len(s.ids)) // the file defines every interned name
	chunk := make([]Event, 0, ChunkEvents)
	for {
		tag, err := r.ReadByte()
		switch {
		case err == io.EOF:
			return yield(chunk)
		case err != nil:
			return spillReadErr(err)
		case tag == spillString:
			name, err := readSpillName(r)
			if err != nil {
				return err
			}
			names = append(names, name)
		case tag == spillEvent:
			e, err := readSpillEvent(r, names)
			if err != nil {
				return err
			}
			chunk = append(chunk, e)
			if len(chunk) == cap(chunk) {
				if err := yield(chunk); err != nil {
					return err
				}
				chunk = chunk[:0]
			}
		default:
			return fmt.Errorf("obs: corrupt spill file (tag %q)", tag)
		}
	}
}

// Len reports the number of spilled events.
func (s *SpillSink) Len() int { return s.n }

// Close closes and removes the spill file.
func (s *SpillSink) Close() error {
	if s.f == nil {
		return nil
	}
	name := s.f.Name()
	err := s.f.Close()
	s.f = nil
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	return err
}

// readSpillName decodes the rest of a string definition. Its bytes are
// peeked in place, so a name may not outgrow the read buffer.
func readSpillName(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", spillReadErr(err)
	}
	if n > spillReadBuf {
		return "", fmt.Errorf("obs: spill record of %d bytes exceeds the read buffer", n)
	}
	raw, err := r.Peek(int(n))
	if err != nil {
		return "", spillReadErr(err)
	}
	name := string(raw)
	_, err = r.Discard(len(raw))
	return name, err
}

// readSpillEvent decodes the rest of an event record against the string
// table defined so far.
func readSpillEvent(r *bufio.Reader, names []string) (Event, error) {
	var e Event
	track, err := binary.ReadUvarint(r)
	if err != nil {
		return e, spillReadErr(err)
	}
	if e.Ph, err = r.ReadByte(); err != nil {
		return e, spillReadErr(err)
	}
	at, err := binary.ReadVarint(r)
	if err != nil {
		return e, spillReadErr(err)
	}
	dur, err := binary.ReadVarint(r)
	if err != nil {
		return e, spillReadErr(err)
	}
	nameID, err := binary.ReadUvarint(r)
	if err != nil {
		return e, spillReadErr(err)
	}
	e.Track, e.At, e.Dur = TrackID(track), sim.Time(at), sim.Time(dur)
	if nameID > uint64(len(names)) {
		return e, fmt.Errorf("obs: spill file names %d before defining it", nameID-1)
	}
	if nameID > 0 {
		e.Name = names[nameID-1]
	}
	if e.Ph == phCounter {
		// Peek rather than read into an array, which would escape to the
		// heap once per counter.
		raw, err := r.Peek(8)
		if err != nil {
			return e, spillReadErr(err)
		}
		e.Value = math.Float64frombits(binary.LittleEndian.Uint64(raw))
		_, err = r.Discard(8)
		return e, err
	}
	return e, nil
}

// spillReadErr reports a failed read of the spill file. Only a record's
// tag may meet a clean end of file, so an io.EOF here means the record
// was cut short.
func spillReadErr(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("obs: reading spill file: %w", err)
}
