package obs

// The export encoder. Every exporter in this package (the two drop-report
// formats, the Chrome trace, the series CSV and the registry snapshot)
// writes through one encoder over a 4 KiB bufio.Writer. Literals are
// copied in whole; numbers and quoted names are appended straight into the
// writer's free buffer. So an export allocates nothing per line, unless a
// name needs JSON escapes, and hands its destination one write per 4 KiB.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"strconv"

	"wile/internal/sim"
)

// exportChunk is the encoder's buffer size, so about the size of every
// write an export makes to its destination. A bytes.Buffer destination
// grows by the sizes of the writes it receives: perfbench's ledger op,
// which reports into one, allocated 0.92 MB per op with 2, 4 or 8 KiB
// chunks and 1.05 MB with 6 KiB ones (seed 5).
const exportChunk = 4096

// maxNumber bounds one appended number: an int64 (20 bytes), a micros
// timestamp (a sign, 16 digits, a point and 3 decimals) or a shortest
// float64 ("-1.7976931348623157e+308", 24 bytes).
const maxNumber = 24

// encoder appends export text to a bufio.Writer. The writer latches its
// first error: every later write is a no-op that returns it, and so does
// the final flush. Its methods therefore drop their write results, and an
// exporter reads the error once, from err or flush.
type encoder struct {
	w *bufio.Writer
}

func newEncoder(w io.Writer) encoder { return encoder{bufio.NewWriterSize(w, exportChunk)} }

// lit writes a literal.
func (e encoder) lit(s string) { _, _ = e.w.WriteString(s) }

// raw writes bytes made elsewhere, such as a name quoted once per export.
func (e encoder) raw(b []byte) { _, _ = e.w.Write(b) }

// room returns the writer's free buffer with at least n bytes of capacity,
// flushing first when fewer are free, so an append of up to n bytes stays
// inside the buffer instead of reallocating it.
func (e encoder) room(n int) []byte {
	if e.w.Available() < n {
		_ = e.w.Flush() // a failure latches; err and flush report it
	}
	return e.w.AvailableBuffer()
}

// num writes a decimal integer.
func (e encoder) num(v int64) { e.raw(strconv.AppendInt(e.room(maxNumber), v, 10)) }

// micros writes a sim.Time as a trace timestamp (see appendMicros).
func (e encoder) micros(t sim.Time) { e.raw(appendMicros(e.room(maxNumber), t)) }

// value writes a float with the shortest round-trip formatting, which is
// deterministic for a given bit pattern.
func (e encoder) value(v float64) { e.raw(strconv.AppendFloat(e.room(maxNumber), v, 'g', -1, 64)) }

// quote writes s as a JSON string (see appendQuoted).
func (e encoder) quote(s string) { e.raw(appendQuoted(e.room(len(s)+2), s)) }

// err reports the latched write error: a write of nothing returns it and
// writes nothing.
func (e encoder) err() error {
	_, err := e.w.Write(nil)
	return err
}

// flush writes out the buffered tail and reports the first write error.
func (e encoder) flush() error { return e.w.Flush() }

// appendMicros appends a sim.Time (nanoseconds) as the microsecond
// timestamps the trace format uses, with the sub-microsecond remainder as
// three fixed decimals so distinct virtual instants never collapse.
// Negative times carry one leading sign: -1500 ns is "-1.500", never
// "-1.-500".
func appendMicros(b []byte, t sim.Time) []byte {
	mag := uint64(t)
	if t < 0 {
		b = append(b, '-')
		mag = -mag // the magnitude, math.MinInt64's included
	}
	b = strconv.AppendUint(b, mag/1000, 10)
	ns := mag % 1000
	return append(b, '.', byte('0'+ns/100), byte('0'+ns/10%10), byte('0'+ns%10))
}

// appendQuoted appends a name as a JSON string. A name of printable ASCII
// other than '"' and '\\' is quoted as is; anything else goes through the
// JSON encoder without its HTML escaping, so control bytes, invalid UTF-8
// and every rune come out as valid JSON.
func appendQuoted(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			_ = enc.Encode(s) // a string always encodes
			return append(b, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// quotedNames holds an export's names, each JSON-quoted once, back to back.
type quotedNames struct {
	buf []byte
	end []int // name i ends at buf[end[i]]
}

func quoteNames(names []string) quotedNames {
	size := 0
	for _, s := range names {
		size += len(s) + 2 // exact unless a name needs escapes
	}
	q := quotedNames{buf: make([]byte, 0, size), end: make([]int, len(names))}
	for i, s := range names {
		q.buf = appendQuoted(q.buf, s)
		q.end[i] = len(q.buf)
	}
	return q
}

// at returns name i quoted.
func (q *quotedNames) at(i int) []byte {
	start := 0
	if i > 0 {
		start = q.end[i-1]
	}
	return q.buf[start:q.end[i]]
}
