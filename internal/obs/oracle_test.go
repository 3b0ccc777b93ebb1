package obs

// The oracle: the fmt-based renderers the exporters replaced, kept as they
// were. Every exporter must write exactly the bytes its oracle writes
// (FuzzExportMatchesOracle).

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"wile/internal/sim"
)

// tally is the test side's own account of a ledger's history, grouped as
// the reports group it: outcomes per (transmitter name, receiver name),
// out-of-range receivers per transmitter name and queue drops per name,
// each under the names the actors had when it was recorded. The report
// oracles render its rows, never the ledger's.
type tally struct {
	names      []string // the registered actors' names, by id
	links      map[tallyKey]*[NumDropReasons]int64
	queueDrops map[string]int64
}

// tallyKey is one report row: a transmitter's name and a receiver's, or
// the transmitter's out-of-range receivers.
type tallyKey struct {
	from, to   string
	outOfRange bool
}

// actor registers a name, as Provenance.Actor does.
func (t *tally) actor(name string) { t.names = append(t.names, name) }

// name is an actor's name as the reports print it.
func (t *tally) name(id ActorID) string {
	if int(id) < len(t.names) {
		return t.names[id]
	}
	return fmt.Sprintf("actor#%d", id)
}

// row reports the counts of row k, adding it on first use.
func (t *tally) row(k tallyKey) *[NumDropReasons]int64 {
	if t.links == nil {
		t.links = map[tallyKey]*[NumDropReasons]int64{}
	}
	if t.links[k] == nil {
		t.links[k] = new([NumDropReasons]int64)
	}
	return t.links[k]
}

// resolve counts one Resolve.
func (t *tally) resolve(from, to ActorID, r DropReason) {
	t.row(tallyKey{from: t.name(from), to: t.name(to)})[r]++
}

// outOfRange counts one ResolveOutOfRange.
func (t *tally) outOfRange(from ActorID, radioOff, belowSens int) {
	if radioOff+belowSens == 0 {
		return
	}
	counts := t.row(tallyKey{from: t.name(from), to: "(out of range)", outOfRange: true})
	counts[DropRadioOff] += int64(radioOff)
	counts[DropBelowSensitivity] += int64(belowSens)
}

// queueDrop counts one QueueDrop.
func (t *tally) queueDrop(from ActorID) {
	if t.queueDrops == nil {
		t.queueDrops = map[string]int64{}
	}
	t.queueDrops[t.name(from)]++
}

// oracleWriteReport is Provenance.WriteReport, its rows read from t.
func oracleWriteReport(p *Provenance, t *tally, w io.Writer) error {
	bw := &oracleWriter{w: w}
	bw.printf("frames %d, potential receptions %d, unresolved %d\n",
		p.next, p.potential, p.unresolved)
	bw.printf("outcomes:\n")
	for r := DropReason(0); r < NumDropReasons; r++ {
		bw.printf("  %-18s %d\n", dropReasonNames[r], p.total(r))
	}
	links := oracleSortedLinks(t)
	if len(links) > 0 {
		bw.printf("links:\n")
	}
	for _, k := range links {
		bw.printf("  %s -> %s:", k.from, k.to)
		counts := t.links[k]
		for r := 0; r < NumDropReasons; r++ {
			if counts[r] > 0 {
				bw.printf(" %s=%d", dropReasonNames[r], counts[r])
			}
		}
		bw.printf("\n")
	}
	if qd := oracleQueueDropActors(t); len(qd) > 0 {
		bw.printf("tx queue drops:\n")
		for _, name := range qd {
			bw.printf("  %s: %d\n", name, t.queueDrops[name])
		}
	}
	return bw.err
}

// oracleWriteReportJSON is Provenance.WriteReportJSON, its rows read from
// t.
func oracleWriteReportJSON(p *Provenance, t *tally, w io.Writer) error {
	bw := &oracleWriter{w: w}
	bw.printf("{\n  \"frames\": %d,\n  \"potential\": %d,\n  \"unresolved\": %d,\n",
		p.next, p.potential, p.unresolved)
	bw.printf("  \"outcomes\": {")
	for r := DropReason(0); r < NumDropReasons; r++ {
		if r > 0 {
			bw.printf(",")
		}
		bw.printf("\n    %s: %d", oracleQuote(dropReasonNames[r]), p.total(r))
	}
	bw.printf("\n  },\n  \"links\": [")
	for i, k := range oracleSortedLinks(t) {
		if i > 0 {
			bw.printf(",")
		}
		bw.printf("\n    {\"from\": %s, \"to\": %s, \"counts\": {",
			oracleQuote(k.from), oracleQuote(k.to))
		counts := t.links[k]
		first := true
		for r := 0; r < NumDropReasons; r++ {
			if counts[r] == 0 {
				continue
			}
			if !first {
				bw.printf(", ")
			}
			first = false
			bw.printf("%s: %d", oracleQuote(dropReasonNames[r]), counts[r])
		}
		bw.printf("}}")
	}
	bw.printf("\n  ],\n  \"queue_drops\": [")
	for i, name := range oracleQueueDropActors(t) {
		if i > 0 {
			bw.printf(",")
		}
		bw.printf("\n    {\"actor\": %s, \"count\": %d}", oracleQuote(name), t.queueDrops[name])
	}
	bw.printf("\n  ]\n}\n")
	return bw.err
}

// oracleSortedLinks orders t's rows by (from name, to name), a
// transmitter's out-of-range row after its link rows.
func oracleSortedLinks(t *tally) []tallyKey {
	rows := make([]tallyKey, 0, len(t.links))
	for k := range t.links {
		rows = append(rows, k)
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.outOfRange != b.outOfRange {
			return b.outOfRange
		}
		return a.to < b.to
	})
	return rows
}

// oracleQueueDropActors lists the names with queue drops in order.
func oracleQueueDropActors(t *tally) []string {
	names := make([]string, 0, len(t.queueDrops))
	for name := range t.queueDrops {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// oracleWriteChromeTrace is Recorder.WriteChromeTrace.
func oracleWriteChromeTrace(r *Recorder, w io.Writer) error {
	bw := &oracleWriter{w: w}
	bw.printf("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	bw.printf("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"wile-sim\"}}")
	for i, name := range r.tracks {
		bw.printf(",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}", i+1, oracleQuote(name))
		bw.printf(",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":%d}}", i+1, i+1)
	}
	for i := range r.events {
		oracleWriteEvent(bw, r.tracks, &r.events[i])
	}
	bw.printf("\n]}\n")
	return bw.err
}

func oracleWriteEvent(bw *oracleWriter, tracks []string, e *Event) {
	tid := int(e.Track) + 1
	switch e.Ph {
	case phSpan:
		bw.printf(",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%s}",
			tid, oracleMicros(e.At), oracleMicros(e.Dur), oracleQuote(e.Name))
	case phBegin:
		bw.printf(",\n{\"ph\":\"B\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"name\":%s}",
			tid, oracleMicros(e.At), oracleQuote(e.Name))
	case phEnd:
		bw.printf(",\n{\"ph\":\"E\",\"pid\":1,\"tid\":%d,\"ts\":%s}", tid, oracleMicros(e.At))
	case phInstant:
		bw.printf(",\n{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"name\":%s}",
			tid, oracleMicros(e.At), oracleQuote(e.Name))
	case phCounter:
		bw.printf(",\n{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":%s,\"name\":%s,\"args\":{\"value\":%s}}",
			oracleMicros(e.At), oracleQuote(tracks[e.Track]), oracleJSONValue(e.Value))
	}
}

// oracleWriteCSV is TimeSeries.WriteCSV.
func oracleWriteCSV(t *TimeSeries, w io.Writer) error {
	bw := &oracleWriter{w: w}
	bw.printf("time_us,series,value\n")
	for i := range t.rec.events {
		e := &t.rec.events[i]
		bw.printf("%s,%s,%s\n", oracleMicros(e.At), t.rec.tracks[e.Track], oracleValue(e.Value))
	}
	return bw.err
}

// oracleWriteJSON is Registry.WriteJSON.
func oracleWriteJSON(r *Registry, w io.Writer) error {
	bw := &oracleWriter{w: w}
	bw.printf("{\n  \"counters\": {")
	entries := r.snapshot()
	for i, e := range entries {
		if i > 0 {
			bw.printf(",")
		}
		bw.printf("\n    %s: %d", oracleQuote(e.name), e.count)
	}
	if len(entries) > 0 {
		bw.printf("\n  ")
	}
	bw.printf("}\n}\n")
	return bw.err
}

// oracleMicros renders a sim.Time as microseconds with three decimals.
// It cannot negate math.MinInt64, which it renders as
// "--9223372036854775.-808".
func oracleMicros(t sim.Time) string {
	sign := ""
	if t < 0 {
		sign, t = "-", -t
	}
	us, ns := t/1000, t%1000
	return fmt.Sprintf("%s%d.%03d", sign, us, ns)
}

func oracleQuote(s string) string {
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

func oracleValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// oracleJSONValue is oracleValue inside JSON, which spells NaN and ±Inf null.
func oracleJSONValue(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return oracleValue(v)
}

// oracleWriter latches the first write error so export code reads linearly.
type oracleWriter struct {
	w   io.Writer
	err error
}

func (e *oracleWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
