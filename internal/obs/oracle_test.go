package obs

// The oracle: the fmt-based renderers the exporters replaced, kept as they
// were. Every exporter must write exactly the bytes its oracle writes
// (FuzzExportMatchesOracle).

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"wile/internal/sim"
)

// oracleWriteReport is Provenance.WriteReport.
func oracleWriteReport(p *Provenance, w io.Writer) error {
	bw := &oracleWriter{w: w}
	bw.printf("frames %d, potential receptions %d, unresolved %d\n",
		p.next, p.potential, p.unresolved)
	bw.printf("outcomes:\n")
	for r := DropReason(0); r < NumDropReasons; r++ {
		bw.printf("  %-18s %d\n", dropReasonNames[r], p.total(r))
	}
	links := oracleSortedLinks(p)
	if len(links) > 0 {
		bw.printf("links:\n")
	}
	for _, k := range links {
		bw.printf("  %s -> %s:", p.actorName(k.from), p.actorName(k.to))
		counts := &k.counts
		for r := 0; r < NumDropReasons; r++ {
			if counts[r] > 0 {
				bw.printf(" %s=%d", dropReasonNames[r], counts[r])
			}
		}
		bw.printf("\n")
	}
	if qd := oracleQueueDropActors(p); len(qd) > 0 {
		bw.printf("tx queue drops:\n")
		for _, id := range qd {
			bw.printf("  %s: %d\n", p.actorName(id), p.queueDrops[id])
		}
	}
	return bw.err
}

// oracleWriteReportJSON is Provenance.WriteReportJSON.
func oracleWriteReportJSON(p *Provenance, w io.Writer) error {
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
	for i, k := range oracleSortedLinks(p) {
		if i > 0 {
			bw.printf(",")
		}
		bw.printf("\n    {\"from\": %s, \"to\": %s, \"counts\": {",
			oracleQuote(p.actorName(k.from)), oracleQuote(p.actorName(k.to)))
		counts := &k.counts
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
	for i, id := range oracleQueueDropActors(p) {
		if i > 0 {
			bw.printf(",")
		}
		bw.printf("\n    {\"actor\": %s, \"count\": %d}", oracleQuote(p.actorName(id)), p.queueDrops[id])
	}
	bw.printf("\n  ]\n}\n")
	return bw.err
}

// oracleSortedLinks orders the link rows by (from name, to name), ids as
// a tiebreak, a transmitter's out-of-range row after its link rows.
func oracleSortedLinks(p *Provenance) []*linkRow {
	rows := make([]*linkRow, 0, p.links.n)
	for _, r := range p.links.slots {
		if r != nil {
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if an, bn := p.actorName(a.from), p.actorName(b.from); an != bn {
			return an < bn
		}
		if ao, bo := a.to == outOfRange, b.to == outOfRange; ao != bo {
			return bo
		}
		if an, bn := p.actorName(a.to), p.actorName(b.to); an != bn {
			return an < bn
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.to < b.to
	})
	return rows
}

// oracleQueueDropActors lists the actors with queue drops by name, ids as
// a tiebreak.
func oracleQueueDropActors(p *Provenance) []ActorID {
	ids := make([]ActorID, 0)
	for id, n := range p.queueDrops {
		if n > 0 {
			ids = append(ids, ActorID(id))
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if an, bn := p.actorName(ids[i]), p.actorName(ids[j]); an != bn {
			return an < bn
		}
		return ids[i] < ids[j]
	})
	return ids
}

// oracleWriteChromeTrace is WriteChromeTrace.
func oracleWriteChromeTrace(w io.Writer, tracks []string, events Sink) error {
	bw := &oracleWriter{w: w}
	bw.printf("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	bw.printf("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"wile-sim\"}}")
	for i, name := range tracks {
		bw.printf(",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}", i+1, oracleQuote(name))
		bw.printf(",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":%d}}", i+1, i+1)
	}
	err := events.Replay(func(chunk []Event) error {
		for i := range chunk {
			oracleWriteEvent(bw, tracks, &chunk[i])
		}
		return bw.err
	})
	if err != nil {
		return err
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
			oracleMicros(e.At), oracleQuote(tracks[e.Track]), oracleValue(e.Value))
	}
}

// oracleWriteCSV is TimeSeries.WriteCSV.
func oracleWriteCSV(t *TimeSeries, w io.Writer) error {
	t.rec.flush()
	if err := t.rec.Err(); err != nil {
		return err
	}
	bw := &oracleWriter{w: w}
	bw.printf("time_us,series,value\n")
	err := t.rec.sink.Replay(func(chunk []Event) error {
		for i := range chunk {
			e := &chunk[i]
			bw.printf("%s,%s,%s\n", oracleMicros(e.At), t.rec.tracks[e.Track], oracleValue(e.Value))
		}
		return bw.err
	})
	if err != nil {
		return err
	}
	return bw.err
}

// oracleWriteJSON is Registry.WriteJSON.
func oracleWriteJSON(r *Registry, w io.Writer) error {
	entries := r.snapshot()
	bw := &oracleWriter{w: w}
	bw.printf("{\n  \"counters\": {")
	oracleWriteKind(bw, entries, func(e *entry) (string, bool) {
		if _, ok := e.it.(*Counter); !ok {
			return "", false
		}
		return strconv.FormatInt(e.count, 10), true
	})
	bw.printf("},\n  \"gauges\": {")
	oracleWriteKind(bw, entries, func(e *entry) (string, bool) {
		g, ok := e.it.(*Gauge)
		if !ok {
			return "", false
		}
		return oracleValue(g.Value()), true
	})
	bw.printf("},\n  \"histograms\": {")
	oracleWriteKind(bw, entries, func(e *entry) (string, bool) {
		h, ok := e.it.(*Histogram)
		if !ok {
			return "", false
		}
		count, sum, buckets := h.snapshot()
		var b []byte
		b = append(b, `{"count":`...)
		b = strconv.AppendInt(b, count, 10)
		b = append(b, `,"sum":`...)
		b = append(b, oracleValue(sum)...)
		b = append(b, `,"nan":`...)
		b = strconv.AppendInt(b, h.NaNDropped(), 10)
		b = append(b, `,"buckets":[`...)
		for i := range buckets {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"le":`...)
			if i < len(h.bounds) {
				b = append(b, oracleValue(h.bounds[i])...)
			} else {
				b = append(b, `"+Inf"`...)
			}
			b = append(b, `,"count":`...)
			b = strconv.AppendInt(b, buckets[i], 10)
			b = append(b, '}')
		}
		b = append(b, `]}`...)
		return string(b), true
	})
	bw.printf("}\n}\n")
	return bw.err
}

func oracleWriteKind(bw *oracleWriter, entries []entry, value func(e *entry) (string, bool)) {
	first := true
	for i := range entries {
		v, ok := value(&entries[i])
		if !ok {
			continue
		}
		if !first {
			bw.printf(",")
		}
		first = false
		bw.printf("\n    %s: %s", oracleQuote(entries[i].name), v)
	}
	if !first {
		bw.printf("\n  ")
	}
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
