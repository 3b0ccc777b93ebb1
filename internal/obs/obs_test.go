package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"wile/internal/sim"
)

func TestChromeTraceIsValidJSON(t *testing.T) {
	r := NewRecorder()
	dev := r.Track("dev:1")
	cur := r.Track("current_mA")
	r.Begin(dev, 0, "deep-sleep")
	r.End(dev, 200*sim.Millisecond)
	r.Begin(dev, 200*sim.Millisecond, "cpu-active")
	r.Span(dev, 210*sim.Millisecond, 211*sim.Millisecond, "tx beacon")
	r.Instant(dev, 211*sim.Millisecond, "Sleep")
	r.Counter(cur, 0, 0.0025)
	r.Counter(cur, 200*sim.Millisecond, 30)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// 1 process_name + 2×(thread_name+sort) + 7 events.
	if got, want := len(doc.TraceEvents), 1+4+7; got != want {
		t.Fatalf("trace has %d events, want %d", got, want)
	}
	for _, e := range doc.TraceEvents {
		if _, ok := e["ph"]; !ok {
			t.Fatalf("event missing ph: %v", e)
		}
	}
	if !strings.Contains(buf.String(), `"name":"dev:1"`) {
		t.Errorf("thread_name metadata missing:\n%s", buf.String())
	}
	// The 210 ms span must carry µs timestamps: 210000.000.
	if !strings.Contains(buf.String(), `"ts":210000.000`) {
		t.Errorf("span timestamp not in microseconds:\n%s", buf.String())
	}
}

// TestWritersQuoteNamesAsJSON sends names that Go's string quoting renders
// with escapes JSON does not have (a control byte, DEL, invalid UTF-8, an
// astral rune Go does not count as printable) through appendQuoted and
// every JSON writer. Each output must be valid JSON that decodes back to
// the name, with invalid UTF-8 replaced by U+FFFD.
func TestWritersQuoteNamesAsJSON(t *testing.T) {
	writers := map[string]func(name string, w *bytes.Buffer) error{
		"WriteReportJSON": func(name string, w *bytes.Buffer) error {
			p := NewProvenance()
			tx, rx := p.Actor(name), p.Actor("rx")
			p.Resolve(p.Transmitted(tx, 1), rx, 0, DropCollided)
			return p.WriteReportJSON(w)
		},
		"Registry.WriteJSON": func(name string, w *bytes.Buffer) error {
			reg := NewRegistry()
			reg.Counter(name).Inc()
			return reg.WriteJSON(w)
		},
		"WriteChromeTrace": func(name string, w *bytes.Buffer) error {
			r := NewRecorder()
			r.Instant(r.Track(name), 0, name)
			return r.WriteChromeTrace(w)
		},
	}
	for _, name := range []string{"a\x01b", "del\x7f", "bad\xff", "\U000E0001", `q"b\s</>&`} {
		quoted := appendQuoted([]byte("["), name)
		var got []string
		if err := json.Unmarshal(append(quoted, ']'), &got); err != nil {
			t.Errorf("appendQuoted(%q) = %s, not a JSON string: %v", name, quoted[1:], err)
		} else if want := strings.ToValidUTF8(name, "\uFFFD"); len(got) != 1 || got[0] != want {
			t.Errorf("appendQuoted(%q) = %s decodes to %q, want %q", name, quoted[1:], got, want)
		}
		for writer, write := range writers {
			var buf bytes.Buffer
			if err := write(name, &buf); err != nil {
				t.Fatal(err)
			}
			if !json.Valid(buf.Bytes()) {
				t.Errorf("%s with name %q wrote invalid JSON:\n%s", writer, name, buf.String())
				continue
			}
			var doc any
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			if want := strings.ToValidUTF8(name, "\uFFFD"); !containsString(doc, want) {
				t.Errorf("%s with name %q: no string decodes to %q:\n%s", writer, name, want, buf.String())
			}
		}
	}
}

// containsString reports whether a decoded JSON value holds s as a string
// or an object key anywhere.
func containsString(v any, s string) bool {
	switch v := v.(type) {
	case string:
		return v == s
	case []any:
		for _, e := range v {
			if containsString(e, s) {
				return true
			}
		}
	case map[string]any:
		for k, e := range v {
			if k == s || containsString(e, s) {
				return true
			}
		}
	}
	return false
}

func TestChromeTraceDeterministic(t *testing.T) {
	build := func() []byte {
		r := NewRecorder()
		a := r.Track("a")
		c := r.Track("cnt")
		for i := 0; i < 100; i++ {
			at := sim.Time(i) * sim.Microsecond
			r.Instant(a, at, "tick")
			r.Counter(c, at, float64(i)*0.1)
		}
		var buf bytes.Buffer
		if err := r.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("two identical recordings exported different bytes")
	}
}

func TestObserveScheduler(t *testing.T) {
	s := sim.New()
	r := NewRecorder()
	ObserveScheduler(r, s, r.Track("sched"))
	n := 0
	s.After(time.Millisecond, func() { n++ })
	s.After(2*time.Millisecond, func() { n++ })
	s.Run()
	if n != 2 {
		t.Fatalf("fired %d events", n)
	}
	if r.Len() != 2 {
		t.Fatalf("recorded %d dispatch events, want 2", r.Len())
	}
}

// TestMicrosFormatsNegatives pins the timestamp formatter, in particular
// the negative-time rendering: -1500 ns must read "-1.500", not the
// "-1.-500" garbage integer division used to produce (JSON numbers with an
// interior minus sign silently corrupt the whole export). The most
// negative time, whose magnitude int64 cannot hold, prints its magnitude
// too.
func TestMicrosFormatsNegatives(t *testing.T) {
	cases := []struct {
		t    sim.Time
		want string
	}{
		{0, "0.000"},
		{1, "0.001"},
		{999, "0.999"},
		{1000, "1.000"},
		{1500, "1.500"},
		{210 * sim.Millisecond, "210000.000"},
		{-1, "-0.001"},
		{-999, "-0.999"},
		{-1000, "-1.000"},
		{-1500, "-1.500"},
		{-210 * sim.Millisecond, "-210000.000"},
		{math.MaxInt64, "9223372036854775.807"},
		{math.MinInt64, "-9223372036854775.808"},
	}
	for _, c := range cases {
		if got := string(appendMicros([]byte("ts:"), c.t)); got != "ts:"+c.want {
			t.Errorf("appendMicros(ts:, %d) = %q, want %q", c.t, got, "ts:"+c.want)
		}
	}
}

// TestSpanAndEndClampNegativeDurations pins the recorder's defense against
// time-travelling slices: a Span whose end precedes its start exports as a
// zero-length slice at start, and an End before its matching Begin closes
// at the Begin's timestamp.
func TestSpanAndEndClampNegativeDurations(t *testing.T) {
	r := NewRecorder()
	tr := r.Track("t")
	r.Span(tr, 2000, 500, "backwards")
	r.Begin(tr, 3000, "state")
	r.End(tr, 1000) // before its Begin
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"ts":2.000,"dur":0.000`) {
		t.Errorf("backwards span not clamped to zero duration:\n%s", out)
	}
	if !strings.Contains(out, `"ph":"E","pid":1,"tid":1,"ts":3.000`) {
		t.Errorf("early End not clamped to its Begin timestamp:\n%s", out)
	}
	if strings.Contains(out, `":-`) || strings.Contains(out, ".-") {
		t.Errorf("clamped trace still contains a negative value:\n%s", out)
	}
}

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("mac.tx_frames")
	c.Inc()
	c.Add(2)
	if got := reg.Counter("mac.tx_frames").Value(); got != 3 {
		t.Fatalf("counter = %d, want 3 (get-or-create must share state)", got)
	}
	g := reg.Gauge("engine.workers")
	g.Set(8)
	if g.Value() != 8 {
		t.Fatalf("gauge = %v", g.Value())
	}
	h := reg.Histogram("energy_uj", []float64{10, 100, 1000})
	for _, v := range []float64{5, 50, 84, 5000} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("histogram count = %d", h.Count())
	}
	if h.Sum() != 5139 {
		t.Fatalf("histogram sum = %v", h.Sum())
	}

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]int64   `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]struct {
			Count   int64 `json:"count"`
			Buckets []struct {
				LE    any   `json:"le"`
				Count int64 `json:"count"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Counters["mac.tx_frames"] != 3 {
		t.Errorf("snapshot counter = %d", doc.Counters["mac.tx_frames"])
	}
	if doc.Gauges["engine.workers"] != 8 {
		t.Errorf("snapshot gauge = %v", doc.Gauges["engine.workers"])
	}
	hs := doc.Histograms["energy_uj"]
	if hs.Count != 4 || len(hs.Buckets) != 4 {
		t.Errorf("snapshot histogram = %+v", hs)
	}
	// Bucket layout: ≤10:1(5), ≤100:2(50,84), ≤1000:0, +Inf:1(5000).
	wantCounts := []int64{1, 2, 0, 1}
	for i, b := range hs.Buckets {
		if b.Count != wantCounts[i] {
			t.Errorf("bucket %d count = %d, want %d", i, b.Count, wantCounts[i])
		}
	}
}

func TestRegistrySnapshotDeterministic(t *testing.T) {
	build := func() []byte {
		reg := NewRegistry()
		// Register in one order, bump in another; output must sort.
		reg.Counter("z.last").Add(1)
		reg.Counter("a.first").Add(2)
		reg.Gauge("m.mid").Set(0.5)
		reg.Histogram("h", []float64{1}).Observe(0.25)
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(string(a), "\"a.first\": 2") {
		t.Errorf("snapshot missing counter:\n%s", a)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	reg := NewRegistry()
	reg.Counter("x")
	reg.Gauge("x")
}
