package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"wile/internal/sim"
)

// exportWorld is what the five exporters read: a ledger tracing its drops
// into a recorder, and a registry that collects the ledger and feeds a
// time series.
type exportWorld struct {
	prov   *Provenance
	rec    *Recorder
	reg    *Registry
	series *TimeSeries
}

func newExportWorld() *exportWorld {
	x := &exportWorld{prov: NewProvenance(), rec: NewRecorder(), reg: NewRegistry()}
	x.prov.TraceTo(x.rec)
	x.prov.Observe(x.reg)
	x.series = NewTimeSeries(x.reg, NewMemorySink(), 0)
	return x
}

// exporters pairs each exporter with its oracle.
var exporters = []struct {
	name           string
	export, oracle func(x *exportWorld, w io.Writer) error
}{
	{"Provenance.WriteReport",
		func(x *exportWorld, w io.Writer) error { return x.prov.WriteReport(w) },
		func(x *exportWorld, w io.Writer) error { return oracleWriteReport(x.prov, w) }},
	{"Provenance.WriteReportJSON",
		func(x *exportWorld, w io.Writer) error { return x.prov.WriteReportJSON(w) },
		func(x *exportWorld, w io.Writer) error { return oracleWriteReportJSON(x.prov, w) }},
	{"WriteChromeTrace",
		func(x *exportWorld, w io.Writer) error { return x.rec.WriteChromeTrace(w) },
		func(x *exportWorld, w io.Writer) error {
			x.rec.flush()
			return oracleWriteChromeTrace(w, x.rec.tracks, x.rec.sink)
		}},
	{"TimeSeries.WriteCSV",
		func(x *exportWorld, w io.Writer) error { return x.series.WriteCSV(w) },
		func(x *exportWorld, w io.Writer) error { return oracleWriteCSV(x.series, w) }},
	{"Registry.WriteJSON",
		func(x *exportWorld, w io.Writer) error { return x.reg.WriteJSON(w) },
		func(x *exportWorld, w io.Writer) error { return oracleWriteJSON(x.reg, w) }},
}

// Program opcodes: each builds one piece of an exportWorld.
const (
	opActor      = iota // name
	opActors            // count-1, name: that many actors of one name
	opLink              // from, to, reason, count-1, time: count frames from→to
	opOutOfRange        // from, radio_off, below_sensitivity
	opQueueDrop         // actor, count-1, time
	opPending           // from, receivers-1: a frame left unresolved
	opTrack             // name
	opEvent             // kind, track, time, then a span's end and name, a counter's value or a name
	opCounter           // name, increment
	opGauge             // name, float
	opHistogram         // name, bounds count, floats, samples-1, floats
	opSample            // time: one TimeSeries sample
	numOps
)

// resolvable are the reasons Resolve accepts, by program code.
var resolvable = []DropReason{Delivered, DropCollided, DropBelowSensitivity, DropRadioOff,
	DropFCSError, DropDedupFiltered, DropDecodeError}

// maxFrames bounds how many frames one program transmits.
const maxFrames = 1 << 14

// program reads an exportWorld's construction from fuzz bytes. Reads past
// the end yield zeros.
type program struct{ b []byte }

func (p *program) byte() byte {
	if len(p.b) == 0 {
		return 0
	}
	c := p.b[0]
	p.b = p.b[1:]
	return c
}

// num reads a uvarint below n.
func (p *program) num(n int) int {
	v, k := binary.Uvarint(p.b)
	if k <= 0 {
		p.b = nil
		return 0
	}
	p.b = p.b[k:]
	return int(v % uint64(n))
}

func (p *program) str() string {
	n := min(int(p.byte()), len(p.b))
	s := string(p.b[:n])
	p.b = p.b[n:]
	return s
}

func (p *program) u64() uint64 {
	var raw [8]byte
	n := copy(raw[:], p.b)
	p.b = p.b[n:]
	return binary.LittleEndian.Uint64(raw[:])
}

// time reads a time in [-2⁶², 2⁶²), so that no span's duration overflows
// and no time is math.MinInt64, the one the oracle renders wrong.
func (p *program) time() sim.Time { return sim.Time(int64(p.u64()) >> 1) }

func (p *program) float() float64 { return math.Float64frombits(p.u64()) }

// buildWorld runs a program on a fresh world.
func buildWorld(data []byte) *exportWorld {
	x := newExportWorld()
	p := &program{data}
	actors := func() int { return x.prov.Actors() }
	for len(p.b) > 0 {
		switch p.byte() % numOps {
		case opActor:
			x.prov.Actor(p.str())
		case opActors:
			n, name := 1+int(p.byte()), p.str()
			for i := 0; i < n; i++ {
				x.prov.Actor(name)
			}
		case opLink:
			// Ids up to two past the registered ones name unregistered
			// actors, which the reports print as actor#<id>.
			from, to := ActorID(p.num(actors()+2)), ActorID(p.num(actors()+2))
			reason, n, at := resolvable[p.num(len(resolvable))], 1+p.num(512), p.time()
			for i := 0; i < n && x.prov.Frames() < maxFrames; i++ {
				x.prov.Resolve(x.prov.Transmitted(from, 1), to, at, reason)
			}
		case opOutOfRange:
			from, radioOff, belowSens := ActorID(p.num(actors()+2)), p.num(512), p.num(512)
			if x.prov.Frames() < maxFrames {
				x.prov.ResolveOutOfRange(x.prov.Transmitted(from, radioOff+belowSens), radioOff, belowSens)
			}
		case opQueueDrop:
			from, n, at := p.num(max(actors(), 1)), 1+p.num(64), p.time()
			for i := 0; i < n && from < actors(); i++ {
				x.prov.QueueDrop(ActorID(from), at)
			}
		case opPending:
			x.prov.Transmitted(ActorID(p.num(actors()+1)), 1+p.num(4))
		case opTrack:
			x.rec.Track(p.str())
		case opEvent:
			kind, track, at := p.byte()%5, TrackID(p.num(max(x.rec.Tracks(), 1))), p.time()
			if int(track) >= x.rec.Tracks() {
				track = x.rec.Track("")
			}
			switch kind {
			case 0:
				x.rec.Span(track, at, p.time(), p.str())
			case 1:
				x.rec.Begin(track, at, p.str())
			case 2:
				x.rec.End(track, at)
			case 3:
				x.rec.Instant(track, at, p.str())
			case 4:
				x.rec.Counter(track, at, p.float())
			}
		case opCounter:
			if name := p.str(); x.free(name, (*Counter)(nil)) {
				x.reg.Counter(name).Add(int64(p.u64()))
			}
		case opGauge:
			if name := p.str(); x.free(name, (*Gauge)(nil)) {
				x.reg.Gauge(name).Set(p.float())
			}
		case opHistogram:
			name, bounds := p.str(), make([]float64, p.byte()%4)
			for i := range bounds {
				bounds[i] = p.float()
			}
			bounds = slices.DeleteFunc(bounds, math.IsNaN)
			slices.Sort(bounds)
			bounds = slices.Compact(bounds)
			n := 1 + p.num(8)
			if !x.free(name, (*Histogram)(nil)) {
				break
			}
			h := x.reg.Histogram(name, bounds)
			for i := 0; i < n; i++ {
				h.Observe(p.float())
			}
		case opSample:
			x.series.Sample(p.time())
		}
	}
	return x
}

// free reports whether the registry can take name as a metric of kind's
// type without panicking.
func (x *exportWorld) free(name string, kind any) bool {
	it, ok := x.reg.items[name]
	if !ok {
		return true
	}
	switch kind.(type) {
	case *Counter:
		_, ok = it.(*Counter)
	case *Gauge:
		_, ok = it.(*Gauge)
	case *Histogram:
		_, ok = it.(*Histogram)
	}
	return ok
}

// programWriter writes what program reads.
type programWriter []byte

func (w *programWriter) op(code byte, args ...any) {
	*w = append(*w, code)
	for _, a := range args {
		switch a := a.(type) {
		case byte:
			*w = append(*w, a)
		case int:
			*w = binary.AppendUvarint(*w, uint64(a))
		case string:
			*w = append(append(*w, byte(len(a))), a...)
		case int64:
			*w = binary.LittleEndian.AppendUint64(*w, uint64(a))
		case sim.Time:
			*w = binary.LittleEndian.AppendUint64(*w, uint64(a)<<1)
		case float64:
			*w = binary.LittleEndian.AppendUint64(*w, math.Float64bits(a))
		default:
			panic("programWriter: argument type")
		}
	}
}

// reportProgram rebuilds a golden drop report's ledger: its actors, one
// frame per counted link outcome, one per out-of-range row and its queue
// drops. Frame totals differ from the report's; the rows do not.
func reportProgram(t testing.TB, path string) []byte {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Links []struct {
			From, To string
			Counts   map[string]int
		}
		QueueDrops []struct {
			Actor string
			Count int
		} `json:"queue_drops"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	var w programWriter
	ids := map[string]int{}
	id := func(name string) int {
		if _, ok := ids[name]; !ok {
			ids[name] = len(ids)
			w.op(opActor, name)
		}
		return ids[name]
	}
	for _, l := range rep.Links {
		from := id(l.From)
		if l.To == "(out of range)" {
			w.op(opOutOfRange, from, l.Counts["radio_off"], l.Counts["below_sensitivity"])
			continue
		}
		to := id(l.To)
		for code, r := range resolvable {
			for n := l.Counts[r.String()]; n > 0; n -= 512 {
				w.op(opLink, from, to, code, min(n, 512)-1, sim.Time(1500))
			}
		}
	}
	for _, q := range rep.QueueDrops {
		w.op(opQueueDrop, id(q.Actor), q.Count-1, sim.Time(9))
	}
	return w
}

// hostileProgram builds a world with every awkward input the exporters
// must render as the oracle does.
func hostileProgram() []byte {
	var w programWriter
	for _, name := range []string{"a\x01b", `q"b\s</>&`, "del\x7f", "bad\xff", "\U000E0001", "(out of range)", "a\x01b", ""} {
		w.op(opActor, name)
	}
	w.op(opActors, byte(70), "bulk") // past the 64-actor seen mask
	w.op(opLink, 0, 1, 0, 2, sim.Time(-1500))
	w.op(opLink, 6, 5, 1, 0, sim.Time(999))
	w.op(opLink, 5, 6, 6, 0, sim.Time(1))
	w.op(opLink, 70, 3, 2, 3, sim.Time(0))
	w.op(opLink, 2, 79, 3, 0, sim.Time(-1))
	w.op(opLink, 79, 80, 4, 0, sim.Time(7)) // 79 and 80 are unregistered
	w.op(opOutOfRange, 0, 2, 1)
	w.op(opOutOfRange, 6, 0, 4)
	w.op(opOutOfRange, 5, 1, 0)
	w.op(opQueueDrop, 1, 0, sim.Time(-210_000_000))
	w.op(opQueueDrop, 6, 2, sim.Time(3))
	w.op(opPending, 4, 2)
	w.op(opTrack, "dev\x00")
	w.op(opEvent, byte(0), 0, sim.Time(-2500), sim.Time(-3000), "back\"wards")
	w.op(opEvent, byte(1), 1, sim.Time(-1), "state\xff")
	w.op(opEvent, byte(2), 1, sim.Time(-5))
	w.op(opEvent, byte(3), 2, sim.Time(999), "\U0001F600")
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e-300, 0.1} {
		w.op(opEvent, byte(4), 3, sim.Time(1001), v)
		w.op(opGauge, "g\t"+string(rune('a'+i)), v)
	}
	w.op(opCounter, "wile.medium_frames", int64(5))
	w.op(opCounter, "c\"x", int64(-7))
	w.op(opHistogram, "h\\", byte(3), math.Inf(-1), math.Copysign(0, -1), math.Inf(1),
		4, math.NaN(), math.Inf(1), -1.0, 2.0, math.Copysign(0, -1))
	w.op(opSample, sim.Time(-1500))
	w.op(opSample, sim.Time(0))
	w.op(opSample, sim.Time(1))
	return w
}

// FuzzExportMatchesOracle builds ledgers, recorders, registries and time
// series from fuzz input and requires every exporter to write exactly
// what the fmt-based oracle writes. Its seeds are the drop-scenario and
// fig3a drop reports' ledgers and a world of awkward names and values.
func FuzzExportMatchesOracle(f *testing.F) {
	f.Add(hostileProgram())
	f.Add(reportProgram(f, filepath.Join("..", "experiment", "testdata", "drop_scenario_report.json")))
	f.Add(reportProgram(f, filepath.Join("..", "..", "cmd", "wile-trace", "testdata", "fig3a_drops.json")))
	f.Fuzz(func(t *testing.T, data []byte) {
		x := buildWorld(data)
		for _, ex := range exporters {
			var got, want bytes.Buffer
			gotErr, wantErr := ex.export(x, &got), ex.oracle(x, &want)
			if gotErr != nil || wantErr != nil {
				t.Fatalf("%s: export error %v, oracle error %v", ex.name, gotErr, wantErr)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s differs from the oracle:\n got: %q\nwant: %q", ex.name, got.Bytes(), want.Bytes())
			}
		}
	})
}

// errWriteFailed is what failingWriter fails with.
var errWriteFailed = errors.New("write failed")

// failingWriter accepts budget bytes, then fails every write. It records
// a write made after it failed.
type failingWriter struct {
	budget        int
	accepted      bytes.Buffer
	failed, after bool
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.failed {
		w.after = true
		return 0, errWriteFailed
	}
	n := min(len(p), w.budget-w.accepted.Len())
	w.accepted.Write(p[:n])
	if n < len(p) {
		w.failed = true
		return n, errWriteFailed
	}
	return n, nil
}

// TestExportersStopAtWriteError fails each exporter's destination after k
// bytes, around the encoder's 4 KiB chunk. Each must return the error,
// have written the first k bytes of its output, and write nothing after
// the error.
func TestExportersStopAtWriteError(t *testing.T) {
	const n = 300
	var w programWriter
	w.op(opActors, byte(n/2-1), "sensor")
	w.op(opActors, byte(n/2-1), "sensor")
	w.op(opTrack, "track")
	for i := 0; i < n; i++ {
		w.op(opLink, i, (i+1)%n, i%len(resolvable), i%4, sim.Time(i))
		w.op(opQueueDrop, i, 0, sim.Time(i))
		at := sim.Time(1000 * i)
		w.op(opEvent, byte(0), n, at, at+500, "span")
		w.op(opEvent, byte(4), n, at, float64(i)/3)
		w.op(opGauge, "gauge-"+string(rune('a'+i%26))+string(rune('a'+i/26)), float64(i)/7)
		w.op(opSample, at)
	}
	x := buildWorld(w)
	for _, ex := range exporters {
		var full bytes.Buffer
		if err := ex.export(x, &full); err != nil {
			t.Fatal(err)
		}
		if full.Len() <= 2*exportChunk+1 {
			t.Fatalf("%s writes %d bytes, too few to fail past the second chunk", ex.name, full.Len())
		}
		for _, k := range []int{0, 1, exportChunk - 1, exportChunk, exportChunk + 1} {
			fw := &failingWriter{budget: k}
			err := ex.export(x, fw)
			if !errors.Is(err, errWriteFailed) {
				t.Errorf("%s failing after %d bytes returned %v, want the write error", ex.name, k, err)
			}
			if fw.after {
				t.Errorf("%s failing after %d bytes wrote again after the error", ex.name, k)
			}
			if !bytes.Equal(fw.accepted.Bytes(), full.Bytes()[:k]) {
				t.Errorf("%s failing after %d bytes wrote %q first", ex.name, k, fw.accepted.Bytes())
			}
		}
	}
}
