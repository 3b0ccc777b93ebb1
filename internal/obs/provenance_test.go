package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"wile/internal/sim"
)

// TestProvenanceConservation walks a small ledger through every RX-side
// outcome and checks the invariant Verify pins: Σ outcomes == Σ potential
// receivers, with per-frame completion tracked exactly.
func TestProvenanceConservation(t *testing.T) {
	p := NewProvenance()
	tx := p.Actor("tx")
	rxA := p.Actor("rx-a")
	rxB := p.Actor("rx-b")

	f1 := p.Transmitted(tx, 2)
	if f1 != 1 {
		t.Fatalf("first frame id = %d, want 1", f1)
	}
	p.Resolve(f1, rxA, 10, Delivered)
	if err := p.Verify(); err == nil {
		t.Fatal("Verify passed with an unresolved receiver")
	}
	if p.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", p.Pending())
	}
	p.Resolve(f1, rxB, 10, DropBelowSensitivity)

	f2 := p.Transmitted(tx, 2)
	p.Resolve(f2, rxA, 20, DropCollided)
	p.Resolve(f2, rxB, 20, DropRadioOff)

	f3 := p.Transmitted(rxA, 2)
	p.Resolve(f3, tx, 30, DropFCSError)
	p.Resolve(f3, rxB, 30, DropDedupFiltered)

	f4 := p.Transmitted(rxB, 2)
	p.Resolve(f4, tx, 40, DropDecodeError)
	p.Resolve(f4, rxA, 40, Delivered)

	p.QueueDrop(tx, 50)

	if err := p.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got := p.Frames(); got != 4 {
		t.Errorf("Frames = %d, want 4", got)
	}
	if got := p.Potential(); got != 8 {
		t.Errorf("Potential = %d, want 8", got)
	}
	out := p.Outcomes()
	var total int64
	for _, n := range out {
		total += n
	}
	if total != p.Potential() {
		t.Errorf("Σ outcomes = %d, want %d", total, p.Potential())
	}
	if out[Delivered] != 2 || out[DropCollided] != 1 || out[DropQueueDrop] != 0 {
		t.Errorf("outcomes = %v", out)
	}
	if got := p.QueueDrops(); got != 1 {
		t.Errorf("QueueDrops = %d, want 1", got)
	}
}

// TestProvenanceDoubleResolvePanics pins the one-terminal-outcome rule: a
// second resolution of the same (frame, receiver) pair is an
// instrumentation bug and must panic, not double-count.
func TestProvenanceDoubleResolvePanics(t *testing.T) {
	p := NewProvenance()
	tx := p.Actor("tx")
	rxA := p.Actor("rx-a")
	p.Actor("rx-b")
	f := p.Transmitted(tx, 2)
	p.Resolve(f, rxA, 0, Delivered)

	mustPanic(t, "double resolve", func() { p.Resolve(f, rxA, 0, DropCollided) })
	mustPanic(t, "unknown frame", func() { p.Resolve(f+100, rxA, 0, Delivered) })
	mustPanic(t, "queue_drop via Resolve", func() { p.Resolve(f, 2, 0, DropQueueDrop) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestProvenanceZeroFrameIgnored: frames transmitted before the ledger was
// attached carry FrameID 0 and must be ignored, so late wiring is safe.
func TestProvenanceZeroFrameIgnored(t *testing.T) {
	p := NewProvenance()
	rx := p.Actor("rx")
	p.Resolve(0, rx, 0, Delivered)
	if err := p.Verify(); err != nil {
		t.Fatalf("Verify after zero-frame resolve: %v", err)
	}
}

// TestProvenanceReportDeterminism builds the same ledger twice (second time
// with actors registered in a different order) and checks that both report
// formats are byte-identical per ledger state and sorted by actor name.
func TestProvenanceReportDeterminism(t *testing.T) {
	build := func() *Provenance {
		p := NewProvenance()
		tx := p.Actor("zeta")
		rx := p.Actor("alpha")
		f := p.Transmitted(tx, 1)
		p.Resolve(f, rx, 0, DropCollided)
		g := p.Transmitted(rx, 1)
		p.Resolve(g, tx, 5, Delivered)
		p.QueueDrop(tx, 9)
		return p
	}
	var a, b bytes.Buffer
	if err := build().WriteReport(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("text report not deterministic:\n%s\n---\n%s", a.String(), b.String())
	}
	// alpha -> zeta sorts before zeta -> alpha.
	txt := a.String()
	if !strings.Contains(txt, "alpha -> zeta: delivered=1") {
		t.Errorf("report missing sorted link rows:\n%s", txt)
	}
	if strings.Index(txt, "alpha -> zeta") > strings.Index(txt, "zeta -> alpha") {
		t.Errorf("links not sorted by name:\n%s", txt)
	}

	var j bytes.Buffer
	if err := build().WriteReportJSON(&j); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Frames     int64            `json:"frames"`
		Potential  int64            `json:"potential"`
		Unresolved int64            `json:"unresolved"`
		Outcomes   map[string]int64 `json:"outcomes"`
		Links      []struct {
			From   string           `json:"from"`
			To     string           `json:"to"`
			Counts map[string]int64 `json:"counts"`
		} `json:"links"`
		QueueDrops []struct {
			Actor string `json:"actor"`
			Count int64  `json:"count"`
		} `json:"queue_drops"`
	}
	if err := json.Unmarshal(j.Bytes(), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, j.String())
	}
	if doc.Frames != 2 || doc.Potential != 2 || doc.Unresolved != 0 {
		t.Errorf("JSON header = %+v", doc)
	}
	if len(doc.Outcomes) != NumDropReasons {
		t.Errorf("outcomes object has %d keys, want the closed set of %d", len(doc.Outcomes), NumDropReasons)
	}
	if doc.Outcomes["collided"] != 1 || doc.Outcomes["queue_drop"] != 1 {
		t.Errorf("outcomes = %v", doc.Outcomes)
	}
	if len(doc.Links) != 2 || doc.Links[0].From != "alpha" {
		t.Errorf("links = %+v", doc.Links)
	}
	if len(doc.QueueDrops) != 1 || doc.QueueDrops[0].Actor != "zeta" {
		t.Errorf("queue_drops = %+v", doc.QueueDrops)
	}
}

// TestProvenanceObserve checks the registry mirror, including the back-fill
// of counts recorded before Observe was wired.
func TestProvenanceObserve(t *testing.T) {
	p := NewProvenance()
	tx := p.Actor("tx")
	rx := p.Actor("rx")
	f := p.Transmitted(tx, 1)
	p.Resolve(f, rx, 0, DropCollided)
	p.QueueDrop(tx, 0)

	reg := NewRegistry()
	p.Observe(reg)

	g := p.Transmitted(tx, 1)
	p.Resolve(g, rx, 1, Delivered)

	for name, want := range map[string]int64{
		"wile.medium_frames":          2,
		"wile.medium_delivered":       1,
		"wile.medium_drop_collided":   1,
		"wile.medium_drop_queue_drop": 1,
		"wile.medium_drop_radio_off":  0,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestProvenanceObserveIdempotent: re-wiring the same registry must not
// re-add counts already exported, whether they arrived by back-fill or
// through the live hooks; a fresh registry gets a full back-fill once.
func TestProvenanceObserveIdempotent(t *testing.T) {
	p := NewProvenance()
	tx := p.Actor("tx")
	rx := p.Actor("rx")
	f := p.Transmitted(tx, 1)
	p.Resolve(f, rx, 0, DropCollided)
	p.QueueDrop(tx, 0)

	reg := NewRegistry()
	p.Observe(reg)
	p.Observe(reg) // immediate re-wiring: back-fill must not repeat

	g := p.Transmitted(tx, 1)
	p.Resolve(g, rx, 1, Delivered)
	p.Observe(reg) // re-wiring after live increments must add nothing

	for name, want := range map[string]int64{
		"wile.medium_frames":          2,
		"wile.medium_delivered":       1,
		"wile.medium_drop_collided":   1,
		"wile.medium_drop_queue_drop": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d after double Observe, want %d", name, got, want)
		}
	}

	// A different registry starts from zero and gets everything exactly once.
	reg2 := NewRegistry()
	p.Observe(reg2)
	p.Observe(reg2)
	for name, want := range map[string]int64{
		"wile.medium_frames":          2,
		"wile.medium_delivered":       1,
		"wile.medium_drop_collided":   1,
		"wile.medium_drop_queue_drop": 1,
	} {
		if got := reg2.Counter(name).Value(); got != want {
			t.Errorf("fresh registry %s = %d, want %d", name, got, want)
		}
	}
}

// TestProvenanceTraceInstants checks that drops (and only drops) land as
// instant events on per-actor tracks.
func TestProvenanceTraceInstants(t *testing.T) {
	p := NewProvenance()
	tx := p.Actor("tx")
	rx := p.Actor("rx")
	rec := NewRecorder()
	p.TraceTo(rec)
	if rec.Tracks() != 2 {
		t.Fatalf("TraceTo registered %d tracks, want 2", rec.Tracks())
	}

	f := p.Transmitted(tx, 1)
	p.Resolve(f, rx, 100, Delivered) // delivered: no instant
	g := p.Transmitted(tx, 1)
	p.Resolve(g, rx, 200, DropCollided)
	p.QueueDrop(tx, 300)

	late := p.Actor("late") // actors registered after TraceTo get tracks too
	if rec.Tracks() != 3 {
		t.Fatalf("late actor got no track (have %d)", rec.Tracks())
	}
	h := p.Transmitted(tx, 2)
	p.Resolve(h, rx, 400, Delivered)
	p.Resolve(h, late, 400, DropRadioOff)

	if rec.Len() != 3 {
		t.Fatalf("recorded %d events, want 3 (collided, queue-drop, radio-off)", rec.Len())
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"drop collided", "drop queue-drop", "drop radio-off", `"rx drops"`, `"late drops"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `"delivered"`) {
		t.Errorf("delivered outcomes must not emit instants:\n%s", out)
	}
}

// TestProvenanceManyActors exercises the seen set past the 64-actor
// inline mask: a second resolution of an actor there must panic while its
// frame is still in flight.
func TestProvenanceManyActors(t *testing.T) {
	p := NewProvenance()
	const n = 130
	ids := make([]ActorID, n)
	for i := range ids {
		ids[i] = p.Actor("a")
	}
	f := p.Transmitted(ids[0], n) // one receiver more than resolve one by one
	for _, rx := range ids[1:] {
		p.Resolve(f, rx, 0, Delivered)
	}
	mustPanic(t, "double resolve past the inline mask", func() { p.Resolve(f, ids[n-1], 0, Delivered) })
	p.ResolveOutOfRange(f, 0, 1)
	if err := p.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	mustPanic(t, "resolve of a completed frame", func() { p.Resolve(f, ids[n-1], 0, Delivered) })
}

// TestProvenanceOutOfRangeRow pins the bulk settle: it completes frames
// like Resolve, panics on over-resolution, emits no trace instant, and
// reports one "(out of range)" row per transmitter after its link rows.
func TestProvenanceOutOfRangeRow(t *testing.T) {
	p := NewProvenance()
	rec := NewRecorder()
	p.TraceTo(rec)
	tx, rx, zz := p.Actor("b-tx"), p.Actor("a-rx"), p.Actor("zz")
	f := p.Transmitted(tx, 5)
	p.Resolve(f, rx, 0, Delivered)
	p.Resolve(f, zz, 0, DropCollided)
	p.ResolveOutOfRange(f, 2, 0)
	p.ResolveOutOfRange(f, 0, 0)
	p.ResolveOutOfRange(0, 4, 4)
	p.ResolveOutOfRange(f, 0, 1)
	g := p.Transmitted(rx, 2)
	mustPanic(t, "over-resolution", func() { p.ResolveOutOfRange(g, 2, 1) })
	mustPanic(t, "negative count", func() { p.ResolveOutOfRange(g, 3, -1) })
	p.ResolveOutOfRange(g, 1, 1)
	mustPanic(t, "settle of a completed frame", func() { p.ResolveOutOfRange(g, 1, 0) })
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if out := p.Outcomes(); out[DropRadioOff] != 3 || out[DropBelowSensitivity] != 2 {
		t.Errorf("outcomes %v, want radio_off 3 and below_sensitivity 2", out)
	}
	if rec.Len() != 1 {
		t.Errorf("recorded %d instants, want 1 (the collision)", rec.Len())
	}

	var txt, js bytes.Buffer
	if err := p.WriteReport(&txt); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteReportJSON(&js); err != nil {
		t.Fatal(err)
	}
	wantTxt := "links:\n" +
		"  a-rx -> (out of range): below_sensitivity=1 radio_off=1\n" +
		"  b-tx -> a-rx: delivered=1\n" +
		"  b-tx -> zz: collided=1\n" +
		"  b-tx -> (out of range): below_sensitivity=1 radio_off=2\n"
	if !strings.HasSuffix(txt.String(), wantTxt) {
		t.Errorf("text report rows:\n%s\nwant them to end with:\n%s", txt.String(), wantTxt)
	}
	wantJSON := `{"from": "b-tx", "to": "zz", "counts": {"collided": 1}},
    {"from": "b-tx", "to": "(out of range)", "counts": {"below_sensitivity": 1, "radio_off": 2}}
  ],`
	if !strings.Contains(js.String(), wantJSON) {
		t.Errorf("JSON report:\n%s\nwant it to hold:\n%s", js.String(), wantJSON)
	}
}

// TestReportRowsByNamePair replays random ledger histories whose actors
// draw their names from a pool of four, so names repeat, with out-of-range
// settles, queue drops and a resolve by an id the ledger never registered.
// The test tallies every outcome per (transmitter name, receiver name)
// itself, and both reports must print what the oracle renders from that
// tally: actors that share a name share their rows.
func TestReportRowsByNamePair(t *testing.T) {
	pool := []string{"sensor", "scanner", "", "ap"}
	for seed := uint64(1); seed <= 200; seed++ {
		rng := sim.NewRand(seed)
		p, tl := NewProvenance(), &tally{}
		n := 3 + rng.Intn(10)
		for i := 0; i < n; i++ {
			name := pool[rng.Intn(len(pool))]
			p.Actor(name)
			tl.actor(name)
		}
		stranger := ActorID(n + rng.Intn(3))
		for f := 0; f < 30; f++ {
			from := ActorID(rng.Intn(n))
			var rxs []ActorID
			for rx := ActorID(0); rx < ActorID(n); rx++ {
				if rx != from && rng.Intn(2) == 0 {
					rxs = append(rxs, rx)
				}
			}
			if f == 0 {
				rxs = append(rxs, stranger)
			}
			radioOff, belowSens := rng.Intn(3), rng.Intn(3)
			frame := p.Transmitted(from, len(rxs)+radioOff+belowSens)
			for _, rx := range rxs {
				reason := resolvable[rng.Intn(len(resolvable))]
				p.Resolve(frame, rx, sim.Time(f), reason)
				tl.resolve(from, rx, reason)
			}
			p.ResolveOutOfRange(frame, radioOff, belowSens)
			tl.outOfRange(from, radioOff, belowSens)
			if rng.Intn(3) == 0 {
				q := ActorID(rng.Intn(n))
				p.QueueDrop(q, sim.Time(f))
				tl.queueDrop(q)
			}
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, format := range []struct {
			name        string
			write       func(io.Writer) error
			oracleWrite func(*Provenance, *tally, io.Writer) error
		}{
			{"WriteReport", p.WriteReport, oracleWriteReport},
			{"WriteReportJSON", p.WriteReportJSON, oracleWriteReportJSON},
		} {
			var got, want bytes.Buffer
			if err := format.write(&got); err != nil {
				t.Fatal(err)
			}
			if err := format.oracleWrite(p, tl, &want); err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("seed %d: %s:\n%s\nwant rows per name pair:\n%s", seed, format.name, got.String(), want.String())
			}
		}
	}
}
