package medium

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
)

// Differential test for the scaling refactor and the one-event-per-frame
// delivery (DESIGN.md §12): the culled, gridded, incrementally busy-tracked
// medium must be byte-identical to a brute-force all-pairs reference — same
// reception traces (order included), same Stats, same carrier-sense
// answers, same drop reports — on randomized topologies with mixed
// sensitivities, powers, dead radios and overlapping schedules, and with
// Handlers that transmit or switch radios on and off mid-frame.

// air is the medium surface a scenario drives: the Medium itself, or the
// reference model over the same radios.
type air interface {
	Transmit(t *Transceiver, data []byte, rate phy.Rate) time.Duration
	Busy(t *Transceiver) bool
	BusyUntil(t *Transceiver) sim.Time
}

// allPairs is the reference model. It shares the Medium's radios, counters,
// ledger and finishDelivery, and none of its delivery path: carrier sense
// scans the whole transmission history, every other radio gets its own
// delivery event per frame, and RSSI and collisions are evaluated at
// delivery time.
type allPairs struct {
	m       *Medium
	history []transmission
}

func (r *allPairs) Transmit(t *Transceiver, data []byte, rate phy.Rate) time.Duration {
	m := r.m
	if !t.on {
		panic(fmt.Sprintf("medium: %s transmitting with radio off", t.Name))
	}
	airtime := phy.FrameAirtime(rate, len(data))
	now := m.sched.Now()
	tx := transmission{from: t, data: data, rate: rate, start: now, end: now.Add(airtime)}
	if m.Prov != nil {
		tx.frame = m.Prov.Transmitted(t.prov, len(m.nodes)-1)
	}
	r.history = append(r.history, tx)
	m.Stats.Transmissions++
	for _, rcv := range m.nodes {
		if rcv == t {
			continue
		}
		rcv := rcv
		m.sched.DoAt(tx.end, func() { r.deliver(tx, rcv) })
	}
	return airtime
}

// rssiAt reports from's signal strength at to, evaluated from scratch.
func (r *allPairs) rssiAt(from, to *Transceiver) phy.DBm {
	return r.m.Loss.RSSI(from.TxPower, from.Pos.Distance(to.Pos))
}

// Busy is BusyUntil's scan: anything t hears now ends after now >= 0.
func (r *allPairs) Busy(t *Transceiver) bool { return r.BusyUntil(t) != 0 }

func (r *allPairs) BusyUntil(t *Transceiver) sim.Time {
	now := r.m.sched.Now()
	var until sim.Time
	for _, tx := range r.history {
		if tx.end <= now || tx.start > now {
			continue
		}
		if (tx.from == t || r.rssiAt(tx.from, t) >= t.Sensitivity) && tx.end > until {
			until = tx.end
		}
	}
	return until
}

// deliver settles one receiver at its turn. A receiver out of range (RSSI
// under its own floor) is a bulk resolve of one; the rest resolve one by
// one.
func (r *allPairs) deliver(tx transmission, rcv *Transceiver) {
	m := r.m
	off := !rcv.on || rcv.Handler == nil
	rssi := r.rssiAt(tx.from, rcv)
	if rssi < rcv.Sensitivity {
		if m.Prov != nil {
			if off {
				m.Prov.ResolveOutOfRange(tx.frame, 1, 0)
			} else {
				m.Prov.ResolveOutOfRange(tx.frame, 0, 1)
			}
		}
		return
	}
	if off {
		if m.Prov != nil {
			m.Prov.Resolve(tx.frame, rcv.prov, tx.end, obs.DropRadioOff)
		}
		return
	}
	collided := false
	for _, other := range r.history {
		if other.from == tx.from && other.start == tx.start && other.end == tx.end {
			continue
		}
		if other.start >= tx.end || other.end <= tx.start {
			continue
		}
		if other.from == rcv {
			collided = true
			break
		}
		otherRSSI := r.rssiAt(other.from, rcv)
		if otherRSSI < rcv.Sensitivity {
			continue
		}
		if float64(rssi-otherRSSI) >= CaptureMarginDB {
			continue
		}
		collided = true
		break
	}
	m.finishDelivery(&tx, rcv, rssi, collided)
}

// equivScenario is a fully pre-generated world + transmission schedule, so
// both media replay exactly the same inputs.
type equivScenario struct {
	pos    []Position
	power  []phy.DBm
	sens   []phy.DBm
	on     []bool
	deaf   []bool // attached with no handler
	txAt   []time.Duration
	txFrom []int
	txLen  []int
	txRate []phy.Rate
	probes []time.Duration
	// Re-entrant handlers: reply[i] makes radio i answer every scheduled
	// frame it receives with a short frame from inside its Handler, and
	// toggle[i] (0 for none; a target is always a later radio) makes it
	// switch that radio's power at every reception.
	reply  []bool
	toggle []int
}

// replyRate marks reply frames, which are never answered themselves.
var replyRate = phy.RateOFDM24

func genScenario(seed uint64, reentrant bool) equivScenario {
	rng := sim.NewRand(seed)
	var sc equivScenario
	n := 2 + rng.Intn(39)
	powers := []phy.DBm{0, 10, 20}
	senses := []phy.DBm{phy.SensitivityWiFiMCS7, -85, phy.SensitivityBLE}
	for i := 0; i < n; i++ {
		sc.pos = append(sc.pos, Position{X: rng.Float64() * 60, Y: rng.Float64() * 60})
		sc.power = append(sc.power, powers[rng.Intn(len(powers))])
		sc.sens = append(sc.sens, senses[rng.Intn(len(senses))])
		sc.on = append(sc.on, rng.Float64() < 0.8)
		sc.deaf = append(sc.deaf, rng.Float64() < 0.15)
	}
	txs := 5 + rng.Intn(60)
	for i := 0; i < txs; i++ {
		from := rng.Intn(n)
		if !sc.on[from] {
			continue // powered-off radios cannot transmit
		}
		sc.txAt = append(sc.txAt, time.Duration(rng.Float64()*float64(100*time.Millisecond)))
		sc.txFrom = append(sc.txFrom, from)
		sc.txLen = append(sc.txLen, rng.Intn(400))
		rate := phy.RateOFDM6
		if rng.Float64() < 0.3 {
			rate = phy.RateDSSS1
		}
		sc.txRate = append(sc.txRate, rate)
	}
	for i := 0; i < 20; i++ {
		sc.probes = append(sc.probes, time.Duration(rng.Float64()*float64(120*time.Millisecond)))
	}
	sc.reply = make([]bool, n)
	sc.toggle = make([]int, n)
	if reentrant {
		for i := 0; i < n; i++ {
			sc.reply[i] = rng.Float64() < 0.2
			if i+1 < n && rng.Float64() < 0.2 {
				sc.toggle[i] = i + 1 + rng.Intn(n-i-1)
			}
		}
	}
	return sc
}

// atBoundaries moves sc's radios, in place, to where the grid's distance
// prefilter could disagree with the exact RSSI test, and returns it. The
// first radios become transmitters on integer positions. Every other radio
// sits near one of them: on its interference radius Loss.Range(power,
// minSens) scaled by 1 + k·1e-12 for k in -2..3, at exactly 1 m (the
// path-loss clamp) or closer than 0.1 m (the distance clamp). Half of them
// take minSens as their own floor, so the exact test decides whether they
// hear.
func atBoundaries(sc equivScenario, seed uint64) equivScenario {
	rng := sim.NewRand(^seed)
	loss := phy.PathLoss{Exponent: 3, FreqMHz: phy.WiFi24Channel(6).FreqMHz}
	minSens := slices.Min(sc.sens)
	anchors := 1 + len(sc.pos)/8
	for a := 0; a < anchors; a++ {
		sc.pos[a] = Position{X: math.Round(sc.pos[a].X), Y: math.Round(sc.pos[a].Y)}
		sc.on[a] = true
		for i := 0; i < 4; i++ {
			sc.txAt = append(sc.txAt, time.Duration(rng.Float64()*float64(100*time.Millisecond)))
			sc.txFrom = append(sc.txFrom, a)
			sc.txLen = append(sc.txLen, rng.Intn(400))
			sc.txRate = append(sc.txRate, phy.RateOFDM6)
		}
	}
	for i := anchors; i < len(sc.pos); i++ {
		a := rng.Intn(anchors)
		d := loss.Range(sc.power[a], minSens) * (1 + float64(i%6-2)*1e-12)
		switch i % 8 {
		case 6:
			d = 1
		case 7:
			d = 0.1 * rng.Float64()
		}
		theta := 2 * math.Pi * rng.Float64()
		if i%3 == 0 {
			theta = math.Pi / 2 * float64(rng.Intn(4))
		}
		sc.pos[i] = Position{X: sc.pos[a].X + d*math.Cos(theta), Y: sc.pos[a].Y + d*math.Sin(theta)}
		if rng.Float64() < 0.5 {
			sc.sens[i] = minSens
		}
	}
	return sc
}

// scenarioWorld is sc set up on a fresh medium. Its Handlers and probes
// write everything observable to out as the scheduler runs.
type scenarioWorld struct {
	s      *sim.Scheduler
	m      *Medium
	a      air
	prov   *obs.Provenance
	radios []*Transceiver
	out    bytes.Buffer
	// sent counts the frames each radio transmitted, by name.
	sent map[string]int
}

// newScenarioWorld attaches sc's radios and schedules its frames and
// probes, through the reference model when reference is set and with a
// provenance ledger when ledger is set.
func newScenarioWorld(sc equivScenario, reference, ledger bool) *scenarioWorld {
	s := sim.New()
	w := &scenarioWorld{s: s, m: New(s, phy.WiFi24Channel(6)), sent: map[string]int{}}
	w.a = w.m
	if reference {
		w.a = &allPairs{m: w.m}
	}
	if ledger {
		w.prov = obs.NewProvenance()
		w.m.ObserveProvenance(w.prov)
	}

	radios := make([]*Transceiver, len(sc.pos))
	for i := range sc.pos {
		radios[i] = w.m.Attach(fmt.Sprintf("r%d", i), sc.pos[i], sc.power[i], sc.sens[i])
		radios[i].SetOn(sc.on[i])
	}
	w.radios = radios
	transmit := func(from *Transceiver, data []byte, rate phy.Rate) {
		w.sent[from.Name]++
		w.a.Transmit(from, data, rate)
	}
	for i, self := range radios {
		if sc.deaf[i] {
			continue
		}
		i, self := i, self
		self.Handler = func(r Reception) {
			fmt.Fprintf(&w.out, "rx r%d len=%d rssi=%.4f collided=%v start=%v end=%v frame=%d\n",
				i, len(r.Data), float64(r.RSSI), r.Collided, r.Start, r.End, r.Frame)
			if j := sc.toggle[i]; j != 0 {
				radios[j].SetOn(!radios[j].On())
				fmt.Fprintf(&w.out, "r%d switches r%d on=%v\n", i, j, radios[j].On())
			}
			if sc.reply[i] && r.Rate != replyRate && self.On() {
				transmit(self, make([]byte, 14), replyRate)
				fmt.Fprintf(&w.out, "r%d replies\n", i)
			}
		}
	}
	for i, at := range sc.txAt {
		i := i
		s.After(at, func() {
			if from := radios[sc.txFrom[i]]; from.On() {
				transmit(from, make([]byte, sc.txLen[i]), sc.txRate[i])
			}
		})
	}
	for _, at := range sc.probes {
		at := at
		s.After(at, func() {
			for i, t := range radios {
				fmt.Fprintf(&w.out, "probe t=%v r%d busy=%v until=%v\n", at, i, w.a.Busy(t), w.a.BusyUntil(t))
			}
		})
	}
	return w
}

// transcript runs w until its scheduler drains and renders everything
// observable into one string: receptions, probes, Stats and the ledger's
// conservation check and report.
func (w *scenarioWorld) transcript() string {
	w.s.Run()
	fmt.Fprintf(&w.out, "stats %+v\n", w.m.Stats)
	if w.prov != nil {
		if err := w.prov.Verify(); err != nil {
			fmt.Fprintf(&w.out, "conservation violated: %v\n", err)
		}
		if err := w.prov.WriteReport(&w.out); err != nil {
			fmt.Fprintf(&w.out, "report error: %v\n", err)
		}
	}
	return w.out.String()
}

// playScenario runs sc on a fresh medium (see newScenarioWorld) and
// returns its transcript.
func playScenario(sc equivScenario, reference, ledger bool) string {
	return newScenarioWorld(sc, reference, ledger).transcript()
}

// scenarioFamily selects the generator checkEquiv plays.
type scenarioFamily int

const (
	plainScenarios scenarioFamily = iota
	reentrantScenarios
	boundaryScenarios
)

// checkEquiv plays seeds [from, to) of a scenario family through both
// media. Re-entrant scenarios must also have exercised both kinds of
// mid-frame Handler.
func checkEquiv(t *testing.T, from, to uint64, family scenarioFamily, ledger bool) {
	t.Helper()
	reentrant := family == reentrantScenarios
	var replies, switches int
	for seed := from; seed < to; seed++ {
		sc := genScenario(seed, reentrant)
		if family == boundaryScenarios {
			sc = atBoundaries(sc, seed)
		}
		ref := playScenario(sc, true, ledger)
		got := playScenario(sc, false, ledger)
		if got != ref {
			t.Fatalf("seed %d: medium diverged from the all-pairs reference\n--- all-pairs ---\n%s\n--- medium ---\n%s", seed, ref, got)
		}
		replies += strings.Count(ref, " replies\n")
		switches += strings.Count(ref, " switches ")
	}
	if reentrant && (replies == 0 || switches == 0) {
		t.Fatalf("seeds [%d, %d) exercised %d replies and %d switches, want both", from, to, replies, switches)
	}
}

// TestCulledMatchesAllPairs checks the medium with a ledger attached, so
// culled radios resolve too, first on plain scenarios, then on ones whose
// Handlers act while their frame is still being delivered: a receiver
// transmits a reply, or switches a later radio, possibly another receiver
// of the same frame. Each receiver's outcome must be decided at its own
// turn, as with one event per receiver. Last come scenarios with radios on
// the interference radius and at the distance clamps.
func TestCulledMatchesAllPairs(t *testing.T) {
	checkEquiv(t, 0, 50, plainScenarios, true)
	checkEquiv(t, 200, 250, reentrantScenarios, true)
	checkEquiv(t, 700, 740, boundaryScenarios, true)
}

// TestCulledMatchesAllPairsNoProv repeats the differential check without a
// ledger. Receivers come from the same grid query either way; here no
// culled radio is resolved, and a frame that reaches no radio books no
// delivery event.
func TestCulledMatchesAllPairsNoProv(t *testing.T) {
	checkEquiv(t, 100, 150, plainScenarios, false)
	checkEquiv(t, 300, 350, reentrantScenarios, false)
	checkEquiv(t, 740, 780, boundaryScenarios, false)
}

// Metamorphic relations on the culled path: two inputs that must produce
// related transcripts, checked without an oracle. Each replays generated
// scenarios with the ledger off and on, so the radios the grid culls are
// settled through the same path the relation checks.

// gridCells reports how many grid cells sc's radios occupy once indexed.
func gridCells(sc equivScenario) int {
	m := New(sim.New(), phy.WiFi24Channel(6))
	for i, p := range sc.pos {
		m.Attach(fmt.Sprintf("r%d", i), p, sc.power[i], sc.sens[i])
	}
	m.buildGrid()
	occupied := 0
	for c := range m.grid.nx * m.grid.ny {
		if m.grid.start[c+1] > m.grid.start[c] {
			occupied++
		}
	}
	return occupied
}

// TestTranslatedTopologyIdentical: translating an integer-grid topology by
// an integer offset leaves every pairwise distance bit-identical, so the
// whole transcript must be too. The grid cuts its cells from the radios'
// bounding box, which a translation carries along, so one powered-off
// radio far out of everyone's range stays put in both worlds as the box's
// corner: the others then land in other grid cells and the cell
// boundaries cut the population differently. (At the usual 289 m cell
// edge, the 60 m field 260 m from the corner straddles a boundary in place
// and not once translated.)
func TestTranslatedTopologyIdentical(t *testing.T) {
	const dx, dy = 1037, -2011
	corner := []Position{{X: -260, Y: -2400}}
	regridded := 0
	for _, ledger := range []bool{false, true} {
		for seed := uint64(400); seed < 440; seed++ {
			sc := genScenario(seed, seed%2 == 1)
			moved := sc
			moved.pos = make([]Position, len(sc.pos))
			for i, p := range sc.pos {
				sc.pos[i] = Position{X: math.Round(p.X), Y: math.Round(p.Y)}
				moved.pos[i] = Position{X: sc.pos[i].X + dx, Y: sc.pos[i].Y + dy}
			}
			sc = withRadios(sc, corner, []phy.DBm{phy.SensitivityWiFiMCS7}, []bool{false}, []bool{false})
			moved = withRadios(moved, corner, []phy.DBm{phy.SensitivityWiFiMCS7}, []bool{false}, []bool{false})
			want := playScenario(sc, false, ledger)
			if got := playScenario(moved, false, ledger); got != want {
				t.Fatalf("seed %d, ledger %v: translation by (%d, %d) changed the transcript\n--- in place ---\n%s\n--- translated ---\n%s",
					seed, ledger, dx, dy, want, got)
			}
			if gridCells(moved) != gridCells(sc) {
				regridded++
			}
		}
	}
	if regridded == 0 {
		t.Fatal("no translation changed how many grid cells the radios occupy")
	}
}

// dropReport is a transcript split into its drop report's numbers and
// every other line.
type dropReport struct {
	rest              string
	frames, potential int
	outcomes          map[string]int
	// rows maps a report row's (from, to) to its counts by reason.
	rows map[[2]string]map[string]int
}

// parseReport splits a transcript. The report's unresolved count stays in
// rest.
func parseReport(transcript string) dropReport {
	r := dropReport{outcomes: map[string]int{}, rows: map[[2]string]map[string]int{}}
	var rest strings.Builder
	for _, line := range strings.SplitAfter(transcript, "\n") {
		var unresolved int
		if n, _ := fmt.Sscanf(line, "frames %d, potential receptions %d, unresolved %d", &r.frames, &r.potential, &unresolved); n == 3 {
			fmt.Fprintf(&rest, "unresolved %d\n", unresolved)
			continue
		}
		if !strings.HasPrefix(line, "  ") {
			rest.WriteString(line)
			continue
		}
		if from, row, ok := strings.Cut(strings.TrimSpace(line), " -> "); ok {
			to, counts, _ := strings.Cut(row, ": ")
			byReason := map[string]int{}
			for _, kv := range strings.Fields(counts) {
				reason, n, _ := strings.Cut(kv, "=")
				byReason[reason], _ = strconv.Atoi(n)
			}
			r.rows[[2]string{from, to}] = byReason
			continue
		}
		f := strings.Fields(line)
		r.outcomes[f[0]], _ = strconv.Atoi(f[1])
	}
	r.rest = rest.String()
	return r
}

// withoutProbesOf drops the probe lines of radio from and every later one.
func withoutProbesOf(transcript string, from int) string {
	var kept strings.Builder
	for _, line := range strings.SplitAfter(transcript, "\n") {
		var at string
		var i int
		if n, _ := fmt.Sscanf(line, "probe t=%s r%d busy=", &at, &i); n == 2 && i >= from {
			continue
		}
		kept.WriteString(line)
	}
	return kept.String()
}

// rowDeltas reports how each report row's counts changed from b to a, for
// the rows that changed, with unchanged reasons left out.
func rowDeltas(a, b dropReport) map[[2]string]map[string]int {
	d := map[[2]string]map[string]int{}
	add := func(rows map[[2]string]map[string]int, sign int) {
		for key, counts := range rows {
			if d[key] == nil {
				d[key] = map[string]int{}
			}
			for reason, n := range counts {
				d[key][reason] += sign * n
			}
		}
	}
	add(a.rows, 1)
	add(b.rows, -1)
	for key, counts := range d {
		maps.DeleteFunc(counts, func(_ string, n int) bool { return n == 0 })
		if len(counts) == 0 {
			delete(d, key)
		}
	}
	return d
}

// withRadios returns sc with radios appended that never transmit, reply
// or switch another radio.
func withRadios(sc equivScenario, pos []Position, sens []phy.DBm, on, deaf []bool) equivScenario {
	ext := sc
	ext.pos = slices.Concat(sc.pos, pos)
	ext.power = slices.Concat(sc.power, make([]phy.DBm, len(pos)))
	ext.sens = slices.Concat(sc.sens, sens)
	ext.on = slices.Concat(sc.on, on)
	ext.deaf = slices.Concat(sc.deaf, deaf)
	ext.reply = slices.Concat(sc.reply, make([]bool, len(pos)))
	ext.toggle = slices.Concat(sc.toggle, make([]int, len(pos)))
	return ext
}

// outOfRange names the report's out-of-range receiver.
const outOfRange = "(out of range)"

// TestSilentRadioAddsOnlyRadioOff: attaching one more radio last, powered
// off and with a floor below every other radio's, lowers minSens and so
// widens every transmitter's culling radius. Nothing the other radios see
// may change: receptions, Stats, their probes and every other link row
// stay identical, and the ledger gains exactly one potential reception per
// frame, resolved radio_off. It lands in the new radio's link row from a
// transmitter in range of it, and in the out-of-range row of one that is
// not.
func TestSilentRadioAddsOnlyRadioOff(t *testing.T) {
	for _, ledger := range []bool{false, true} {
		for seed := uint64(500); seed < 540; seed++ {
			sc := genScenario(seed, seed%2 == 1)
			silent := fmt.Sprintf("r%d", len(sc.pos))
			ext := withRadios(sc, []Position{{X: 30, Y: 30}}, []phy.DBm{phy.SensitivityWiFi1M}, []bool{false}, []bool{false})
			want := parseReport(playScenario(sc, false, ledger))
			got := parseReport(withoutProbesOf(playScenario(ext, false, ledger), len(sc.pos)))
			if got.rest != want.rest {
				t.Fatalf("seed %d, ledger %v: a silent radio changed what the others see\n--- without it ---\n%s\n--- with it ---\n%s",
					seed, ledger, want.rest, got.rest)
			}
			off := 0
			for key, delta := range rowDeltas(got, want) {
				if n := delta["radio_off"]; n > 0 && (key[1] == silent || key[1] == outOfRange) {
					off += n
					delete(delta, "radio_off")
				}
				if len(delta) != 0 {
					t.Fatalf("seed %d, ledger %v: the silent radio changed row %s -> %s by %v", seed, ledger, key[0], key[1], delta)
				}
			}
			frames := want.frames
			if off != frames || got.potential != want.potential+frames || got.outcomes["radio_off"] != want.outcomes["radio_off"]+frames {
				t.Fatalf("seed %d, ledger %v: silent radio resolved radio_off %d times, potential %d -> %d, radio_off total %d -> %d, for %d frames",
					seed, ledger, off, want.potential, got.potential, want.outcomes["radio_off"], got.outcomes["radio_off"], frames)
			}
		}
	}
}

// TestFarRadiosAddOnlyOutOfRangeRows: radios attached 100 km out, beyond
// every transmitter's range, in each state a receiver can be in (off, on
// without a Handler, on with one) and with floors that lower minSens,
// change nothing the scenario's radios see: receptions, Stats, probes and
// every link row stay identical. With a ledger, each frame gains one
// potential reception per far radio, all settled in its transmitter's
// out-of-range row, radio_off for the radios that cannot take a frame and
// below_sensitivity for the rest; and a frame costs the same allocations
// as without them.
func TestFarRadiosAddOnlyOutOfRangeRows(t *testing.T) {
	on := []bool{false, false, true, true, true, true}
	deaf := []bool{false, true, true, false, true, false}
	sens := []phy.DBm{phy.SensitivityWiFi1M, phy.SensitivityWiFiMCS7, phy.SensitivityBLE, phy.SensitivityWiFi1M, -85, phy.SensitivityWiFiMCS7}
	var pos []Position
	kOff, kBelow := 0, 0
	for i := range on {
		pos = append(pos, Position{X: 1e5 + 100*float64(i), Y: 1e5})
		if on[i] && !deaf[i] {
			kBelow++
		} else {
			kOff++
		}
	}
	for seed := uint64(600); seed < 640; seed++ {
		reentrant := seed%2 == 1
		sc := genScenario(seed, reentrant)
		ext := withRadios(sc, pos, sens, on, deaf)
		if want, got := playScenario(sc, false, false), withoutProbesOf(playScenario(ext, false, false), len(sc.pos)); got != want {
			t.Fatalf("seed %d, no ledger: far radios changed the transcript\n--- without them ---\n%s\n--- with them ---\n%s", seed, want, got)
		}

		base, far := newScenarioWorld(sc, false, true), newScenarioWorld(ext, false, true)
		want := parseReport(base.transcript())
		got := parseReport(withoutProbesOf(far.transcript(), len(sc.pos)))
		if got.rest != want.rest {
			t.Fatalf("seed %d: far radios changed what the others see\n--- without them ---\n%s\n--- with them ---\n%s", seed, want.rest, got.rest)
		}
		frames := want.frames
		wantOutcomes := maps.Clone(want.outcomes)
		wantOutcomes["radio_off"] += kOff * frames
		wantOutcomes["below_sensitivity"] += kBelow * frames
		if got.frames != frames || got.potential != want.potential+(kOff+kBelow)*frames || !maps.Equal(got.outcomes, wantOutcomes) {
			t.Fatalf("seed %d: %d frames, potential %d -> %d, outcomes %v -> %v; want each frame to add %d radio_off and %d below_sensitivity",
				seed, frames, want.potential, got.potential, want.outcomes, got.outcomes, kOff, kBelow)
		}
		grown := 0
		for key, delta := range rowDeltas(got, want) {
			sent := base.sent[key[0]]
			if wantDelta := map[string]int{"radio_off": kOff * sent, "below_sensitivity": kBelow * sent}; key[1] != outOfRange || !maps.Equal(delta, wantDelta) {
				t.Fatalf("seed %d: far radios changed row %s -> %s by %v; %s sent %d frames", seed, key[0], key[1], delta, key[0], sent)
			}
			grown += sent
		}
		if grown != frames {
			t.Fatalf("seed %d: out-of-range rows grew for %d of %d frames", seed, grown, frames)
		}

		if raceEnabled || reentrant {
			continue // replies and switches make the next frames differ from run to run
		}
		from := slices.Index(sc.on, true)
		if from < 0 {
			continue
		}
		if a, b := frameAllocs(base, from), frameAllocs(far, from); a != b {
			t.Fatalf("seed %d: 20 frames from r%d allocate %d times without the far radios, %d with them", seed, from, a, b)
		}
	}
}

// frameAllocs reports how many heap objects 20 more frames from radio
// from allocate in w, once the scenario has run: the fewest over three
// batches. Receptions go to handlers that do nothing, so the count is the
// medium's and the ledger's own. The scenario's printing handlers would
// add fmt's, and fmt's cached printers grow their buffers by however much
// the output before the batch left them short. An allocation by another
// goroutine during a batch (the runtime's background scavenger, say) can
// only raise that batch's count, so the minimum is exact.
func frameAllocs(w *scenarioWorld, from int) uint64 {
	for _, r := range w.radios {
		if r.Handler != nil {
			r.Handler = func(Reception) {}
		}
	}
	data := make([]byte, 100)
	send := func() {
		w.a.Transmit(w.radios[from], data, phy.RateOFDM6)
		w.s.Run()
	}
	send()
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		for range 20 {
			send()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}
