package medium

import (
	"bytes"
	"fmt"
	"math"
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

// Busy is BusyUntil's scan: anything t hears now ends after now >= 0.
func (r *allPairs) Busy(t *Transceiver) bool { return r.BusyUntil(t) != 0 }

func (r *allPairs) BusyUntil(t *Transceiver) sim.Time {
	now := r.m.sched.Now()
	var until sim.Time
	for _, tx := range r.history {
		if tx.end <= now || tx.start > now {
			continue
		}
		if (tx.from == t || r.m.rssiAt(tx.from, t) >= t.Sensitivity) && tx.end > until {
			until = tx.end
		}
	}
	return until
}

func (r *allPairs) deliver(tx transmission, rcv *Transceiver) {
	m := r.m
	if !rcv.on || rcv.Handler == nil {
		if m.Prov != nil {
			m.Prov.Resolve(tx.frame, rcv.prov, tx.end, obs.DropRadioOff)
		}
		return
	}
	rssi := m.rssiAt(tx.from, rcv)
	if rssi < rcv.Sensitivity {
		if m.Prov != nil {
			m.Prov.Resolve(tx.frame, rcv.prov, tx.end, obs.DropBelowSensitivity)
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
		otherRSSI := m.rssiAt(other.from, rcv)
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

// playScenario runs sc on a fresh medium, through the reference model when
// reference is set and with a provenance ledger when ledger is set, and
// renders everything observable into one string.
func playScenario(sc equivScenario, reference, ledger bool) string {
	s := sim.New()
	m := New(s, phy.WiFi24Channel(6))
	var a air = m
	if reference {
		a = &allPairs{m: m}
	}
	var prov *obs.Provenance
	if ledger {
		prov = obs.NewProvenance()
		m.ObserveProvenance(prov)
	}

	var out bytes.Buffer
	radios := make([]*Transceiver, len(sc.pos))
	for i := range sc.pos {
		radios[i] = m.Attach(fmt.Sprintf("r%d", i), sc.pos[i], sc.power[i], sc.sens[i])
		radios[i].SetOn(sc.on[i])
	}
	for i, self := range radios {
		if sc.deaf[i] {
			continue
		}
		i, self := i, self
		self.Handler = func(r Reception) {
			fmt.Fprintf(&out, "rx r%d len=%d rssi=%.4f collided=%v start=%v end=%v frame=%d\n",
				i, len(r.Data), float64(r.RSSI), r.Collided, r.Start, r.End, r.Frame)
			if j := sc.toggle[i]; j != 0 {
				radios[j].SetOn(!radios[j].On())
				fmt.Fprintf(&out, "r%d switches r%d on=%v\n", i, j, radios[j].On())
			}
			if sc.reply[i] && r.Rate != replyRate && self.On() {
				a.Transmit(self, make([]byte, 14), replyRate)
				fmt.Fprintf(&out, "r%d replies\n", i)
			}
		}
	}
	for i, at := range sc.txAt {
		i := i
		s.After(at, func() {
			if from := radios[sc.txFrom[i]]; from.On() {
				a.Transmit(from, make([]byte, sc.txLen[i]), sc.txRate[i])
			}
		})
	}
	for _, at := range sc.probes {
		at := at
		s.After(at, func() {
			for i, t := range radios {
				fmt.Fprintf(&out, "probe t=%v r%d busy=%v until=%v\n", at, i, a.Busy(t), a.BusyUntil(t))
			}
		})
	}
	s.Run()

	fmt.Fprintf(&out, "stats %+v\n", m.Stats)
	if prov != nil {
		if err := prov.Verify(); err != nil {
			fmt.Fprintf(&out, "conservation violated: %v\n", err)
		}
		if err := prov.WriteReport(&out); err != nil {
			fmt.Fprintf(&out, "report error: %v\n", err)
		}
	}
	return out.String()
}

// checkEquiv plays seeds [from, to) through both media. Re-entrant
// scenarios must also have exercised both kinds of mid-frame Handler.
func checkEquiv(t *testing.T, from, to uint64, reentrant, ledger bool) {
	t.Helper()
	var replies, switches int
	for seed := from; seed < to; seed++ {
		sc := genScenario(seed, reentrant)
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
// turn, as with one event per receiver.
func TestCulledMatchesAllPairs(t *testing.T) {
	checkEquiv(t, 0, 50, false, true)
	checkEquiv(t, 200, 250, true, true)
}

// TestCulledMatchesAllPairsNoProv repeats the differential check without a
// ledger. Receivers come from the same grid query either way; here no
// culled radio is resolved, and a frame that reaches no radio books no
// delivery event.
func TestCulledMatchesAllPairsNoProv(t *testing.T) {
	checkEquiv(t, 100, 150, false, false)
	checkEquiv(t, 300, 350, true, false)
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
	return len(m.grid.cells)
}

// TestTranslatedTopologyIdentical: translating an integer-grid topology by
// an integer offset leaves every pairwise distance bit-identical, so the
// whole transcript must be too, although the radios land in other grid
// cells and the cell boundaries cut the population differently.
func TestTranslatedTopologyIdentical(t *testing.T) {
	const dx, dy = 1037, -2011
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

// withSilentRadio rewrites a transcript's ledger totals as one more
// receiver resolving radio_off for every frame would leave them, and
// reports the frame count (0 without a ledger).
func withSilentRadio(transcript string) (string, int) {
	lines := strings.SplitAfter(transcript, "\n")
	frames := 0
	for i, line := range lines {
		// The report's header line precedes its outcome lines.
		var potential, unresolved int
		if n, _ := fmt.Sscanf(line, "frames %d, potential receptions %d, unresolved %d", &frames, &potential, &unresolved); n == 3 {
			lines[i] = fmt.Sprintf("frames %d, potential receptions %d, unresolved %d\n", frames, potential+frames, unresolved)
		}
		if f := strings.Fields(line); len(f) == 2 && f[0] == "radio_off" {
			off, _ := strconv.Atoi(f[1])
			lines[i] = fmt.Sprintf("  %-18s %d\n", "radio_off", off+frames)
		}
	}
	return strings.Join(lines, ""), frames
}

// TestSilentRadioAddsOnlyRadioOff: attaching one more radio last, powered
// off and with a floor below every other radio's, lowers minSens and so
// widens every transmitter's culling radius. Nothing the other radios see
// may change: receptions, Stats, their probes and every existing link row
// stay identical, and the ledger gains exactly one potential reception per
// frame, each resolved radio_off at the new radio.
func TestSilentRadioAddsOnlyRadioOff(t *testing.T) {
	for _, ledger := range []bool{false, true} {
		for seed := uint64(500); seed < 540; seed++ {
			sc := genScenario(seed, seed%2 == 1)
			silent := len(sc.pos)
			ext := sc
			ext.pos = append(slices.Clip(sc.pos), Position{X: 30, Y: 30})
			ext.power = append(slices.Clip(sc.power), 0)
			ext.sens = append(slices.Clip(sc.sens), phy.SensitivityWiFi1M)
			ext.on = append(slices.Clip(sc.on), false)
			ext.deaf = append(slices.Clip(sc.deaf), false)
			ext.reply = append(slices.Clip(sc.reply), false)
			ext.toggle = append(slices.Clip(sc.toggle), 0)

			var kept strings.Builder
			silentOff := 0
			probe, link := fmt.Sprintf(" r%d busy=", silent), fmt.Sprintf(" -> r%d: ", silent)
			for _, line := range strings.SplitAfter(playScenario(ext, false, ledger), "\n") {
				if strings.Contains(line, probe) {
					continue
				}
				if _, counts, ok := strings.Cut(line, link); ok {
					off, err := strconv.Atoi(strings.TrimPrefix(strings.TrimSuffix(counts, "\n"), "radio_off="))
					if err != nil {
						t.Fatalf("seed %d, ledger %v: silent radio resolved %q", seed, ledger, line)
					}
					silentOff += off
					continue
				}
				kept.WriteString(line)
			}
			want, frames := withSilentRadio(playScenario(sc, false, ledger))
			if got := kept.String(); got != want {
				t.Fatalf("seed %d, ledger %v: a silent radio changed what the others see\n--- without it ---\n%s\n--- with it ---\n%s",
					seed, ledger, want, got)
			}
			if silentOff != frames {
				t.Fatalf("seed %d, ledger %v: silent radio resolved radio_off %d times for %d frames", seed, ledger, silentOff, frames)
			}
		}
	}
}
