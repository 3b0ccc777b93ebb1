package wile_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each Benchmark*
// reports the reproduced quantity as a custom metric alongside the usual
// ns/op, so `bench_output.txt` doubles as the measured-results record
// EXPERIMENTS.md references:
//
//	BenchmarkTable1EnergyPerPacketWiLE     µJ/pkt    (paper: 84)
//	BenchmarkTable1EnergyPerPacketBLE      µJ/pkt    (paper: 71)
//	BenchmarkTable1EnergyPerPacketWiFiDC   mJ/pkt    (paper: 238.2)
//	BenchmarkTable1EnergyPerPacketWiFiPS   mJ/pkt    (paper: 19.8)
//	BenchmarkFig3aWiFiJoinTrace            mJ/cycle, tx-s
//	BenchmarkFig3bWiLETrace                mJ/cycle
//	BenchmarkFig4AveragePowerSweep         crossover-s
//	BenchmarkClaimsJoinFrameCount          mac-frames, hl-frames

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"wile"
	"wile/internal/dot11"
	"wile/internal/engine"
	"wile/internal/experiment"
	"wile/internal/medium"
	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
)

// --- Table 1 ---

func BenchmarkTable1EnergyPerPacketWiLE(b *testing.B) {
	b.ReportAllocs()
	var m experiment.Measurement
	for i := 0; i < b.N; i++ {
		var err error
		m, _, err = experiment.MeasureWiLE()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.EnergyPerPacket.Micro(), "µJ/pkt")
	b.ReportMetric(float64(m.Events), "events/op")
}

func BenchmarkTable1EnergyPerPacketBLE(b *testing.B) {
	b.ReportAllocs()
	var m experiment.Measurement
	for i := 0; i < b.N; i++ {
		m = experiment.MeasureBLE()
	}
	b.ReportMetric(m.EnergyPerPacket.Micro(), "µJ/pkt")
	b.ReportMetric(float64(m.Events), "events/op")
}

func BenchmarkTable1EnergyPerPacketWiFiDC(b *testing.B) {
	b.ReportAllocs()
	var m experiment.Measurement
	for i := 0; i < b.N; i++ {
		var err error
		m, err = experiment.MeasureWiFiDC()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.EnergyPerPacket.Milli(), "mJ/pkt")
	b.ReportMetric(float64(m.Events), "events/op")
}

func BenchmarkTable1EnergyPerPacketWiFiPS(b *testing.B) {
	b.ReportAllocs()
	var m experiment.Measurement
	for i := 0; i < b.N; i++ {
		var err error
		m, err = experiment.MeasureWiFiPS()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.EnergyPerPacket.Milli(), "mJ/pkt")
	b.ReportMetric(float64(m.Events), "events/op")
}

// --- Figure 3 ---

func BenchmarkFig3aWiFiJoinTrace(b *testing.B) {
	b.ReportAllocs()
	var tr *experiment.Trace
	for i := 0; i < b.N; i++ {
		if tr != nil {
			tr.Release()
		}
		var err error
		tr, err = experiment.RunFig3a(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tr.Energy.Milli(), "mJ/cycle")
	if txAt, _, ok := tr.PhaseBounds("Tx"); ok {
		b.ReportMetric(txAt.Seconds(), "tx-at-s")
	}
	b.ReportMetric(float64(len(tr.Meter.Samples)), "samples/op")
	b.ReportMetric(float64(tr.Events), "events/op")
}

func BenchmarkFig3bWiLETrace(b *testing.B) {
	b.ReportAllocs()
	var tr *experiment.Trace
	for i := 0; i < b.N; i++ {
		if tr != nil {
			tr.Release()
		}
		var err error
		tr, err = experiment.RunFig3b(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tr.Energy.Milli(), "mJ/cycle")
	b.ReportMetric(float64(tr.Events), "events/op")
}

// --- Figure 4 ---

func BenchmarkFig4AveragePowerSweep(b *testing.B) {
	table, err := experiment.RunTable1()
	if err != nil {
		b.Fatal(err)
	}
	// The grid is pure setup: build it once so the timed region measures
	// the Equation-1 sweep, not 300 time.Duration appends per iteration.
	intervals := experiment.DefaultFig4Intervals()
	var fig *experiment.Fig4Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = experiment.RunFig4(table, intervals)
	}
	b.ReportMetric(fig.CrossoverDCPS.Seconds(), "crossover-s")
	b.ReportMetric(float64(len(fig.Series[0].Points)), "points/series")
}

// --- §3.1 claims ---

func BenchmarkClaimsJoinFrameCount(b *testing.B) {
	b.ReportAllocs()
	var c *experiment.ClaimsResult
	for i := 0; i < b.N; i++ {
		var err error
		c, err = experiment.RunClaims()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.MACLayerFrames), "mac-frames/op")
	b.ReportMetric(float64(c.HigherLayerFrames), "hl-frames/op")
	b.ReportMetric(float64(c.FourWayFrames), "4way-frames/op")
	b.ReportMetric(float64(c.Events), "events/op")
}

// --- Ablations ---

func BenchmarkAblationBitrateSweep(b *testing.B) {
	var pts []experiment.BitratePoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiment.RunBitrateAblation()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Energy.Micro(), "µJ@1Mbps")
	b.ReportMetric(pts[len(pts)-1].Energy.Micro(), "µJ@72Mbps")
}

func BenchmarkAblationPayloadSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunPayloadAblation(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationJitterStudy(b *testing.B) {
	var pts []experiment.JitterPoint
	for i := 0; i < b.N; i++ {
		pts = experiment.RunJitterStudy([]float64{40}, 50)
	}
	b.ReportMetric(pts[0].DeliveryRate*100, "delivery-%")
	var events uint64
	for _, p := range pts {
		events += p.Events
	}
	b.ReportMetric(float64(events), "events/op")
}

// --- Micro-benchmarks on the hot protocol paths ---

func BenchmarkBeaconBuildAndMarshal(b *testing.B) {
	benchBeaconBuildAndMarshal(b)
}

func benchBeaconBuildAndMarshal(b *testing.B) {
	msg := &wile.Message{DeviceID: 1, Seq: 1, Readings: []wile.Reading{wile.Temperature(17)}}
	var scratch []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		msg.Seq = uint16(i)
		beacon, err := wile.BuildBeacon(1, 6, msg, nil)
		if err != nil {
			b.Fatal(err)
		}
		scratch, err = dot11.AppendMarshal(scratch[:0], beacon)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBeaconDecodeToMessage(b *testing.B) {
	msg := &wile.Message{DeviceID: 1, Seq: 1, Readings: []wile.Reading{wile.Temperature(17)}}
	beacon, err := wile.BuildBeacon(1, 6, msg, nil)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := dot11.Marshal(beacon)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := dot11.Decode(raw)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wile.DecodeBeacon(f.(*dot11.Beacon), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSealedBeaconRoundTrip(b *testing.B) {
	key, err := wile.NewKey([]byte("0123456789abcdef"))
	if err != nil {
		b.Fatal(err)
	}
	keyFor := func(uint32) *wile.Key { return key }
	msg := &wile.Message{DeviceID: 1, Seq: 1, Readings: []wile.Reading{wile.Temperature(17)}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		msg.Seq = uint16(i)
		beacon, err := wile.BuildBeacon(1, 6, msg, key)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wile.DecodeBeacon(beacon, keyFor); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndTransmission(b *testing.B) {
	benchEndToEndTransmission(b)
}

func benchEndToEndTransmission(b *testing.B) {
	sched := wile.NewScheduler()
	med := wile.NewMedium(sched, wile.Channel(6))
	sensor := wile.NewSensor(sched, med, wile.SensorConfig{DeviceID: 1, SkipBoot: true})
	scanner := wile.NewScanner(sched, med, wile.ScannerConfig{Position: wile.Position{X: 2}})
	scanner.Start()
	readings := []wile.Reading{wile.Temperature(17)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sensor.TransmitOnce(readings, nil)
		sched.RunFor(10 * time.Millisecond)
	}
	if scanner.Stats.Messages != b.N {
		b.Fatalf("delivered %d of %d", scanner.Stats.Messages, b.N)
	}
}

// --- Extended ablation benches ---

func BenchmarkAblationInterferenceStudy(b *testing.B) {
	var pts []experiment.InterferencePoint
	for i := 0; i < b.N; i++ {
		pts = experiment.RunInterferenceStudy([]float64{0.8})
	}
	b.ReportMetric(pts[0].DeliveryRate*100, "delivery-%@80duty")
	b.ReportMetric(float64(pts[0].MeanDelay.Microseconds()), "deferral-µs")
	var events uint64
	for _, p := range pts {
		events += p.Events
	}
	b.ReportMetric(float64(events), "events/op")
}

func BenchmarkAblationFastRejoin(b *testing.B) {
	var m experiment.Measurement
	for i := 0; i < b.N; i++ {
		var err error
		m, err = experiment.MeasureWiFiDCFast()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.EnergyPerPacket.Milli(), "mJ/pkt")
	b.ReportMetric(float64(m.Events), "events/op")
}

func BenchmarkAblationHopperStudy(b *testing.B) {
	var pts []experiment.HopperPoint
	for i := 0; i < b.N; i++ {
		pts = experiment.RunHopperStudy([]int{3})
	}
	b.ReportMetric(pts[0].CaptureRate*100, "capture-%@3ch")
	var events uint64
	for _, p := range pts {
		events += p.Events
	}
	b.ReportMetric(float64(events), "events/op")
}

func BenchmarkAblationGoodput(b *testing.B) {
	var res *experiment.GoodputResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.RunGoodputStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.WiLEJoulesPerByte*1e6, "wile-µJ/B")
	b.ReportMetric(res.BLEJoulesPerByte*1e6, "ble-µJ/B")
}

// --- Engine speedup pairs ---
//
// Each pair runs the same sweep on the serial reference pool and on a
// parallel pool, so results/bench_output.txt (and BENCH_baseline.json's
// derived speedups) record how much of the machine the engine converts
// into wall-clock. On a single-core runner the pair reads ≈1×; the
// determinism tests guarantee the outputs are byte-identical either way.

func benchFig4Sweep(b *testing.B, p *engine.Pool) {
	prev := experiment.SetPool(p)
	defer experiment.SetPool(prev)
	table, err := experiment.RunTable1()
	if err != nil {
		b.Fatal(err)
	}
	intervals := experiment.DefaultFig4Intervals()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiment.RunFig4(table, intervals)
	}
}

func BenchmarkEngineFig4Sweep(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchFig4Sweep(b, engine.Serial()) })
	b.Run("parallel", func(b *testing.B) { benchFig4Sweep(b, engine.New(0)) })
}

func benchJitterSweep(b *testing.B, p *engine.Pool) {
	prev := experiment.SetPool(p)
	defer experiment.SetPool(prev)
	ppms := []float64{0, 10, 40, 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiment.RunJitterStudy(ppms, 50)
	}
}

func BenchmarkEngineJitterSweep(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchJitterSweep(b, engine.Serial()) })
	b.Run("parallel", func(b *testing.B) { benchJitterSweep(b, engine.New(0)) })
}

func benchTable1(b *testing.B, p *engine.Pool) {
	prev := experiment.SetPool(p)
	defer experiment.SetPool(prev)
	exactAllocs(b, func() {
		if _, err := experiment.RunTable1(); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkEngineTable1(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchTable1(b, engine.Serial()) })
	b.Run("parallel", func(b *testing.B) { benchTable1(b, engine.New(0)) })
}

// --- Observability overhead ---
//
// Every hot path grew nil-guarded observability hooks (see internal/obs and
// DESIGN.md §8). BenchmarkObsDisabled re-runs key workloads with the hooks
// in their default nil state; each sub-benchmark is the exact body of the
// eponymous top-level benchmark, so BENCH_baseline.json's pre-obs entry is
// the reference the pair is diffed against (scripts/benchjson -baseline).
// The disabled path must add zero allocations — TestObsDisabledZeroAlloc
// pins that — and only a predictable branch per event.

func BenchmarkObsDisabled(b *testing.B) {
	b.Run("BeaconBuildAndMarshal", benchBeaconBuildAndMarshal)
	b.Run("EndToEndTransmission", benchEndToEndTransmission)
	b.Run("Fig3bWiLETrace", func(b *testing.B) {
		b.ReportAllocs()
		var tr *experiment.Trace
		for i := 0; i < b.N; i++ {
			if tr != nil {
				tr.Release()
			}
			var err error
			tr, err = experiment.RunFig3b(nil)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkObsEnabled is the other side of the ledger: the same Wi-LE trace
// with a recorder and registry attached, reporting how many trace events
// one wake cycle emits.
func BenchmarkObsEnabled(b *testing.B) {
	b.Run("Fig3bWiLETrace", func(b *testing.B) {
		b.ReportAllocs()
		var events int
		var tr *experiment.Trace
		for i := 0; i < b.N; i++ {
			if tr != nil {
				tr.Release()
			}
			rec := obs.NewRecorder()
			o := &experiment.Obs{Rec: rec, Reg: obs.NewRegistry()}
			var err error
			tr, err = experiment.RunFig3b(o)
			if err != nil {
				b.Fatal(err)
			}
			events = rec.Len()
		}
		b.ReportMetric(float64(events), "events/cycle")
	})
}

// BenchmarkObsExport records a synthetic 100,000-event trace (spans,
// counter samples and instants, over a hundred times the Figure 3a
// firehose) and exports it as Chrome trace JSON: the cost of the
// recorder's event log growing from its initial capacity plus one pass of
// the export encoder.
func BenchmarkObsExport(b *testing.B) {
	const events = 100_000
	fill := func(r *obs.Recorder) {
		dev := r.Track("dev power")
		cur := r.Track("current_mA")
		for i := 0; r.Len() < events; i++ {
			at := sim.Time(i) * sim.Microsecond
			switch i % 3 {
			case 0:
				r.Span(dev, at, at+2*sim.Microsecond, "tx beacon")
			case 1:
				r.Counter(cur, at, float64(i%97)*0.31)
			default:
				r.Instant(dev, at, "dispatch")
			}
		}
	}
	// One lane, still named buffered so that the gate keeps comparing it
	// against the same baseline entry.
	b.Run("buffered", func(b *testing.B) {
		exactAllocs(b, func() {
			r := obs.NewRecorder()
			fill(r)
			if err := r.WriteChromeTrace(io.Discard); err != nil {
				b.Fatal(err)
			}
		})
	})
}

// exactAllocs runs op b.N times so that allocs/op is exact, where a stray
// allocation would move it by one between identical runs. Two sources:
// one-off setup, which an untimed warm-up op absorbs in a lane that runs
// only a handful of ops, and the collector emptying sync.Pools (fmt's
// printers, the frame pools) a varying number of times per op. So the
// pacer is off and the lane collects once at the end of every op, and
// every op refills the pools from empty; the collection stays inside the
// timed region.
func exactAllocs(b *testing.B, op func()) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	op()
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
		runtime.GC()
	}
}

// --- Frame provenance ---
//
// BenchmarkLifecycle pairs the lossy multi-device scenario with provenance
// off (the default nil-hook state — the baseline every PR gates allocs/op
// against) and on (full ledger: per-frame ids, per-receiver outcome
// resolution, per-link counts). BenchmarkDropReport isolates the report
// serialization over a populated ledger.

func BenchmarkLifecycleDisabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunDropScenario(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLifecycleProvenance(b *testing.B) {
	b.ReportAllocs()
	var frames int64
	for i := 0; i < b.N; i++ {
		prov := obs.NewProvenance()
		if _, err := experiment.RunDropScenario(&experiment.Obs{Prov: prov}); err != nil {
			b.Fatal(err)
		}
		frames = prov.Frames()
	}
	b.ReportMetric(float64(frames), "frames")
}

func BenchmarkDropReport(b *testing.B) {
	prov := obs.NewProvenance()
	if _, err := experiment.RunDropScenario(&experiment.Obs{Prov: prov}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := prov.WriteReport(io.Discard); err != nil {
			b.Fatal(err)
		}
		if err := prov.WriteReportJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLedgerField is the density field with a provenance ledger
// attached: n ALOHA radios beaconing at DSSS 1 Mb/s for half a simulated
// second at the crowding of perfbench's field (2000 on a 300 m square), a
// tenth of them asleep, every clean reception resolved delivered, and
// Verify plus a JSON drop report every op. Its events, potential
// receptions, report bytes and allocations per op are exact. The radios
// all attach with the empty name, and the report has one row per pair of
// names, so it holds two rows at any size (the linked pairs and the
// out-of-range receivers): report-bytes/op moves only with the digits of
// the counts. Rows per pair of radios would grow it with the radios, and
// per-pair rows for the radios a frame never reaches with their square.
func BenchmarkLedgerField(b *testing.B) {
	for _, n := range []int{300, 2000} {
		b.Run(fmt.Sprintf("devices=%d", n), func(b *testing.B) {
			var events uint64
			var potential int64
			var report countingWriter
			exactAllocs(b, func() {
				report = 0
				events, potential = runLedgerField(b, n, &report)
			})
			b.ReportMetric(float64(events), "events/op")
			b.ReportMetric(float64(potential), "potential/op")
			b.ReportMetric(float64(report), "report-bytes/op")
		})
	}
}

// runLedgerField runs one BenchmarkLedgerField world, writes its drop
// report to w, and reports its scheduler events and potential receptions.
func runLedgerField(b *testing.B, n int, w io.Writer) (uint64, int64) {
	cfg := experiment.DefaultDensityConfig()
	side := math.Sqrt(float64(n) * 300 * 300 / 2000)
	window := sim.Time(0).Add(500 * time.Millisecond)
	airtime := phy.FrameAirtime(cfg.Rate, cfg.Payload)
	payload := make([]byte, cfg.Payload)
	sched := sim.New()
	med := medium.New(sched, phy.WiFi24Channel(6))
	med.Corrupt = false
	prov := obs.NewProvenance()
	med.ObserveProvenance(prov)
	rng := sim.NewRand(5)
	for i := 0; i < n; i++ {
		trx := med.Attach("", medium.Position{X: rng.Float64() * side, Y: rng.Float64() * side}, cfg.TxPower, cfg.Sensitivity)
		id := trx.ProvID()
		trx.Handler = func(r medium.Reception) {
			if !r.Collided {
				prov.Resolve(r.Frame, id, r.End, obs.Delivered) //wile:allow obsguard -- the world built this ledger; it is never nil
			}
		}
		if i%10 == 9 {
			continue // asleep
		}
		trx.SetOn(true)
		var beacon func()
		beacon = func() {
			med.Transmit(trx, payload, cfg.Rate)
			next := cfg.Period + time.Duration(rng.Float64()*float64(cfg.Period)/16)
			if sched.Now().Add(next+airtime) < window {
				sched.After(next, beacon)
			}
		}
		sched.After(time.Duration(rng.Float64()*float64(cfg.Period)), beacon)
	}
	sched.RunUntil(window)
	if err := prov.Verify(); err != nil {
		b.Fatal(err)
	}
	if err := prov.WriteReportJSON(w); err != nil {
		b.Fatal(err)
	}
	return sched.Fired(), prov.Potential()
}

// countingWriter counts the bytes written to it.
type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// BenchmarkMediumDense drives the culled, gridded medium at beacon
// densities the all-pairs walk could not touch: n beaconing devices in a
// 300 m square sharing one channel for half a simulated second. ns/op here
// is the cost of the city-scale channel model itself — receiver culling,
// the grid build and queries, incremental busy-tracking and the per-radio
// window compaction all sit on this path. Its transmissions, receptions
// (deliveries plus collisions) and collisions per op are exact.
func BenchmarkMediumDense(b *testing.B) {
	for _, n := range []int{500, 2000} {
		b.Run(fmt.Sprintf("devices=%d", n), func(b *testing.B) {
			cfg := experiment.DefaultDensityConfig()
			cfg.Devices = []int{n}
			cfg.Side = 300
			cfg.Window = 500 * time.Millisecond
			prev := experiment.SetPool(engine.Serial())
			defer experiment.SetPool(prev)
			b.ReportAllocs()
			b.ResetTimer()
			var pts []experiment.DensityPoint
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = experiment.RunDensitySweep(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			p := pts[0]
			b.ReportMetric(p.CollisionRate*100, "collision-%")
			b.ReportMetric(float64(p.Transmissions)/b.Elapsed().Seconds()*float64(b.N), "tx/s")
			b.ReportMetric(float64(p.Transmissions), "tx/op")
			b.ReportMetric(float64(p.Deliveries+p.Collisions), "rx/op")
			b.ReportMetric(float64(p.Collisions), "collisions/op")
		})
	}
}

// TestObsDisabledZeroAlloc is the acceptance gate for the disabled path:
// building and marshaling a beacon with no hooks attached must stay within
// the pre-obs allocation budget (9 allocs/op at the PR-2 baseline).
func TestObsDisabledZeroAlloc(t *testing.T) {
	msg := &wile.Message{DeviceID: 1, Seq: 1, Readings: []wile.Reading{wile.Temperature(17)}}
	var scratch []byte
	allocs := testing.AllocsPerRun(200, func() {
		beacon, err := wile.BuildBeacon(1, 6, msg, nil)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err = dot11.AppendMarshal(scratch[:0], beacon)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 9 {
		t.Fatalf("beacon build+marshal costs %.1f allocs/op with obs disabled; budget is 9", allocs)
	}
}

// TestProvenanceDisabledZeroAlloc pins the disabled frame-provenance path:
// with no ledger attached, one transmit/deliver cycle on the raw medium
// must stay within the pre-provenance allocation budget (the delivery
// closures and scheduler events; 4 allocs/op at the PR-8 baseline). The
// ledger hooks are nil checks only — any allocation growth here means the
// disabled path regressed.
func TestProvenanceDisabledZeroAlloc(t *testing.T) {
	sched := wile.NewScheduler()
	med := wile.NewMedium(sched, wile.Channel(6))
	tx := med.Attach("tx", wile.Position{}, 0, phy.SensitivityWiFiMCS7)
	rx := med.Attach("rx", wile.Position{X: 2}, 0, phy.SensitivityWiFiMCS7)
	tx.SetOn(true)
	rx.SetOn(true)
	rx.Handler = func(medium.Reception) {}
	data := make([]byte, 64)
	// Warm the grid, the per-radio windows and the event queue's capacity
	// out of the measurement.
	for i := 0; i < 8; i++ {
		med.Transmit(tx, data, phy.RateHTMCS7SGI)
		sched.RunFor(time.Millisecond)
	}
	allocs := testing.AllocsPerRun(200, func() {
		med.Transmit(tx, data, phy.RateHTMCS7SGI)
		sched.RunFor(time.Millisecond)
	})
	if allocs > 4 {
		t.Fatalf("transmit+deliver costs %.1f allocs/op with provenance disabled; budget is 4", allocs)
	}
}
