package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"wile/internal/crypto80211"
	"wile/internal/medium"
	"wile/internal/phy"
	"wile/internal/sim"
)

// tracer records host-time spans around the driver's calls into each layer,
// in memory, for the traced run. Every method is a no-op on a nil tracer, so
// the measured run passes nil and pays one pointer test per boundary.
//
// Code the simulation runs inside RunUntil (MAC, station, AP, scanner
// callbacks) cannot be wrapped from the driver; the CPU profile's package
// buckets attribute it instead.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // indices of the spans not yet ended, innermost last
	op    int
	// scale converts the host times of the op in progress to the
	// reference speed (see prober.scale).
	scale float64
	// perOp holds one host-time value per traced op for each boundary, at
	// the reference speed and in the boundary's metric unit; cur
	// accumulates the op in progress.
	perOp map[string][]float64
	cur   map[string]time.Duration
	// txCalls and txTime total the op's medium.Transmit calls.
	txCalls int
	txTime  time.Duration
}

// span is one timed call. childTime is the part of it covered by nested
// spans and Transmit calls, so its self time is end − start − childTime.
type span struct {
	name       string
	op         int
	parent     int // -1 for an op's root span
	start, end time.Duration
	childTime  time.Duration
	txCalls    int
}

func newTracer() *tracer {
	return &tracer{epoch: hostNow(), perOp: map[string][]float64{}, cur: map[string]time.Duration{}}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, start: since(t.epoch)})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.end = since(t.epoch)
	d := s.end - s.start
	t.cur[s.name] += d
	if s.parent >= 0 {
		t.spans[s.parent].childTime += d
	}
}

// startOp opens op i's root span; scale is the op's probe scale.
func (t *tracer) startOp(i int, scale float64) {
	if t == nil {
		return
	}
	t.op, t.scale = i, scale
	clear(t.cur)
	t.txCalls, t.txTime = 0, 0
	t.begin("op")
}

// endOp closes the op's root span and folds its boundaries into perOp.
func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.end()
	for name, d := range t.cur {
		if name != "op" {
			t.perOp[name] = append(t.perOp[name], t.scale*ms(d))
		}
	}
	if t.txCalls > 0 {
		perCall := t.txTime / time.Duration(t.txCalls)
		t.perOp["medium.transmit"] = append(t.perOp["medium.transmit"], t.scale*us(perCall))
	}
}

// run advances the simulation to until inside a sim.run span.
func (t *tracer) run(sched *sim.Scheduler, until sim.Time) {
	t.begin("sim.run")
	sched.RunUntil(until)
	t.end()
}

// transmit puts one frame on the air, timing the call when tracing. The
// calls are too many to keep one span each; their count and total time go
// to the enclosing span and to the op's per-call average.
func (t *tracer) transmit(m *medium.Medium, trx *medium.Transceiver, data []byte, rate phy.Rate) {
	if t == nil {
		m.Transmit(trx, data, rate)
		return
	}
	start := hostNow()
	m.Transmit(trx, data, rate)
	d := since(start)
	t.txCalls++
	t.txTime += d
	if n := len(t.open); n > 0 {
		s := &t.spans[t.open[n-1]]
		s.txCalls++
		s.childTime += d
	}
}

// boundaryMetrics maps each timed boundary to its per-layer metric name.
var boundaryMetrics = []struct{ boundary, metric string }{
	{"sim.run", "sim.run_ms"},
	{"medium.transmit", "medium.transmit_us"},
	{"obs.verify", "obs.verify_ms"},
	{"obs.report", "obs.report_ms"},
	{"obs.snapshot", "obs.snapshot_ms"},
	{"meter.stop", "meter.stop_ms"},
	{"meter.energy", "meter.energy_ms"},
}

// fillInReps is how many small ops of each other workload the traced run
// times for the boundaries its own workload never crosses.
const fillInReps = 3

// tracedRun is the separate run behind the per-layer metrics. It alternates
// untraced and traced ops under a CPU profile, so the difference between
// the two halves' median op times is the tracing overhead.
func tracedRun(o options, stderr io.Writer) (result, error) {
	s := newSession(o, stderr)
	if err := s.setup(); err != nil {
		return result{}, err
	}
	tr := newTracer()
	var plain, traced, probeUS []float64
	var gcCycles uint64
	var before runtimeStats
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	err := s.loop(func(i int) *tracer {
		before = readRuntime()
		if i%2 == 1 {
			return tr
		}
		return nil
	}, func(i int, opMS, scale float64) {
		gcCycles += readRuntime().gcCycles - before.gcCycles
		probeUS = append(probeUS, us(probeRef)/scale)
		if i%2 == 1 {
			traced = append(traced, opMS)
		} else {
			plain = append(plain, opMS)
		}
	})
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return result{}, err
	}

	// The boundaries this workload never crosses are timed on small ops of
	// the workloads that do, so every per-layer time is a measurement.
	filled := map[string]string{}
	fill := newTracer()
	for _, spec := range workloadSpecs {
		if spec.name == o.workload {
			continue
		}
		w := spec.build(o.seed, true)
		for r := 0; r < fillInReps; r++ {
			fill.startOp(r, s.probe.scale())
			w.op(fill)
			fill.endOp()
		}
		for _, b := range boundaryMetrics {
			if len(tr.perOp[b.boundary]) == 0 && len(fill.perOp[b.boundary]) > 0 {
				tr.perOp[b.boundary] = fill.perOp[b.boundary]
				filled[b.metric] = spec.name
			}
		}
		fill = newTracer()
	}

	c := s.ref
	m := map[string]metric{
		"sim.events_per_op":         {float64(c.Events), "count"},
		"medium.tx_per_op":          {float64(c.Tx), "count"},
		"medium.rx_per_op":          {float64(c.Rx), "count"},
		"medium.collisions_per_op":  {float64(c.Collisions), "count"},
		"medium.rx_per_tx":          {ratio(c.Rx, c.Tx), "ratio"},
		"obs.prov_potential_per_op": {float64(c.Potential), "count"},
		"mac.tx_frames_per_op":      {float64(c.MACFrames), "count"},
		"mac.retries_per_op":        {float64(c.MACRetries), "count"},
		"core.messages_per_op":      {float64(c.Messages), "count"},
		"core.delivery_ratio":       {ratio(c.Messages, c.Sent), "ratio"},
		"meter.samples_per_op":      {float64(c.Samples), "count"},
		"esp32.steps_per_op":        {float64(c.Steps), "count"},
		"runtime.gc_cycles_per_op":  {float64(gcCycles) / float64(s.attempted), "count"},
		"crypto80211.psk_ms":        {pskMS(s.probe, o.seed), "ms"},
		"trace.overhead_ms":         {median(traced) - median(plain), "ms"},
		"host.probe_us":             {median(probeUS), "us"},
	}
	for _, b := range boundaryMetrics {
		unit := "ms"
		if b.boundary == "medium.transmit" {
			unit = "us"
		}
		m[b.metric] = metric{median(tr.perOp[b.boundary]), unit}
	}
	m["sim.ns_per_event"] = metric{m["sim.run_ms"].Value * 1e6 / float64(c.Events), "ns"}
	for _, layer := range cpuLayers {
		m["cpu."+layer+"_pct"] = metric{shares[layer], "%"}
	}
	if err := writeSpans(o, tr, shares, filled, m); err != nil {
		return result{}, err
	}
	return s.result(m), nil
}

// pskMS is the median host time, at the reference speed, of five PSK
// derivations (4096-round PBKDF2-HMAC-SHA1) over the seed's join
// credentials.
func pskMS(p *prober, seed uint64) float64 {
	l := newJoin(seed)
	var times []float64
	for r := 0; r < 5; r++ {
		scale := p.scale()
		start := hostNow()
		crypto80211.PSK(l.pass, l.ssid)
		times = append(times, scale*ms(since(start)))
	}
	return median(times)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// chromeEvent is one complete ("X") event of the Chrome trace format, which
// Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeSpans writes the traced run's spans, CPU buckets and metrics to
// <out>/trace-<workload>-<seed>.json.
func writeSpans(o options, tr *tracer, shares map[string]float64, filled map[string]string, m map[string]metric) error {
	events := make([]chromeEvent, 0, len(tr.spans))
	for _, s := range tr.spans {
		args := map[string]any{
			"op":      s.op,
			"self_us": us(s.end - s.start - s.childTime),
		}
		if s.parent >= 0 {
			args["parent"] = tr.spans[s.parent].name
		}
		if s.txCalls > 0 {
			args["medium.transmit_calls"] = s.txCalls
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1, Args: args,
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	doc := map[string]any{
		"traceEvents": events,
		"otherData": map[string]any{
			"workload":       o.workload,
			"seed":           o.seed,
			"cpu_pct":        shares,
			"filled_in_from": filled,
			"metrics":        m,
		},
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed)), b, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
