package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
)

// Every workload's small op passes its own check.
func TestSmallOpsPassTheirChecks(t *testing.T) {
	for _, spec := range workloadSpecs {
		t.Run(spec.name, func(t *testing.T) {
			wd := spec.build(1, true).op(nil)
			if err := wd.check(); err != nil {
				t.Fatal(err)
			}
			if c := wd.counts(); c.Events == 0 || c.Tx == 0 {
				t.Errorf("op simulated nothing: %+v", c)
			}
		})
	}
}

// A seed fixes the simulated counts: two fresh builds of the same seed give
// identical counts, and a traced op counts exactly what an untraced one does.
func TestSeedReproducesCounts(t *testing.T) {
	for _, spec := range workloadSpecs {
		t.Run(spec.name, func(t *testing.T) {
			a := spec.build(7, true).op(nil).counts()
			tr := newTracer()
			tr.startOp(0, 1)
			b := spec.build(7, true).op(tr).counts()
			tr.endOp()
			if a != b {
				t.Errorf("seed 7 gave %+v, then %+v", a, b)
			}
		})
	}
}

// The driver's density loop simulates exactly the experiment package's
// density-sweep point.
func TestDensityMatchesSweep(t *testing.T) {
	l := newDensity(3, true)
	if err := l.crossCheck(l.op(nil)); err != nil {
		t.Fatal(err)
	}
}

// A check that sees a broken outcome fails the op.
func TestChecksCatchBrokenOutcomes(t *testing.T) {
	d := newDensity(1, true).op(nil).(*densityWorld)
	d.rx++
	if d.check() == nil {
		t.Error("density check accepted receptions != deliveries + collisions")
	}
	l := newLedger(1, true).op(nil).(*ledgerWorld)
	l.sleepers++
	if l.check() == nil {
		t.Error("ledger check accepted a radio_off total that misses a sleeper")
	}
	f := newFleet(1, true).op(nil).(*fleetWorld)
	f.reg.Counter("wile.rx_messages").Inc()
	if f.check() == nil {
		t.Error("fleet check accepted a registry counter that disagrees with Stats")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the driver must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// runOnce runs the driver and decodes its last output line.
func runOnce(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "-seconds", "1", "-out", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run not clean: %+v (%s)", res, stderr.String())
	}
	return res
}

// Both modes print exactly the metrics BENCHMARK.json declares, with its
// units and well-formed names.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the driver for two seconds")
	}
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ", "), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %s, driver %s", got, want)
	}
	for _, mode := range []struct {
		trace string
		want  []struct{ Name, Unit string }
	}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
		res := runOnce(t, "-workload", "join", "-seed", "2", "-trace", mode.trace)
		if len(res.Metrics) != len(mode.want) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json declares %d", mode.trace, len(res.Metrics), len(mode.want))
		}
		for _, m := range mode.want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("trace %s: metric %s missing", mode.trace, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("trace %s: %s unit %q, BENCHMARK.json says %q", mode.trace, m.Name, got.Unit, m.Unit)
			}
		}
		for name := range res.Metrics {
			if !metricName.MatchString(name) || len(name) > 64 {
				t.Errorf("malformed metric name %q", name)
			}
		}
	}
}

func TestParseOptionsRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "join", "-trace", "2"},
		{"-workload", "join", "-seconds", "0"},
	} {
		if _, err := parseOptions(args, io.Discard); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	o, err := parseOptions([]string{"--workload", "ledger", "--seed", "9", "--seconds", "3", "--trace", "1"}, io.Discard)
	if err != nil || o.workload != "ledger" || o.seed != 9 || o.seconds != 3 || !o.trace {
		t.Errorf("double-dash flags parsed as %+v, %v", o, err)
	}
}

// The probe allocates nothing, so the allocation counter and the GC pacing
// see only the ops.
func TestProbeAllocatesNothing(t *testing.T) {
	p := newProber()
	if n := testing.AllocsPerRun(20, func() { p.run() }); n != 0 {
		t.Errorf("probe allocated %v times per run", n)
	}
}

func TestClassify(t *testing.T) {
	for fn, want := range map[string]string{
		"wile/internal/medium.(*Medium).Transmit.func1":           "medium",
		"wile/internal/crypto80211.PBKDF2SHA1":                    "crypto80211",
		"runtime.mallocgc":                                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                 "runtime",
		"main.(*densityLoad).op":                                  "other",
		"wile/internal/engine.Map[go.shape.struct { a.b/c int }]": "",
		"crypto/sha1.blockAVX2":                                   "",
		"wile/internal/phy.PathLoss.RSSI":                         "",
	} {
		got, ok := classify(fn)
		if ok != (want != "") || got != want {
			t.Errorf("classify(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}

// A real CPU profile parses, and its shares cover every bucket and sum to
// 100% (or are all zero when the profile caught no sample).
func TestCPUSharesOfARealProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("cpu profile unavailable:", err)
	}
	for i := 0; i < 20; i++ {
		pskMS(newProber(), uint64(i))
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range cpuLayers {
		v, ok := shares[l]
		if !ok {
			t.Errorf("no share for %s", l)
		}
		sum += v
	}
	if sum != 0 && (sum < 99.99 || sum > 100.01) {
		t.Errorf("shares sum to %v", sum)
	}
	// The runtime bucket also holds the race detector's bookkeeping under
	// -race, so compare crypto80211 with the other layers only.
	for _, l := range cpuLayers {
		if sum != 0 && l != "crypto80211" && l != "runtime" && l != "other" && shares[l] >= shares["crypto80211"] {
			t.Errorf("PSK loop charged more to %s than to crypto80211: %v", l, shares)
		}
	}
}
