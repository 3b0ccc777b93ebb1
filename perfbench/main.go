// Command perfbench is the simulator's benchmark driver. It runs one
// workload for a fixed wall-clock budget, one fresh simulated world per op,
// checks every op's output, and prints one JSON result line:
//
//	perfbench -workload density -seed 7 -seconds 10 -trace 0
//
// With -trace 0 the line carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics of a traced run, whose spans and CPU-profile
// buckets are also written under -out. See README.md for what each workload
// exercises and why the metrics look the way they do.
//
// Noise controls, each for a measured reason:
//   - one driver goroutine, and experiment.SetPool(engine.Serial()): a
//     two-worker pool on two shared vCPUs measures the host scheduler, not
//     the program;
//   - GOMAXPROCS=1: with a second P the GC's concurrent mark runs on the
//     other vCPU and op times swing with that vCPU's availability;
//   - no forced GC between ops: it cycles the sync.Pools (the meter's sample
//     buffers among them) and shifts what the allocation counter sees;
//   - every host time is scaled to a reference host speed by a probe timed
//     just before it (probe.go), and reported as a median: the host's slow
//     mode can last a whole run, so no statistic of raw times is steady.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"wile/internal/engine"
	"wile/internal/experiment"
	"wile/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	fs.IntVar(&o.seconds, "seconds", 10, "wall-clock seconds of measured ops")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory the traced run writes its span file to")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := lookupWorkload(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	o.trace = trace == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(1)
	experiment.SetPool(engine.Serial())
	var res result
	if o.trace {
		res, err = tracedRun(o, stderr)
	} else {
		res, err = measuredRun(o, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupReps is how many set-ups a run times: one before the measured ops
// and the rest spread evenly across them.
const setupReps = 9

// session is the state one run shares between its phases: the workload, the
// reference outcome every later op must reproduce, the tally of checks, and
// the probe that scales every host time.
type session struct {
	o         options
	w         workload
	ref       counts
	attempted int
	failed    int
	setups    []float64 // set-up times at the reference speed, seconds
	probe     *prober
	stderr    io.Writer
}

func newSession(o options, stderr io.Writer) *session {
	return &session{o: o, probe: newProber(), stderr: stderr}
}

// fail records one failed check.
func (s *session) fail(what string, err error) {
	s.failed++
	if s.failed <= 5 {
		fmt.Fprintf(s.stderr, "perfbench: %s: %v\n", what, err)
	}
}

// setup builds the workload's inputs from the seed and runs one warm-up op,
// checking it, and records the host time of both at the reference speed.
// The first set-up fixes the reference counts; later ones must reproduce
// them exactly.
func (s *session) setup() error {
	scale := s.probe.scale()
	start := hostNow()
	w := newWorkload(s.o.workload, s.o.seed, false)
	wd := w.op(nil)
	s.setups = append(s.setups, scale*since(start).Seconds())
	if err := wd.check(); err != nil {
		return fmt.Errorf("warm-up op: %w", err)
	}
	c := wd.counts()
	if s.w == nil {
		s.w, s.ref = w, c
		if dl, ok := w.(*densityLoad); ok {
			return dl.crossCheck(wd)
		}
		return nil
	}
	if c != s.ref {
		s.fail("set-up", fmt.Errorf("warm-up counts %+v differ from the first set-up's %+v", c, s.ref))
	}
	return nil
}

// step runs and checks one measured op and returns its host time at the
// reference speed, in milliseconds; scale comes from the probe just before.
func (s *session) step(tr *tracer, scale float64) float64 {
	s.attempted++
	start := hostNow()
	tr.startOp(s.attempted, scale)
	wd := s.w.op(tr)
	tr.endOp()
	d := since(start)
	if err := wd.check(); err != nil {
		s.fail(fmt.Sprintf("op %d", s.attempted), err)
	} else if c := wd.counts(); c != s.ref {
		s.fail(fmt.Sprintf("op %d", s.attempted), fmt.Errorf("counts %+v differ from the reference %+v", c, s.ref))
	}
	return scale * ms(d)
}

// loop runs measured ops for the run's budget, with the remaining set-ups
// spread evenly across it. Before every op it times the probe; each is then
// called with the op's index and returns the op's tracer, and done receives
// the op's host time at the reference speed, in milliseconds, and the
// probe's scale.
func (s *session) loop(each func(i int) *tracer, done func(i int, opMS, scale float64)) error {
	budget := time.Duration(s.o.seconds) * time.Second
	start := hostNow()
	for i := 0; since(start) < budget; i++ {
		if len(s.setups) < setupReps && since(start) >= time.Duration(len(s.setups))*budget/setupReps {
			if err := s.setup(); err != nil {
				return err
			}
		}
		scale := s.probe.scale()
		done(i, s.step(each(i), scale), scale)
	}
	for len(s.setups) < setupReps {
		if err := s.setup(); err != nil {
			return err
		}
	}
	return nil
}

// runtimeStats reads the allocation and GC counters the metrics come from.
type runtimeStats struct{ allocBytes, gcCycles uint64 }

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/live:bytes"},
}

func readRuntime() runtimeStats {
	metrics.Read(rtSamples)
	return runtimeStats{allocBytes: rtSamples[0].Value.Uint64(), gcCycles: rtSamples[1].Value.Uint64()}
}

// liveHeapMB runs one more op, keeps its world reachable across a forced GC
// and reads the live heap that GC marked.
func liveHeapMB(w workload) float64 {
	wd := w.op(nil)
	runtime.GC()
	metrics.Read(rtSamples)
	live := rtSamples[2].Value.Uint64()
	runtime.KeepAlive(wd)
	return float64(live) / 1e6
}

// anchorCycles is how many seed-derived join cycles energy_err_pct averages.
const anchorCycles = 8

// energyAnchor is the simulator's Fig-3a accuracy: the mean energy of the
// seed's join cycles against the paper's 238.2 mJ, in percent. It is a
// simulated quantity, exact per seed, and every workload reports it, so a
// speed-up that changes what is simulated shows on all of them. Averaging
// cycles with different backoff and nonce draws keeps it from hinging on
// one cycle's random draws.
func energyAnchor(seed uint64) (float64, error) {
	var sum units.Joules
	for k := 0; k < anchorCycles; k++ {
		wd := newJoin(engine.SubSeed(seed, k)).op(nil).(*joinWorld)
		if err := wd.check(); err != nil {
			return 0, fmt.Errorf("energy anchor cycle %d: %w", k, err)
		}
		sum += wd.energy
	}
	mean := units.Scale(sum, 1.0/anchorCycles)
	return 100 * math.Abs(units.Ratio(mean-paperWiFiDC, paperWiFiDC)), nil
}

// measuredRun is the untraced run behind the end-to-end metrics.
func measuredRun(o options, stderr io.Writer) (result, error) {
	// The anchor runs first: its join cycles leave a meter buffer in the
	// sample pool, which the GCs of the measured ops clear again before
	// heap_live_mb is read.
	anchor, err := energyAnchor(o.seed)
	if err != nil {
		return result{}, err
	}
	s := newSession(o, stderr)
	if err := s.setup(); err != nil {
		return result{}, err
	}
	var ops []float64
	var allocs uint64
	var before runtimeStats
	err = s.loop(func(int) *tracer {
		before = readRuntime()
		return nil
	}, func(_ int, opMS, _ float64) {
		allocs += readRuntime().allocBytes - before.allocBytes
		ops = append(ops, opMS)
	})
	if err != nil {
		return result{}, err
	}
	return s.result(map[string]metric{
		"setup_s":         {median(s.setups), "s"},
		"op_p50_ms":       {median(ops), "ms"},
		"alloc_mb_per_op": {float64(allocs) / float64(len(ops)) / 1e6, "MB"},
		"heap_live_mb":    {liveHeapMB(s.w), "MB"},
		"energy_err_pct":  {anchor, "%"},
	}), nil
}

func (s *session) result(m map[string]metric) result {
	return result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: m}
}

// hostNow reads the host's monotonic clock. The simulation itself runs on
// sim.Scheduler's virtual clock; host time is what the benchmark measures.
func hostNow() time.Time {
	return time.Now() //wile:allow simclock -- the benchmark measures host time
}

func since(t time.Time) time.Duration { return hostNow().Sub(t) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
