// Command benchjson converts `go test -bench` text output into the
// machine-readable BENCH_baseline.json this repository tracks benchmark
// trajectories with. Besides the standard ns/op, B/op and allocs/op
// columns it keeps every custom metric (µJ/pkt, crossover-s, ...) and
// derives a speedup entry for each benchmark that reports paired
// <name>/serial and <name>/parallel sub-benchmarks, so a future PR can
// diff both the paper's reproduced quantities and the engine's scaling
// against this baseline with jq alone.
//
// Two further derivations support the observability layer's zero-cost
// contract: every BenchmarkObsDisabled/<X> sub-benchmark is paired with
// its reference Benchmark<X> from the same run (obs_pairs, with the
// allocation delta the disabled path added), and -baseline diffs the whole
// run against a previously recorded baseline file (deltas_vs_baseline).
// With -gate the run fails on an ns/op regression past -gate-threshold, on
// any allocs/op growth, and on any change to a custom metric whose unit
// ends in /op: those are exact work counts (events/op, tx/op, ...). B/op
// is diffed but not gated: pool reuse and collector timing move it between
// runs of the same code.
//
// `benchjson -compare old.json new.json` renders the per-lane delta
// between two recorded baselines as a markdown table — CI appends it to
// the GitHub step summary so benchmark movement is visible on every run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name with any -N GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the benchmark ran at (1 when unsuffixed).
	Procs      int     `json:"procs"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp / AllocsPerOp are present only with -benchmem.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units (µJ/pkt, crossover-s, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Speedup compares a benchmark's serial and parallel variants.
type Speedup struct {
	Benchmark       string  `json:"benchmark"`
	SerialNsPerOp   float64 `json:"serial_ns_per_op"`
	ParallelNsPerOp float64 `json:"parallel_ns_per_op"`
	// Speedup is serial/parallel wall-clock; ≈1.0 on a single-core
	// runner, approaching the worker count on a wide machine.
	Speedup float64 `json:"speedup"`
}

// ObsPair compares an ObsDisabled sub-benchmark with its reference
// benchmark from the same run. AddedAllocsPerOp must stay 0: the disabled
// observability path is contractually free of allocations.
type ObsPair struct {
	Benchmark        string  `json:"benchmark"`
	DisabledNsPerOp  float64 `json:"disabled_ns_per_op"`
	ReferenceNsPerOp float64 `json:"reference_ns_per_op"`
	AddedAllocsPerOp float64 `json:"added_allocs_per_op"`
}

// Delta is one benchmark's movement against a previous baseline file.
type Delta struct {
	Name string `json:"name"`
	// NsPerOpPct is the relative ns/op change ((new-old)/old, percent).
	NsPerOpPct float64 `json:"ns_per_op_pct"`
	// AllocsPerOpDiff is the absolute allocs/op change, when both runs
	// recorded it.
	AllocsPerOpDiff *float64 `json:"allocs_per_op_diff,omitempty"`
	// BytesPerOpDiff is the absolute B/op change, when both runs recorded
	// it. The gate does not read it.
	BytesPerOpDiff *float64 `json:"bytes_per_op_diff,omitempty"`
	// CountDiffs maps each custom metric whose unit ends in /op (events/op,
	// tx/op, ...) to its change, for those that differ from the baseline.
	// Such metrics are exact work counts and must not move.
	CountDiffs map[string]float64 `json:"count_diffs,omitempty"`
}

// Baseline is the output document.
type Baseline struct {
	Source     string      `json:"source"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Speedups   []Speedup   `json:"speedups,omitempty"`
	ObsPairs   []ObsPair   `json:"obs_pairs,omitempty"`
	Deltas     []Delta     `json:"deltas_vs_baseline,omitempty"`
}

func main() {
	in := flag.String("in", "results/bench_output.txt", "bench output to parse")
	out := flag.String("out", "BENCH_baseline.json", "JSON file to write")
	baseline := flag.String("baseline", "", "previous baseline JSON to diff ns/op, allocs/op, B/op and custom /op counts against")
	gate := flag.Bool("gate", false, "exit nonzero when the diff against -baseline regresses (ns/op beyond -gate-threshold, any allocs/op increase, or any change to a custom /op count)")
	gateThreshold := flag.Float64("gate-threshold", 25, "ns/op regression percentage the -gate tolerates")
	compare := flag.Bool("compare", false, "compare two baseline JSON files (old new) and print a per-lane markdown delta table to stdout")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare takes exactly two arguments: old.json new.json")
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if *gate && *baseline == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -gate requires -baseline")
		os.Exit(2)
	}
	if err := run(*in, *out, *baseline); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *gate {
		if regressions := checkGate(*out, *gateThreshold); len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "benchjson: gate:", r)
			}
			os.Exit(1)
		}
	}
}

// loadBaseline reads and parses one baseline JSON document.
func loadBaseline(path string) (Baseline, error) {
	var doc Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("parsing %s: %w", path, err)
	}
	return doc, nil
}

// runCompare prints a per-lane markdown delta table between two baseline
// documents — the format CI appends to the GitHub step summary. Lanes
// present in only one file are listed after the table so a silently
// dropped benchmark is visible in review.
func runCompare(w io.Writer, oldPath, newPath string) error {
	oldDoc, err := loadBaseline(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := loadBaseline(newPath)
	if err != nil {
		return err
	}
	old := make(map[string]Benchmark, len(oldDoc.Benchmarks))
	for _, b := range oldDoc.Benchmarks {
		old[b.Name] = b
	}
	cur := make(map[string]Benchmark, len(newDoc.Benchmarks))
	for _, b := range newDoc.Benchmarks {
		cur[b.Name] = b
	}

	fmt.Fprintf(w, "### Benchmark delta: %s → %s\n\n", oldPath, newPath)
	fmt.Fprintln(w, "| benchmark | old ns/op | new ns/op | Δ ns/op | old allocs/op | new allocs/op | Δ allocs | Δ B/op |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|---:|")
	names := make([]string, 0, len(cur))
	for name := range cur {
		if _, ok := old[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		o, n := old[name], cur[name]
		nsDelta := "n/a"
		if o.NsPerOp > 0 {
			nsDelta = fmt.Sprintf("%+.1f%%", (n.NsPerOp-o.NsPerOp)/o.NsPerOp*100)
		}
		fmt.Fprintf(w, "| %s | %.0f | %.0f | %s | %s | %s | %s | %s |\n",
			name, o.NsPerOp, n.NsPerOp, nsDelta, cell("%.0f", o.AllocsPerOp), cell("%.0f", n.AllocsPerOp),
			cell("%+.0f", diff(o.AllocsPerOp, n.AllocsPerOp)), cell("%+.0f", diff(o.BytesPerOp, n.BytesPerOp)))
	}
	var added, removed []string
	for name := range cur {
		if _, ok := old[name]; !ok {
			added = append(added, name)
		}
	}
	for name := range old {
		if _, ok := cur[name]; !ok {
			removed = append(removed, name)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	if len(added) > 0 {
		fmt.Fprintf(w, "\nNew lanes: %s\n", strings.Join(added, ", "))
	}
	if len(removed) > 0 {
		fmt.Fprintf(w, "\nRemoved lanes: %s\n", strings.Join(removed, ", "))
	}
	return nil
}

// checkGate re-reads the just-written output document and reports every
// benchmark whose ns/op regressed beyond threshold percent, whose
// allocs/op grew at all, or whose custom /op counts moved either way. The
// output file is written before the gate runs so CI can always upload the
// artifact, pass or fail.
func checkGate(outPath string, threshold float64) []string {
	data, err := os.ReadFile(outPath)
	if err != nil {
		return []string{err.Error()}
	}
	var doc Baseline
	if err := json.Unmarshal(data, &doc); err != nil {
		return []string{err.Error()}
	}
	var regressions []string
	for _, d := range doc.Deltas {
		if d.NsPerOpPct > threshold {
			regressions = append(regressions,
				fmt.Sprintf("%s ns/op regressed %.1f%% (threshold %.0f%%)", d.Name, d.NsPerOpPct, threshold))
		}
		if d.AllocsPerOpDiff != nil && *d.AllocsPerOpDiff > 0 {
			regressions = append(regressions,
				fmt.Sprintf("%s allocs/op grew by %.0f", d.Name, *d.AllocsPerOpDiff))
		}
		units := make([]string, 0, len(d.CountDiffs))
		for unit := range d.CountDiffs {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			regressions = append(regressions,
				fmt.Sprintf("%s %s changed by %+g; exact counts must match the baseline", d.Name, unit, d.CountDiffs[unit]))
		}
	}
	return regressions
}

func run(in, out, baseline string) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()

	base := Baseline{Source: in}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			base.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			base.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			base.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			if ok {
				base.Benchmarks = append(base.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(base.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in %s", in)
	}
	base.Speedups = deriveSpeedups(base.Benchmarks)
	base.ObsPairs = deriveObsPairs(base.Benchmarks)
	if baseline != "" {
		deltas, err := deriveDeltas(baseline, base.Benchmarks)
		if err != nil {
			return err
		}
		base.Deltas = deltas
	}

	buf, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(buf, '\n'), 0o644)
}

// parseLine parses one result line:
//
//	BenchmarkName-8   100   11915 ns/op   56.40 crossover-s   19928 B/op   9 allocs/op
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name, procs := splitProcs(fields[0])
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Procs: procs, Iterations: iters}
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = ptr(v)
		case "allocs/op":
			b.AllocsPerOp = ptr(v)
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}

func ptr(v float64) *float64 { return &v }

// diff is new − old of a column both runs may lack, nil unless both have it.
func diff(old, cur *float64) *float64 {
	if old == nil || cur == nil {
		return nil
	}
	return ptr(*cur - *old)
}

// cell formats an optional column value, "-" when it is absent.
func cell(format string, v *float64) string {
	if v == nil {
		return "-"
	}
	return fmt.Sprintf(format, *v)
}

// splitProcs strips the -N GOMAXPROCS suffix go test appends when
// GOMAXPROCS > 1. Names can legitimately contain dashes, so only a
// trailing all-digit segment counts.
func splitProcs(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return name, 1
	}
	return name[:i], n
}

// deriveObsPairs matches BenchmarkObsDisabled/<X> with Benchmark<X> from
// the same run.
func deriveObsPairs(bs []Benchmark) []ObsPair {
	byName := make(map[string]Benchmark, len(bs))
	for _, b := range bs {
		byName[b.Name] = b
	}
	var out []ObsPair
	for _, b := range bs {
		rest, ok := strings.CutPrefix(b.Name, "BenchmarkObsDisabled/")
		if !ok {
			continue
		}
		ref, ok := byName["Benchmark"+rest]
		if !ok {
			continue
		}
		pair := ObsPair{
			Benchmark:        "Benchmark" + rest,
			DisabledNsPerOp:  b.NsPerOp,
			ReferenceNsPerOp: ref.NsPerOp,
		}
		if b.AllocsPerOp != nil && ref.AllocsPerOp != nil {
			pair.AddedAllocsPerOp = *b.AllocsPerOp - *ref.AllocsPerOp
		}
		out = append(out, pair)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Benchmark < out[j].Benchmark })
	return out
}

// deriveDeltas diffs the current run against a previously written baseline
// file, for the benchmarks present in both.
func deriveDeltas(path string, bs []Benchmark) ([]Delta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var prev Baseline
	if err := json.Unmarshal(data, &prev); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	old := make(map[string]Benchmark, len(prev.Benchmarks))
	for _, b := range prev.Benchmarks {
		old[b.Name] = b
	}
	var out []Delta
	for _, b := range bs {
		o, ok := old[b.Name]
		if !ok || o.NsPerOp <= 0 {
			continue
		}
		d := Delta{
			Name:            b.Name,
			NsPerOpPct:      (b.NsPerOp - o.NsPerOp) / o.NsPerOp * 100,
			AllocsPerOpDiff: diff(o.AllocsPerOp, b.AllocsPerOp),
			BytesPerOpDiff:  diff(o.BytesPerOp, b.BytesPerOp),
		}
		for unit, v := range b.Metrics {
			if ov, ok := o.Metrics[unit]; ok && strings.HasSuffix(unit, "/op") && v != ov {
				if d.CountDiffs == nil {
					d.CountDiffs = map[string]float64{}
				}
				d.CountDiffs[unit] = v - ov
			}
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// deriveSpeedups pairs <name>/serial with <name>/parallel results.
func deriveSpeedups(bs []Benchmark) []Speedup {
	serial := map[string]float64{}
	parallel := map[string]float64{}
	for _, b := range bs {
		if root, ok := strings.CutSuffix(b.Name, "/serial"); ok {
			serial[root] = b.NsPerOp
		}
		if root, ok := strings.CutSuffix(b.Name, "/parallel"); ok {
			parallel[root] = b.NsPerOp
		}
	}
	var out []Speedup
	for root, s := range serial {
		p, ok := parallel[root]
		if !ok || p <= 0 {
			continue
		}
		out = append(out, Speedup{Benchmark: root, SerialNsPerOp: s, ParallelNsPerOp: p, Speedup: s / p})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Benchmark < out[j].Benchmark })
	return out
}
