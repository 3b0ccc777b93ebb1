// Command wile-trace exports the Figure 3 current traces for plotting and
// timeline inspection: the 50 kSa/s waveform of a WiFi-DC transmission
// (fig3a) and of a Wi-LE transmission (fig3b), with phase annotations.
//
// Usage:
//
//	wile-trace fig3a > fig3a.csv
//	wile-trace fig3b > fig3b.csv
//	wile-trace -perfetto fig3b > fig3b.json   # open at https://ui.perfetto.dev
//	wile-trace -metrics metrics.json fig3b > fig3b.csv
//	wile-trace -drops fig3a                   # frame-provenance drop report
//	wile-trace -drops -json fig3a             # same report, machine-readable
//
// -perfetto replaces the CSV with a Chrome trace-event JSON timeline: one
// track per device/MAC layer plus the meter's current as a counter lane.
// -sched additionally records every scheduler dispatch as an instant (the
// firehose view: 490 dispatches and 57 KB of JSON for fig3a). -metrics
// snapshots the run's counters to a file.
//
// -drops wires a frame-provenance ledger into the run: every transmitted
// frame resolves to exactly one outcome per potential receiver (delivered,
// or one reason from the drop taxonomy), and the report replaces the
// waveform CSV on stdout (-json selects the JSON form): totals per reason,
// then one row per (transmitter name, receiver name) pair, which radios
// that share a name share.
// A ledger that fails its conservation check is still reported, and the
// command then exits 1.
// Combined with -perfetto, the timeline goes to stdout — with one instant
// per drop on per-radio "<name> drops" tracks — and the report to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"wile/internal/experiment"
	"wile/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wile-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	perfetto := fs.Bool("perfetto", false, "write a Chrome trace-event JSON timeline instead of CSV")
	metrics := fs.String("metrics", "", "write a metrics snapshot (JSON) to this file")
	sched := fs.Bool("sched", false, "with -perfetto, also trace every scheduler dispatch (large)")
	drops := fs.Bool("drops", false, "report frame-provenance outcomes (per drop reason and per pair of radio names)")
	jsonOut := fs.Bool("json", false, "with -drops, emit the report as JSON")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: wile-trace [-perfetto] [-metrics file] [-sched] [-drops [-json]] {fig3a|fig3b}")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	var runner func(*experiment.Obs) (*experiment.Trace, error)
	switch fs.Arg(0) {
	case "fig3a":
		runner = experiment.RunFig3a
	case "fig3b":
		runner = experiment.RunFig3b
	default:
		fmt.Fprintf(stderr, "wile-trace: unknown trace %q\n", fs.Arg(0))
		return 2
	}
	if *sched && !*perfetto {
		fmt.Fprintln(stderr, "wile-trace: -sched requires -perfetto")
		return 2
	}
	if *jsonOut && !*drops {
		fmt.Fprintln(stderr, "wile-trace: -json requires -drops")
		return 2
	}

	o := experiment.Obs{Sched: *sched}
	if *perfetto {
		o.Rec = obs.NewRecorder()
	}
	if *metrics != "" {
		o.Reg = obs.NewRegistry()
	}
	if *drops {
		o.Prov = obs.NewProvenance()
	}
	tr, err := runner(&o)
	if err != nil {
		return fatal(stderr, err)
	}
	switch {
	case *perfetto:
		if err := o.Rec.WriteChromeTrace(stdout); err != nil {
			return fatal(stderr, err)
		}
	case *drops:
		// The drop report replaces the waveform CSV.
		if err := writeDrops(o.Prov, stdout, *jsonOut); err != nil {
			return fatal(stderr, err)
		}
	default:
		if err := tr.WriteCSV(stdout); err != nil {
			return fatal(stderr, err)
		}
	}
	if *perfetto && *drops {
		// The timeline owns stdout; the report goes alongside on stderr.
		if err := writeDrops(o.Prov, stderr, *jsonOut); err != nil {
			return fatal(stderr, err)
		}
	}
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			return fatal(stderr, err)
		}
		if err := o.Reg.WriteJSON(f); err != nil {
			_ = f.Close()
			return fatal(stderr, err)
		}
		if err := f.Close(); err != nil {
			return fatal(stderr, err)
		}
		fmt.Fprintln(stderr, "wile-trace: metrics written to", *metrics)
	}
	return 0
}

// writeDrops emits the provenance report in the selected format, then
// checks the ledger's conservation: a report with unresolved frames or a
// broken sum is still written, and the run then fails.
func writeDrops(p *obs.Provenance, w io.Writer, asJSON bool) error {
	write := p.WriteReport
	if asJSON {
		write = p.WriteReportJSON
	}
	if err := write(w); err != nil {
		return err
	}
	return p.Verify()
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "wile-trace:", err)
	return 1
}
