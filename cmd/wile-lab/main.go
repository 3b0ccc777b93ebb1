// Command wile-lab regenerates the paper's evaluation: Table 1, Figures 3a,
// 3b and 4, the §3.1 frame-count claims, and the ablation studies.
//
// Usage:
//
//	wile-lab table1               # energy/packet + idle current comparison
//	wile-lab fig3a                # WiFi-DC current trace (ASCII + CSV)
//	wile-lab fig3b                # Wi-LE current trace (ASCII + CSV)
//	wile-lab fig4                 # average power vs interval (ASCII + CSV)
//	wile-lab claims               # §3.1 frame counts
//	wile-lab ablations            # bitrate/payload/listen-interval/jitter/SSID
//	wile-lab density              # beacon collision/delivery vs device count
//	wile-lab all                  # everything except the density sweep
//
// The density sweep scales to 100k+ beaconing devices; -devices overrides
// the default population list (comma-separated counts).
//
// CSVs land in the directory named by -out (default "results").
// -series samples each of fig3a and fig3b's counters on a 10 ms sim-time
// cadence and writes the timeline as <figure>_series.csv — the counters'
// evolution over the run, not just their final values. For a snapshot of
// a figure's final counters, run wile-trace -metrics; for a figure's
// Chrome trace-event timeline, wile-trace -perfetto.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"wile/internal/battery"
	"wile/internal/energy"
	"wile/internal/experiment"
	"wile/internal/obs"
	"wile/internal/pcap"
	"wile/internal/units"
)

func main() {
	out := flag.String("out", "results", "directory for CSV outputs")
	series := flag.Bool("series", false, "also write sim-time metric timelines (CSV) for fig3a/fig3b")
	devices := flag.String("devices", "", "density sweep population sizes (comma-separated, e.g. 1000,10000,100000)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	seriesTimelines = *series
	densityDevices = *devices
	if err := run(flag.Arg(0), *out); err != nil {
		fmt.Fprintln(os.Stderr, "wile-lab:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: wile-lab [-out dir] [-series] [-devices list] {table1|fig3a|fig3b|fig4|claims|joincap|ablations|density|all}")
}

// seriesTimelines mirrors the -series flag for the fig3 runs;
// densityDevices mirrors -devices for the density sweep.
var seriesTimelines bool
var densityDevices string

func run(cmd, out string) error {
	switch cmd {
	case "table1":
		return withTable1(table1)
	case "fig3a":
		return fig3(out, "fig3a", experiment.RunFig3a)
	case "fig3b":
		return fig3(out, "fig3b", experiment.RunFig3b)
	case "fig4":
		return withTable1(func(table *experiment.Table1Result) error { return fig4(out, table) })
	case "claims":
		return claims()
	case "joincap":
		return joincap(out)
	case "ablations":
		return withTable1(ablations)
	case "density":
		return density(out)
	case "all":
		return withTable1(func(table *experiment.Table1Result) error {
			for _, step := range []func() error{
				func() error { return table1(table) },
				func() error { return fig3(out, "fig3a", experiment.RunFig3a) },
				func() error { return fig3(out, "fig3b", experiment.RunFig3b) },
				func() error { return fig4(out, table) },
				claims,
				func() error { return ablations(table) },
			} {
				if err := step(); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		})
	}
	usage()
	return fmt.Errorf("unknown experiment %q", cmd)
}

// joincap writes a pcap of a complete join for external tooling.
func joincap(out string) error {
	packets, err := experiment.RunJoinCapture()
	if err != nil {
		return err
	}
	path := filepath.Join(out, "join.pcap")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := pcap.NewWriter(f, pcap.LinkTypeIEEE80211)
	for _, p := range packets {
		if err := w.WritePacket(p); err != nil {
			return err
		}
	}
	fmt.Printf("%d frames written to %s (inspect with wile-dump)\n", len(packets), path)
	return nil
}

// density runs the city-scale beacon density sweep (DESIGN.md §12,
// EXPERIMENTS.md): collision rate and delivery probability vs device count.
func density(out string) error {
	cfg := experiment.DefaultDensityConfig()
	if densityDevices != "" {
		cfg.Devices = nil
		for _, field := range strings.Split(densityDevices, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil || n <= 0 {
				return fmt.Errorf("bad -devices entry %q (want positive counts)", field)
			}
			cfg.Devices = append(cfg.Devices, n)
		}
	}
	fmt.Printf("Density sweep: %d-byte beacons at %v every %v, %gx%g m field, %v window\n",
		cfg.Payload, cfg.Rate, cfg.Period, cfg.Side, cfg.Side, cfg.Window)
	start := time.Now()
	points, err := experiment.RunDensitySweep(cfg)
	if err != nil {
		return err
	}
	experiment.RenderDensity(os.Stdout, points)
	fmt.Printf("swept %d points in %v\n", len(points), time.Since(start).Round(time.Millisecond))
	path := filepath.Join(out, "density.csv")
	if err := writeFile(path, func(w io.Writer) error { return experiment.WriteDensityCSV(w, points) }); err != nil {
		return err
	}
	fmt.Println("sweep written to", path)
	return nil
}

// measureTable1 measures Table 1; tests wrap it to count the measurements.
var measureTable1 = experiment.RunTable1

// withTable1 measures Table 1 once and hands it to f. The table, Figure 4,
// the battery projection and the fast-rejoin comparison all read that one
// measurement: the runs are deterministic, so measuring again would only
// repeat the work.
func withTable1(f func(*experiment.Table1Result) error) error {
	table, err := measureTable1()
	if err != nil {
		return err
	}
	return f(table)
}

func table1(table *experiment.Table1Result) error {
	table.Render(os.Stdout)
	return nil
}

func fig3(out, name string, runner func(*experiment.Obs) (*experiment.Trace, error)) error {
	// Each figure's world gets sinks of its own; without -series it runs
	// on the disabled path.
	var o experiment.Obs
	if seriesTimelines {
		o.Reg = obs.NewRegistry()
		o.Series = obs.NewTimeSeries(o.Reg, 0)
	}
	tr, err := runner(&o)
	if err != nil {
		return err
	}
	fmt.Printf("Figure %s (energy over the 2 s window: %s)\n",
		name[3:], energy.FormatJoules(tr.Energy))
	tr.RenderASCII(os.Stdout, 78, 14)
	path := filepath.Join(out, name+".csv")
	if err := writeFile(path, tr.WriteCSV); err != nil {
		return err
	}
	tr.Release()
	fmt.Println("trace written to", path)
	if seriesTimelines {
		path := filepath.Join(out, name+"_series.csv")
		if err := writeFile(path, o.Series.WriteCSV); err != nil {
			return err
		}
		fmt.Println("metric series written to", path)
	}
	return nil
}

func fig4(out string, table *experiment.Table1Result) error {
	fig := experiment.RunFig4(table, nil)
	fig.RenderASCII(os.Stdout, 72, 18)
	path := filepath.Join(out, "fig4.csv")
	if err := writeFile(path, fig.WriteCSV); err != nil {
		return err
	}
	fmt.Println("series written to", path)
	return nil
}

func claims() error {
	c, err := experiment.RunClaims()
	if err != nil {
		return err
	}
	c.Render(os.Stdout)
	return nil
}

func ablations(table *experiment.Table1Result) error {
	points, err := experiment.RunBitrateAblation()
	if err != nil {
		return err
	}
	experiment.RenderBitrate(os.Stdout, points)

	fmt.Println("\nAblation: payload size vs beacon cost (fragmentation at 243 B)")
	payload, err := experiment.RunPayloadAblation([]int{8, 64, 128, 243, 244, 486, 600})
	if err != nil {
		return err
	}
	fmt.Printf("%8s %6s %8s %10s %12s\n", "payload", "frags", "beacon", "airtime", "energy")
	for _, p := range payload {
		fmt.Printf("%7dB %6d %7dB %10s %12s\n",
			p.PayloadBytes, p.Fragments, p.BeaconBytes, p.Airtime, energy.FormatJoules(p.Energy))
	}

	fmt.Println("\nAblation: WiFi-PS idle current vs listen interval (Table 1 uses LI=3)")
	for _, p := range experiment.RunListenIntervalAblation() {
		fmt.Printf("  LI=%-2d  %s\n", p.ListenInterval, energy.FormatAmps(p.IdleCurrent))
	}

	fmt.Println("\nStudy: §6 clock-jitter self-desynchronization (2 co-periodic sensors)")
	for _, p := range experiment.RunJitterStudy(nil, 200) {
		fmt.Printf("  %5.0f ppm: delivery %5.1f%%  (%d/%d, %d collisions, %d/%d cycles contended)\n",
			p.PPM, p.DeliveryRate*100, p.Delivered, p.Transmissions, p.Collisions, p.ContendedCycles, p.Cycles)
	}

	fmt.Println("\nStudy: Wi-LE on a crowded channel (non-CSMA interferer, §1's motivation)")
	for _, p := range experiment.RunInterferenceStudy(nil) {
		fmt.Printf("  %3.0f%% occupied: delivery %5.1f%%, mean deferral %8v, %d collisions\n",
			p.Duty*100, p.DeliveryRate*100, p.MeanDelay.Round(time.Microsecond), p.Collisions)
	}

	fmt.Println("\nStudy: hopping-receiver capture rate vs channel count (the 5 GHz trade)")
	for _, p := range experiment.RunHopperStudy(nil) {
		fmt.Printf("  %d channel(s), %v dwell: captured %d/%d (%.0f%%)\n",
			p.Channels, p.Dwell, p.Captured, p.Transmissions, p.CaptureRate*100)
	}

	carriers, err := experiment.RunCarrierAblation()
	if err != nil {
		return err
	}
	fmt.Println("\nAblation: carrier frame choice (§4 — why beacons)")
	fmt.Printf("  %-16s %6s %10s %10s  %s\n", "carrier", "bytes", "airtime", "energy", "stock receivers")
	for _, c := range carriers {
		fmt.Printf("  %-16s %5dB %10s %10s  %s\n",
			c.Carrier, c.Bytes, c.Airtime, energy.FormatJoules(c.Energy), c.Receivable)
	}

	ssid, err := experiment.RunHiddenSSIDAblation()
	if err != nil {
		return err
	}
	fmt.Println("\nAblation: hidden vs visible SSID")
	fmt.Printf("  hidden  %3d B on air, %v\n", ssid.HiddenBytes, ssid.HiddenAirtime)
	fmt.Printf("  visible %3d B on air, %v\n", ssid.VisibleBytes, ssid.VisibleAirtime)

	fmt.Println("\nProjection: CR2032 coin-cell life at 1-minute reporting")
	for _, p := range experiment.RunBatteryProjection(table, time.Minute) {
		fmt.Printf("  %-8s %s\n", p.Name, formatLife(p.Life))
	}

	fast, err := experiment.MeasureWiFiDCFast()
	if err != nil {
		return err
	}
	dc := table.Rows[2] // WiFi-DC: the full rejoin on every wake
	fmt.Println("\nAblation: cached-lease fast rejoin (skip DHCP/ARP on wake)")
	fmt.Printf("  full rejoin   %s over %v\n", energy.FormatJoules(dc.EnergyPerPacket), dc.TxDuration.Round(time.Millisecond))
	fmt.Printf("  cached lease  %s over %v — still ≈3 orders above Wi-LE\n",
		energy.FormatJoules(fast.EnergyPerPacket), fast.TxDuration.Round(time.Millisecond))

	good, err := experiment.RunGoodputStudy()
	if err != nil {
		return err
	}
	fmt.Println("\nComparison: payload and energy per byte (the data-rate claim)")
	fmt.Printf("  Wi-LE: %d B per element (%d B max/beacon), %.2f µJ/B\n",
		good.WiLEPayloadPerMsg, good.WiLEMaxPerBeacon, good.WiLEJoulesPerByte*1e6)
	fmt.Printf("  BLE:   %d B per advertisement, %.2f µJ/B\n",
		good.BLEPayloadPerMsg, good.BLEJoulesPerByte*1e6)

	cap10, err := experiment.RunCapacityStudy(10 * time.Minute)
	if err != nil {
		return err
	}
	cap1, err := experiment.RunCapacityStudy(time.Minute)
	if err != nil {
		return err
	}
	fmt.Println("\nCapacity: Wi-LE devices one channel sustains (10% airtime, §6 scale)")
	fmt.Printf("  %v airtime per injection (frame %v + DCF overhead)\n", cap10.PerTxAirtime, cap10.BeaconAirtime)
	fmt.Printf("  at 10-minute reporting: ~%d devices/channel\n", cap10.MaxAt10Util)
	fmt.Printf("  at  1-minute reporting: ~%d devices/channel\n", cap1.MaxAt10Util)

	fmt.Println("\nFeasibility: sourcing the 180 mA WiFi transmit burst")
	const brownoutV = units.Volts(2.43)
	const txBurst = units.Amps(0.18)
	burst := 150 * time.Microsecond
	for _, chem := range []battery.Chemistry{battery.CR2032, battery.AA2, battery.LiSOCl2AA} {
		cell := battery.NewCell(chem)
		if cell.CanSupply(txBurst, brownoutV) {
			fmt.Printf("  %-12s supplies the burst directly (rail %.2f V)\n",
				chem.Name, float64(cell.TerminalV(txBurst)))
			continue
		}
		need := battery.MinCapacitor(cell.TerminalV(0), brownoutV, txBurst, burst)
		fmt.Printf("  %-12s sags to %.2f V — needs a ≥%.0f µF bulk capacitor\n",
			chem.Name, float64(cell.TerminalV(txBurst)), need.Micro())
	}
	return nil
}

func formatLife(d time.Duration) string {
	days := d.Hours() / 24
	switch {
	case days > 3650:
		return fmt.Sprintf("%.0f years (idle-dominated)", days/365)
	case days > 365:
		return fmt.Sprintf("%.1f years", days/365)
	default:
		return fmt.Sprintf("%.1f days", days)
	}
}

func writeFile(path string, write func(w io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}
