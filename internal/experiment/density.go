package experiment

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"wile/internal/engine"
	"wile/internal/medium"
	"wile/internal/phy"
	"wile/internal/sim"
)

// Density sweep: beacon collision rate and delivery probability vs device
// count, the Fig-6-style "massive IoT" regime the 802.11ba literature
// models at thousands-to-millions of contending devices. Each device is a
// bare beaconing radio (unslotted ALOHA — no carrier sense, no backoff:
// the regime where density hurts most, and the load the culled medium must
// absorb). Devices land uniformly in a square field, wake on their own
// phase, and beacon every Period with per-beacon jitter. A beacon counts
// as delivered when at least one neighbor decodes it clean of collision;
// isolated devices (nobody in radius) therefore cap delivery probability
// below 1, which is part of the coverage story, not an artifact.
//
// Every per-device random draw comes from engine.SubSeed(pointSeed, i), so
// the population is a pure function of (seed, index): sweep points shard
// across engine workers with byte-identical results to a serial run.

// DensityConfig parameterizes the sweep.
type DensityConfig struct {
	// Devices lists the population sizes to sweep.
	Devices []int
	// Side is the edge of the square deployment field in meters.
	Side float64
	// Period is the nominal beacon interval; each beacon adds a uniform
	// [0, Period/16) jitter so devices drift instead of phase-locking.
	Period time.Duration
	// Window is the observed sim-time span per point.
	Window time.Duration
	// Payload is the beacon MPDU length in bytes (≥ 8; the first eight
	// bytes carry device id and sequence number).
	Payload int
	// Rate is the beacon PHY rate. The paper's Wi-LE beacons ride the
	// slowest, longest-range rates, which is also where airtime — and so
	// collision pressure — is worst.
	Rate phy.Rate
	// TxPower and Sensitivity define every device's radio. The defaults
	// (0 dBm, MCS7 sensitivity) give the paper's "a few meters" range.
	TxPower     phy.DBm
	Sensitivity phy.DBm
	// Seed derives every per-point and per-device stream.
	Seed uint64
}

// DefaultDensityConfig is the Fig-6-style sweep: up to 100k devices in a
// square kilometer, 100 ms beacons observed for one second.
func DefaultDensityConfig() DensityConfig {
	return DensityConfig{
		Devices:     []int{1000, 3000, 10000, 30000, 100000},
		Side:        1000,
		Period:      100 * time.Millisecond,
		Window:      time.Second,
		Payload:     60,
		Rate:        phy.RateDSSS1,
		TxPower:     0,
		Sensitivity: phy.SensitivityWiFiMCS7,
		Seed:        0xD15C0,
	}
}

// DensityPoint is the outcome of one population size.
type DensityPoint struct {
	Devices int
	Run
	// CollisionRate is collided receptions over all in-range receptions.
	CollisionRate float64
	// DeliveryProb is the fraction of beacons decoded clean by at least
	// one neighbor.
	DeliveryProb float64
	// MeanAudience is the mean number of in-range receivers per beacon.
	MeanAudience float64
}

// densityDevice is one beaconing radio's progress through the window.
type densityDevice struct {
	trx *medium.Transceiver
	rng *sim.Rand
	buf []byte
	// seq is the sequence number of the beacon currently in flight (or
	// last sent); clean flips when any neighbor decodes it un-collided.
	seq       uint32
	clean     bool
	sent      int
	delivered int
}

// RunDensitySweep runs one point per population size, sharded across the
// package pool.
func RunDensitySweep(cfg DensityConfig) ([]DensityPoint, error) {
	if cfg.Payload < 8 {
		return nil, fmt.Errorf("experiment: density payload %d below the 8-byte header", cfg.Payload)
	}
	if airtime := phy.FrameAirtime(cfg.Rate, cfg.Payload); airtime >= cfg.Period {
		// Device buffers are reused across beacons, which is only sound
		// once a beacon's deliveries all fire before the next one starts.
		return nil, fmt.Errorf("experiment: beacon airtime %v not below period %v", airtime, cfg.Period)
	}
	return engine.MapSeeded(Pool(), cfg.Seed, len(cfg.Devices), func(i int, seed uint64) (DensityPoint, error) {
		return runDensityPoint(newWorld(nil), cfg.Devices[i], seed, cfg), nil
	})
}

// runDensityPoint simulates one population size on w for one window.
func runDensityPoint(w world, n int, seed uint64, cfg DensityConfig) DensityPoint {
	sched, med := w.sched, w.med
	// Collision outcomes are all this experiment reads; skip the
	// corruption copies and let handlers trust the Collided flag.
	med.Corrupt = false

	devs := make([]densityDevice, n)
	// Shared handler: a clean reception of device i's current sequence
	// marks that beacon delivered, whoever heard it.
	onRx := func(r medium.Reception) {
		if r.Collided || len(r.Data) < 8 {
			return
		}
		i := binary.LittleEndian.Uint32(r.Data)
		seq := binary.LittleEndian.Uint32(r.Data[4:])
		if d := &devs[i]; seq == d.seq {
			d.clean = true
		}
	}
	for i := range devs {
		d := &devs[i]
		// SubSeed keys the device stream by index alone: population builds
		// identically whatever order workers touch the sweep points in.
		d.rng = sim.NewRand(engine.SubSeed(seed, i))
		pos := medium.Position{X: d.rng.Float64() * cfg.Side, Y: d.rng.Float64() * cfg.Side}
		d.trx = med.Attach("", pos, cfg.TxPower, cfg.Sensitivity)
		d.trx.SetOn(true)
		d.trx.Handler = onRx
		d.buf = make([]byte, cfg.Payload)
		binary.LittleEndian.PutUint32(d.buf, uint32(i))
	}

	airtime := phy.FrameAirtime(cfg.Rate, cfg.Payload)
	window := sim.Time(0).Add(cfg.Window)
	jitterMax := float64(cfg.Period) / 16
	var beacon func(i int)
	beacon = func(i int) {
		d := &devs[i]
		if d.sent > 0 {
			if d.clean {
				d.delivered++
			}
			d.seq++
			binary.LittleEndian.PutUint32(d.buf[4:], d.seq)
		}
		d.clean = false
		d.sent++
		med.Transmit(d.trx, d.buf, cfg.Rate)
		next := cfg.Period + time.Duration(d.rng.Float64()*jitterMax)
		if sched.Now().Add(next+airtime) < window {
			sched.After(next, func() { beacon(i) })
		}
	}
	for i := range devs {
		i := i
		phase := time.Duration(devs[i].rng.Float64() * float64(cfg.Period))
		sched.After(phase, func() { beacon(i) })
	}
	sched.RunUntil(window)

	pt := DensityPoint{Devices: n, Run: w.run()}
	var sent, delivered int
	for i := range devs {
		d := &devs[i]
		if d.sent > 0 && d.clean {
			d.delivered++ // final beacon resolved inside the window
		}
		sent += d.sent
		delivered += d.delivered
	}
	if receptions := pt.Deliveries + pt.Collisions; receptions > 0 {
		pt.CollisionRate = float64(pt.Collisions) / float64(receptions)
	}
	if sent > 0 {
		pt.DeliveryProb = float64(delivered) / float64(sent)
	}
	if pt.Transmissions > 0 {
		pt.MeanAudience = float64(pt.Deliveries+pt.Collisions) / float64(pt.Transmissions)
	}
	return pt
}

// WriteDensityCSV exports the sweep in plotting format.
func WriteDensityCSV(w io.Writer, points []DensityPoint) error {
	if _, err := fmt.Fprintln(w, "devices,transmissions,deliveries,collisions,collision_rate,delivery_prob,mean_audience"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%.6f,%.6f,%.3f\n",
			p.Devices, p.Transmissions, p.Deliveries, p.Collisions,
			p.CollisionRate, p.DeliveryProb, p.MeanAudience); err != nil {
			return err
		}
	}
	return nil
}

// RenderDensity prints the sweep as an aligned table.
func RenderDensity(w io.Writer, points []DensityPoint) {
	fmt.Fprintf(w, "%10s %14s %12s %12s %10s %10s %9s\n",
		"devices", "transmissions", "deliveries", "collisions", "coll_rate", "del_prob", "audience")
	for _, p := range points {
		fmt.Fprintf(w, "%10d %14d %12d %12d %9.2f%% %9.1f%% %9.2f\n",
			p.Devices, p.Transmissions, p.Deliveries, p.Collisions,
			100*p.CollisionRate, 100*p.DeliveryProb, p.MeanAudience)
	}
}
