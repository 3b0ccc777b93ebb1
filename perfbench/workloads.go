package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"wile/internal/ap"
	"wile/internal/core"
	"wile/internal/dot11"
	"wile/internal/engine"
	"wile/internal/esp32"
	"wile/internal/experiment"
	"wile/internal/mac"
	"wile/internal/medium"
	"wile/internal/meter"
	"wile/internal/netstack"
	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
	"wile/internal/sta"
	"wile/internal/units"
)

// workload is one benchmark input set: op simulates one fresh world built
// from the inputs the seed fixed, with tr (nil when untraced) timing the
// driver's calls into each layer.
type workload interface {
	op(tr *tracer) world
}

// world is what one op leaves behind: its exact simulated counts and the
// op's own correctness check. Holding a world keeps the op's simulation
// reachable, which is what heap_live_mb measures.
type world interface {
	counts() counts
	check() error
}

// counts are an op's simulated outcomes. They depend only on the seed, so
// every op of a run must reproduce the first op's counts exactly; a pure
// speed-up leaves all of them unchanged.
type counts struct {
	Events     uint64 // scheduler dispatches
	Tx         int    // medium transmissions
	Rx         int    // receptions handed to a handler (clean + collided)
	Collisions int
	MACFrames  int // MPDUs the MAC put on the air
	MACRetries int
	Sent       int // Wi-LE messages transmitted
	Messages   int // Wi-LE messages the scanner accepted
	Potential  int64
	Samples    int          // meter samples
	Steps      int          // esp32 current steps
	Energy     units.Joules // metered energy over the window
}

// workloadSpecs lists the workloads in the order BENCHMARK.json names them.
var workloadSpecs = []struct {
	name string
	// build derives the inputs from the seed; small selects the reduced
	// size the tests and the traced run's fill-in ops use.
	build func(seed uint64, small bool) workload
}{
	{"join", func(seed uint64, _ bool) workload { return newJoin(seed) }},
	{"fleet", func(seed uint64, small bool) workload { return newFleet(seed, small) }},
	{"density", func(seed uint64, small bool) workload { return newDensity(seed, small) }},
	{"ledger", func(seed uint64, small bool) workload { return newLedger(seed, small) }},
}

func lookupWorkload(name string) (func(uint64, bool) workload, bool) {
	for _, s := range workloadSpecs {
		if s.name == name {
			return s.build, true
		}
	}
	return nil, false
}

func workloadNames() string {
	names := make([]string, len(workloadSpecs))
	for i, s := range workloadSpecs {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

func newWorkload(name string, seed uint64, small bool) workload {
	build, ok := lookupWorkload(name)
	if !ok {
		panic("perfbench: unknown workload " + name)
	}
	return build(seed, small)
}

// ---- join: one Fig-3a WiFi duty cycle -------------------------------------

// paperWiFiDC is Table 1's WiFi-DC energy per message.
var paperWiFiDC = units.MilliJoules(238.2)

const (
	fig3aWindow = 2 * time.Second
	preSleep    = 200 * time.Millisecond
)

// joinLoad is one station's wake from deep sleep: boot, probe/auth/assoc,
// the WPA2-PSK 4-way handshake, DHCP/ARP, one UDP reading and deep sleep,
// metered at 50 kSa/s over Figure 3a's 2 s window. The network name and
// passphrase are drawn once per seed, so every op derives the same PMK.
type joinLoad struct {
	ssid, pass      string
	apSeed, staSeed uint64
	staPos          medium.Position
}

func newJoin(seed uint64) *joinLoad {
	rng := sim.NewRand(seed)
	pass := make([]byte, 24)
	for i := range pass {
		pass[i] = 'a' + byte(rng.Intn(26))
	}
	return &joinLoad{
		ssid:    fmt.Sprintf("field-%04x", rng.Intn(1<<16)),
		pass:    string(pass),
		apSeed:  rng.Uint64() | 1,
		staSeed: rng.Uint64() | 1,
		staPos:  medium.Position{X: 2 + 2*rng.Float64()},
	}
}

type joinWorld struct {
	sched   *sim.Scheduler
	med     *medium.Medium
	ap      *ap.AP
	sta     *sta.Station
	err     error
	txOK    bool
	energy  units.Joules
	samples int
}

func (l *joinLoad) op(tr *tracer) world {
	sched := sim.New()
	w := &joinWorld{sched: sched, med: medium.New(sched, phy.WiFi24Channel(6))}
	w.ap = ap.New(sched, w.med, ap.Config{
		SSID:       l.ssid,
		Passphrase: l.pass,
		BSSID:      dot11.MustParseMAC("aa:bb:cc:00:00:01"),
		Channel:    6,
		IP:         netstack.MustParseIP("192.168.86.1"),
		Seed:       l.apSeed,
	})
	w.ap.Start()
	w.sta = sta.New(sched, w.med, sta.Config{
		SSID:       l.ssid,
		Passphrase: l.pass,
		Addr:       dot11.MustParseMAC("02:57:00:00:00:01"),
		Position:   l.staPos,
		Seed:       l.staSeed,
	})
	dev := w.sta.Dev
	m := meter.New(sched, dev, meter.DefaultSampleRate)
	m.Reserve(fig3aWindow)
	m.Start()
	sched.DoAfter(preSleep, func() {
		dev.SetState(esp32.StateCPUActive)
		dev.PlaySegments(esp32.BootWiFi(), func() {
			w.sta.Join(func(err error) {
				if err != nil {
					w.err = err
					return
				}
				w.err = w.sta.SendReading([]byte("temp=17.0"), 5683, func(ok bool) {
					w.txOK = ok
					w.sta.Sleep()
				})
			})
		})
	})
	window := sim.FromDuration(fig3aWindow)
	tr.run(sched, window)
	tr.begin("meter.stop")
	m.Stop()
	tr.end()
	tr.begin("meter.energy")
	w.energy = m.Energy(0, window, esp32.Voltage)
	tr.end()
	w.samples = len(m.Samples)
	// Return the 100k-sample buffer to the meter's pool, as the figure
	// runs do, so the next op reuses it.
	meter.RecycleSamples(m.Samples)
	m.Samples = nil
	return w
}

func (w *joinWorld) energyErrPct() float64 {
	return 100 * units.Ratio(w.energy-paperWiFiDC, paperWiFiDC)
}

func (w *joinWorld) counts() counts {
	return counts{
		Events:     w.sched.Fired(),
		Tx:         w.med.Stats.Transmissions,
		Rx:         w.med.Stats.Deliveries + w.med.Stats.Collisions,
		Collisions: w.med.Stats.Collisions,
		MACFrames:  w.sta.Port.Stats.TxFrames + w.ap.Port.Stats.TxFrames,
		MACRetries: w.sta.Port.Stats.Retries + w.ap.Port.Stats.Retries,
		Samples:    w.samples,
		Steps:      len(w.sta.Dev.Steps()),
		Energy:     w.energy,
	}
}

func (w *joinWorld) check() error {
	if w.err != nil {
		return fmt.Errorf("join: %w", w.err)
	}
	if !w.txOK {
		return errors.New("join: reading not acknowledged within the window")
	}
	tx := false
	for _, mk := range w.sta.Dev.Marks() {
		tx = tx || mk.Label == "Tx"
	}
	if !tx {
		return errors.New("join: no Tx phase in the waveform")
	}
	if e := w.energyErrPct(); e < -15 || e > 15 {
		return fmt.Errorf("join: cycle energy %.1f mJ is %.1f%% off the paper's 238.2 mJ", w.energy.Milli(), e)
	}
	if w.samples != int(fig3aWindow/(time.Second/meter.DefaultSampleRate))+1 {
		return fmt.Errorf("join: %d meter samples for a 2 s window at 50 kSa/s", w.samples)
	}
	return nil
}

// ---- fleet: Wi-LE sensors reporting to one scanner ------------------------

// fleetLoad is a field of duty-cycled Wi-LE sensors (full ESP32 boot per
// wake, DCF carrier sense, crystal jitter) in range of one scanner and of
// each other, with one registry wired to the medium, the sensors and the
// scanner. Each op ends with a registry snapshot.
type fleetLoad struct {
	sensors  []fleetSensor
	period   time.Duration
	window   time.Duration
	scanSeed uint64
}

type fleetSensor struct {
	cfg   core.SensorConfig
	phase time.Duration
}

func newFleet(seed uint64, small bool) *fleetLoad {
	n, window := 50, 30*time.Second
	if small {
		n, window = 8, 3*time.Second
	}
	l := &fleetLoad{period: time.Second, window: window}
	rng := sim.NewRand(seed)
	l.scanSeed = rng.Uint64() | 1
	for i := 0; i < n; i++ {
		// A 4 m disc around the scanner: every sensor hears every other,
		// so channel access really contends.
		r, a := 4*rng.Float64(), 2*math.Pi*rng.Float64()
		l.sensors = append(l.sensors, fleetSensor{
			cfg: core.SensorConfig{
				DeviceID: 0x3000 + uint32(i),
				Position: medium.Position{X: r * math.Cos(a), Y: r * math.Sin(a)},
				Period:   l.period,
				Seed:     rng.Uint64() | 1,
			},
			phase: time.Duration(rng.Float64() * float64(l.period)),
		})
	}
	return l
}

type fleetWorld struct {
	sched    *sim.Scheduler
	med      *medium.Medium
	reg      *obs.Registry
	scanner  *core.Scanner
	sensors  []*core.Sensor
	snapshot bytes.Buffer
	snapErr  error
}

func (l *fleetLoad) op(tr *tracer) world {
	sched := sim.New()
	w := &fleetWorld{sched: sched, med: medium.New(sched, phy.WiFi24Channel(6)), reg: obs.NewRegistry()}
	w.med.Observe(w.reg)
	w.scanner = core.NewScanner(sched, w.med, core.ScannerConfig{Seed: l.scanSeed})
	w.scanner.Observe(w.reg)
	w.scanner.Start()
	for _, fs := range l.sensors {
		s := core.NewSensor(sched, w.med, fs.cfg)
		s.Observe(w.reg)
		sched.DoAfter(fs.phase, s.Run)
		w.sensors = append(w.sensors, s)
	}
	tr.run(sched, sim.FromDuration(l.window))
	tr.begin("obs.snapshot")
	w.snapErr = w.reg.WriteJSON(&w.snapshot) //wile:allow obsguard -- the op built this registry; it is never nil
	tr.end()
	return w
}

// macTotals sums the per-port MAC counters of every radio in the fleet.
func (w *fleetWorld) macTotals() mac.Stats {
	total := w.scanner.Port.Stats
	for _, s := range w.sensors {
		p := s.Port.Stats
		total.TxFrames += p.TxFrames
		total.RxFrames += p.RxFrames
		total.Retries += p.Retries
		total.Drops += p.Drops
	}
	return total
}

func (w *fleetWorld) counts() counts {
	c := counts{
		Events:     w.sched.Fired(),
		Tx:         w.med.Stats.Transmissions,
		Rx:         w.med.Stats.Deliveries + w.med.Stats.Collisions,
		Collisions: w.med.Stats.Collisions,
		Messages:   w.scanner.Stats.Messages,
	}
	m := w.macTotals()
	c.MACFrames, c.MACRetries = m.TxFrames, m.Retries
	for _, s := range w.sensors {
		c.Sent += s.Stats.Messages
		c.Steps += len(s.Dev.Steps())
	}
	return c
}

// check requires every registry counter to equal the component Stats it
// mirrors, and the scanner to accept no more messages than were sent.
func (w *fleetWorld) check() error {
	if w.snapErr != nil {
		return fmt.Errorf("fleet: snapshot: %w", w.snapErr)
	}
	if !json.Valid(w.snapshot.Bytes()) {
		return errors.New("fleet: snapshot is not valid JSON")
	}
	c := w.counts()
	m := w.macTotals()
	for _, p := range []struct {
		name string
		want int
	}{
		{"wile.medium_transmissions", w.med.Stats.Transmissions},
		{"wile.medium_deliveries", w.med.Stats.Deliveries},
		{"wile.medium_collisions", w.med.Stats.Collisions},
		{"mac.tx_frames", m.TxFrames},
		{"mac.rx_frames", m.RxFrames},
		{"mac.retries", m.Retries},
		{"mac.drops", m.Drops},
		{"wile.tx_messages", c.Sent},
		{"wile.rx_messages", c.Messages},
		{"wile.beacons_seen", w.scanner.Stats.BeaconsSeen},
		{"wile.rx_duplicates", w.scanner.Stats.Duplicates},
	} {
		if got := w.reg.Counter(p.name).Value(); got != int64(p.want) { //wile:allow obsguard -- the op built this registry
			return fmt.Errorf("fleet: registry %s = %d, component stats say %d", p.name, got, p.want)
		}
	}
	if c.Sent == 0 || c.Messages == 0 {
		return fmt.Errorf("fleet: %d messages sent, %d received", c.Sent, c.Messages)
	}
	if c.Messages > c.Sent {
		return fmt.Errorf("fleet: scanner accepted %d messages, sensors sent %d", c.Messages, c.Sent)
	}
	return nil
}

// ---- density and ledger: a field of ALOHA beaconing radios ----------------

// field is the density-sweep point both beacon workloads share: devices
// uniformly placed on a square, each beaconing at DSSS 1 Mb/s every period
// with jitter and no carrier sense (unslotted ALOHA). Placement and timing
// follow experiment.RunDensitySweep draw for draw, so the density op's
// counts must equal the experiment's own point.
type field struct {
	cfg   experiment.DensityConfig
	n     int
	point uint64 // the sweep point's seed
}

// fieldCrowding is the devices per square metre of both beacon fields:
// 2000 devices on a 300 m square, where the ALOHA field has both clean
// receptions and collisions in quantity.
const fieldCrowding = 2000.0 / (300 * 300)

func newField(seed uint64, n int, window time.Duration) field {
	cfg := experiment.DefaultDensityConfig()
	cfg.Devices = []int{n}
	cfg.Side = math.Sqrt(float64(n) / fieldCrowding)
	cfg.Window = window
	cfg.Seed = seed
	return field{cfg: cfg, n: n, point: engine.SubSeed(seed, 0)}
}

// beaconer is one radio and its private random stream.
type beaconer struct {
	trx *medium.Transceiver
	rng *sim.Rand
}

// attach places every device on m, in device order, and returns them with
// their streams positioned after the placement draws.
func (f field) attach(m *medium.Medium) []beaconer {
	devs := make([]beaconer, f.n)
	for i := range devs {
		d := &devs[i]
		d.rng = sim.NewRand(engine.SubSeed(f.point, i))
		pos := medium.Position{X: d.rng.Float64() * f.cfg.Side, Y: d.rng.Float64() * f.cfg.Side}
		d.trx = m.Attach("", pos, f.cfg.TxPower, f.cfg.Sensitivity)
		d.trx.SetOn(true)
	}
	return devs
}

// start schedules every awake device's beacon loop. Transmit calls go
// through tr so the traced run can time them. Nothing reads the payload,
// so every beacon carries the same never-mutated buffer.
func (f field) start(sched *sim.Scheduler, m *medium.Medium, devs []beaconer, tr *tracer) {
	payload := make([]byte, f.cfg.Payload)
	airtime := phy.FrameAirtime(f.cfg.Rate, f.cfg.Payload)
	window := sim.Time(0).Add(f.cfg.Window)
	jitterMax := float64(f.cfg.Period) / 16
	var beacon func(i int)
	beacon = func(i int) {
		d := &devs[i]
		tr.transmit(m, d.trx, payload, f.cfg.Rate)
		next := f.cfg.Period + time.Duration(d.rng.Float64()*jitterMax)
		if sched.Now().Add(next+airtime) < window {
			sched.After(next, func() { beacon(i) })
		}
	}
	for i := range devs {
		phase := time.Duration(devs[i].rng.Float64() * float64(f.cfg.Period))
		if devs[i].trx.On() {
			sched.After(phase, func() { beacon(i) })
		}
	}
}

// densityLoad is the density-sweep point on the grid-culled medium path:
// no carrier sense, no registry, no ledger.
type densityLoad struct{ field }

func newDensity(seed uint64, small bool) *densityLoad {
	if small {
		return &densityLoad{newField(seed, 100, 300*time.Millisecond)}
	}
	return &densityLoad{newField(seed, 2000, 500*time.Millisecond)}
}

type densityWorld struct {
	sched       *sim.Scheduler
	med         *medium.Medium
	devs        []beaconer
	rx, rxClean int
}

func (l *densityLoad) op(tr *tracer) world {
	sched := sim.New()
	w := &densityWorld{sched: sched, med: medium.New(sched, phy.WiFi24Channel(6))}
	// Collision outcomes are all the handler reads; skip the corruption
	// copies, as the density sweep does.
	w.med.Corrupt = false
	w.devs = l.attach(w.med)
	onRx := func(r medium.Reception) {
		w.rx++
		if !r.Collided {
			w.rxClean++
		}
	}
	for i := range w.devs {
		w.devs[i].trx.Handler = onRx
	}
	l.start(sched, w.med, w.devs, tr)
	tr.run(sched, sim.Time(0).Add(l.cfg.Window))
	return w
}

func (w *densityWorld) counts() counts {
	return counts{
		Events:     w.sched.Fired(),
		Tx:         w.med.Stats.Transmissions,
		Rx:         w.rx,
		Collisions: w.med.Stats.Collisions,
	}
}

// check requires receptions = deliveries + collisions, with every clean
// reception a delivery.
func (w *densityWorld) check() error {
	s := w.med.Stats
	if s.Transmissions == 0 || s.Deliveries == 0 {
		return fmt.Errorf("density: %d transmissions, %d deliveries", s.Transmissions, s.Deliveries)
	}
	if w.rx != s.Deliveries+s.Collisions || w.rxClean != s.Deliveries {
		return fmt.Errorf("density: %d receptions (%d clean), medium counts %d deliveries + %d collisions",
			w.rx, w.rxClean, s.Deliveries, s.Collisions)
	}
	return nil
}

// crossCheck compares the op's counts with experiment.RunDensitySweep's own
// run of the same point.
func (l *densityLoad) crossCheck(wd world) error {
	pts, err := experiment.RunDensitySweep(l.cfg)
	if err != nil {
		return err
	}
	s := wd.(*densityWorld).med.Stats
	if p := pts[0]; p.Transmissions != s.Transmissions || p.Deliveries != s.Deliveries || p.Collisions != s.Collisions {
		return fmt.Errorf("density: driver counts %+v, experiment.RunDensitySweep %+v", s, p)
	}
	return nil
}

// ledgerLoad is the field with a frame-provenance ledger attached, which
// sends Transmit down the O(nodes) walk. Receivers resolve their clean
// receptions through the ledger, a seed-chosen tenth of the radios sleep,
// and each op ends with Verify and a JSON drop report.
type ledgerLoad struct {
	field
	asleep []bool
}

func newLedger(seed uint64, small bool) *ledgerLoad {
	f := newField(seed, 300, 500*time.Millisecond)
	if small {
		f = newField(seed, 30, 300*time.Millisecond)
	}
	l := &ledgerLoad{field: f, asleep: make([]bool, f.n)}
	rng := sim.NewRand(seed ^ 0x51ee9)
	for k := 0; k < f.n/10; {
		if i := rng.Intn(f.n); !l.asleep[i] {
			l.asleep[i] = true
			k++
		}
	}
	return l
}

type ledgerWorld struct {
	sched    *sim.Scheduler
	med      *medium.Medium // holds the ledger as med.Prov
	devs     []beaconer
	sleepers int
	rxClean  int
	// The ledger's state when the op ended, as settle read it.
	frames, potential int64
	outcomes          [obs.NumDropReasons]int64
	verifyErr         error
	report            bytes.Buffer
	reportErr         error
}

func (l *ledgerLoad) op(tr *tracer) world {
	sched := sim.New()
	prov := obs.NewProvenance()
	w := &ledgerWorld{sched: sched, med: medium.New(sched, phy.WiFi24Channel(6))}
	w.med.Corrupt = false
	w.med.ObserveProvenance(prov)
	w.devs = l.attach(w.med)
	for i := range w.devs {
		d := &w.devs[i]
		if l.asleep[i] {
			d.trx.SetOn(false)
			w.sleepers++
		}
		id := d.trx.ProvID()
		d.trx.Handler = func(r medium.Reception) {
			if r.Collided {
				return // the medium resolved it
			}
			w.rxClean++
			prov.Resolve(r.Frame, id, r.End, obs.Delivered) //wile:allow obsguard -- the op built this ledger; it is never nil
		}
	}
	l.start(sched, w.med, w.devs, tr)
	tr.run(sched, sim.Time(0).Add(l.cfg.Window))
	w.settle(tr, prov)
	return w
}

// settle ends the op: Verify, the JSON drop report, and the totals the
// check compares with the medium.
func (w *ledgerWorld) settle(tr *tracer, prov *obs.Provenance) {
	tr.begin("obs.verify")
	w.verifyErr = prov.Verify()
	tr.end()
	tr.begin("obs.report")
	w.reportErr = prov.WriteReportJSON(&w.report)
	tr.end()
	w.frames, w.potential, w.outcomes = prov.Frames(), prov.Potential(), prov.Outcomes()
}

func (w *ledgerWorld) counts() counts {
	return counts{
		Events:     w.sched.Fired(),
		Tx:         w.med.Stats.Transmissions,
		Rx:         w.med.Stats.Deliveries + w.med.Stats.Collisions,
		Collisions: w.med.Stats.Collisions,
		Potential:  w.potential,
	}
}

// check requires a conserved ledger whose totals agree with the medium:
// potential = transmissions × (radios − 1), and every sleeper resolves
// radio_off for every frame.
func (w *ledgerWorld) check() error {
	if w.verifyErr != nil {
		return fmt.Errorf("ledger: %w", w.verifyErr)
	}
	if w.reportErr != nil {
		return fmt.Errorf("ledger: report: %w", w.reportErr)
	}
	frames, n, s := w.frames, int64(len(w.devs)), w.med.Stats
	if frames == 0 || frames != int64(s.Transmissions) {
		return fmt.Errorf("ledger: %d frames, medium sent %d", frames, s.Transmissions)
	}
	if w.potential != frames*(n-1) {
		return fmt.Errorf("ledger: potential %d, want %d frames × %d receivers", w.potential, frames, n-1)
	}
	out := w.outcomes
	if out[obs.Delivered] != int64(s.Deliveries) || out[obs.Delivered] != int64(w.rxClean) {
		return fmt.Errorf("ledger: %d delivered outcomes, medium %d deliveries, handlers %d",
			out[obs.Delivered], s.Deliveries, w.rxClean)
	}
	if out[obs.DropCollided] != int64(s.Collisions) {
		return fmt.Errorf("ledger: %d collided outcomes, medium %d collisions", out[obs.DropCollided], s.Collisions)
	}
	if want := frames * int64(w.sleepers); out[obs.DropRadioOff] != want {
		return fmt.Errorf("ledger: %d radio_off outcomes, want %d", out[obs.DropRadioOff], want)
	}
	var hdr struct{ frames, potential, unresolved int64 }
	if _, err := fmt.Sscanf(w.report.String(), "{\n  \"frames\": %d,\n  \"potential\": %d,\n  \"unresolved\": %d,",
		&hdr.frames, &hdr.potential, &hdr.unresolved); err != nil {
		return fmt.Errorf("ledger: report header: %w", err)
	}
	if hdr.frames != frames || hdr.potential != w.potential || hdr.unresolved != 0 {
		return fmt.Errorf("ledger: report header %+v disagrees with the ledger", hdr)
	}
	return nil
}
