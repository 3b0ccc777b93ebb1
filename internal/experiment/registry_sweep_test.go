package experiment

import (
	"bytes"
	"testing"
	"time"

	"wile/internal/core"
	"wile/internal/engine"
	"wile/internal/medium"
	"wile/internal/obs"
)

// sweepIntoRegistry runs a small sweep on pool in which every point builds
// its own world (a sensor, a scanner, a provenance ledger) and wires it into
// the one shared registry from inside engine.Map, then snapshots the
// registry once Map has returned. The registry's message totals must equal
// the sum of the points' Stats.
func sweepIntoRegistry(t *testing.T, pool *engine.Pool) []byte {
	t.Helper()
	reg := obs.NewRegistry()
	type sent struct{ tx, rx int }
	points, err := engine.MapSeeded(pool, 7, 12, func(i int, seed uint64) (sent, error) {
		w := newWorld(nil)
		prov := obs.NewProvenance()
		w.med.ObserveProvenance(prov)
		sensor := core.NewSensor(w.sched, w.med, core.SensorConfig{
			DeviceID: uint32(0x100 + i),
			Position: medium.Position{X: float64(i)},
			Period:   time.Second,
			SkipBoot: true,
			Seed:     seed,
		})
		scanner := core.NewScanner(w.sched, w.med, core.ScannerConfig{Position: apPos})
		// Other points' kernels run while this one wires up: Collect
		// reads only this world's sources, on this world's goroutine.
		w.med.Observe(reg)
		prov.Observe(reg)
		sensor.Observe(reg)
		scanner.Observe(reg)
		scanner.Start()
		sensor.Run()
		w.sched.RunFor(5 * time.Second)
		sensor.Stop()
		return sent{sensor.Stats.Messages, scanner.Stats.Messages}, prov.Verify()
	})
	if err != nil {
		t.Fatal(err)
	}
	var total sent
	for _, p := range points {
		total.tx += p.tx
		total.rx += p.rx
	}
	if total.rx == 0 {
		t.Fatal("no point delivered a message")
	}
	for name, want := range map[string]int{"wile.tx_messages": total.tx, "wile.rx_messages": total.rx} {
		if got := reg.Counter(name).Value(); got != int64(want) {
			t.Errorf("%s = %d, the points' Stats sum to %d", name, got, want)
		}
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRegistrySweepIdenticalAcrossPools: worlds wired into one registry
// from inside engine.Map snapshot byte-identically on the serial pool and
// on a 4-worker pool, and (under -race) without a data race: the registry
// reads its sources only after every kernel is idle.
func TestRegistrySweepIdenticalAcrossPools(t *testing.T) {
	serial := sweepIntoRegistry(t, engine.Serial())
	parallel := sweepIntoRegistry(t, engine.New(4))
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("4-worker snapshot differs from serial:\n%s\n---\n%s", parallel, serial)
	}
}
