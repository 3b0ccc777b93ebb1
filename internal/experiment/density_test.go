package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"wile/internal/engine"
	"wile/internal/phy"
)

// smallDensityConfig is a fast sweep for tests and the CI smoke job:
// populations small enough to run in milliseconds but dense enough that
// collisions actually occur.
func smallDensityConfig() DensityConfig {
	cfg := DefaultDensityConfig()
	cfg.Devices = []int{50, 200, 800}
	cfg.Side = 100
	cfg.Window = 500 * time.Millisecond
	return cfg
}

// TestDensitySweepSanity checks the physics of the curve: rates live in
// [0,1], everything beacons, and packing more devices into the same field
// strictly raises collision pressure and audience size.
func TestDensitySweepSanity(t *testing.T) {
	points, err := RunDensitySweep(smallDensityConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.Transmissions == 0 {
			t.Fatalf("%d devices: no transmissions", p.Devices)
		}
		if p.CollisionRate < 0 || p.CollisionRate > 1 || p.DeliveryProb < 0 || p.DeliveryProb > 1 {
			t.Fatalf("%d devices: rates out of range: %+v", p.Devices, p)
		}
	}
	for i := 1; i < len(points); i++ {
		if points[i].CollisionRate <= points[i-1].CollisionRate {
			t.Errorf("collision rate not increasing with density: %v then %v",
				points[i-1].CollisionRate, points[i].CollisionRate)
		}
		if points[i].MeanAudience <= points[i-1].MeanAudience {
			t.Errorf("mean audience not increasing with density: %v then %v",
				points[i-1].MeanAudience, points[i].MeanAudience)
		}
	}
}

// TestDensitySaturationDegradesDelivery pins the collision-limited regime:
// delivery probability is non-monotone in density (sparse fields are
// coverage-limited — isolated devices have nobody to hear them — so it
// first rises with density), but once the local channel saturates it must
// turn down. 800 devices sending 300-byte beacons at 1 Mb/s every 100 ms
// inside one mutual-hearing cell offer ~19 erlangs of unslotted-ALOHA
// load: nearly every reception collides, and only physical-layer capture
// by the receivers nearest each transmitter keeps any beacons alive.
func TestDensitySaturationDegradesDelivery(t *testing.T) {
	cfg := smallDensityConfig()
	cfg.Devices = []int{800}
	cfg.Side = 20
	cfg.Payload = 300
	cfg.Window = 200 * time.Millisecond
	points, err := RunDensitySweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := points[0]
	if p.CollisionRate < 0.9 {
		t.Errorf("saturated channel collision rate = %.3f, want > 0.9", p.CollisionRate)
	}
	// Well below the ~0.99 the covered-but-uncongested regime reaches
	// (see the 800-device point of TestDensitySweepSanity's config).
	if p.DeliveryProb > 0.8 {
		t.Errorf("saturated channel delivery probability = %.3f, want < 0.8", p.DeliveryProb)
	}
}

// TestDensitySweepByteIdenticalAcrossPoolsAndProcs extends the engine
// determinism gate to the density sweep: population sharding across
// workers via SubSeed must leave the rendered results byte-identical to
// the serial reference at GOMAXPROCS 1 and 4.
func TestDensitySweepByteIdenticalAcrossPoolsAndProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	render := func() []byte {
		points, err := RunDensitySweep(smallDensityConfig())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteDensityCSV(&buf, points); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var reference []byte
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, pool := range []*engine.Pool{engine.Serial(), engine.New(4)} {
			prev := SetPool(pool)
			got := render()
			SetPool(prev)
			if reference == nil {
				reference = got
				continue
			}
			if !bytes.Equal(got, reference) {
				t.Fatalf("GOMAXPROCS=%d: density sweep differs from serial reference:\n%s\n---\n%s",
					procs, got, reference)
			}
		}
	}
}

// TestDensitySweepGolden pins the sweep's numbers byte for byte: the CSV
// of smallDensityConfig's points, then perfbench's density field (2000
// devices on a 300 m square for half a second, seed 5), whose row must
// agree with that workload's counts at seed 5. The pool-determinism test
// above only compares runs with each other; this one catches a change to
// the medium or the sweep that moves every run alike. Regenerate with
// WILE_UPDATE_GOLDEN=1 after intentional changes.
func TestDensitySweepGolden(t *testing.T) {
	field := smallDensityConfig()
	field.Devices = []int{2000}
	field.Side = 300
	field.Seed = 5
	var points []DensityPoint
	for _, cfg := range []DensityConfig{smallDensityConfig(), field} {
		pts, err := RunDensitySweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		points = slices.Concat(points, pts)
	}
	var buf bytes.Buffer
	if err := WriteDensityCSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "density_small.csv")
	if os.Getenv("WILE_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with WILE_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("density sweep diverged from %s; rerun with WILE_UPDATE_GOLDEN=1 if the change is intentional\ngot:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}
}

// TestDensitySweepRejectsOversizedBeacon pins the buffer-reuse guard: a
// beacon whose airtime reaches the period cannot be simulated with
// per-device buffer reuse and must be refused, not miscounted.
func TestDensitySweepRejectsOversizedBeacon(t *testing.T) {
	cfg := smallDensityConfig()
	cfg.Period = time.Millisecond
	cfg.Payload = 1500
	cfg.Rate = phy.RateDSSS1
	if _, err := RunDensitySweep(cfg); err == nil {
		t.Fatal("oversized beacon accepted")
	}
	cfg = smallDensityConfig()
	cfg.Payload = 4
	if _, err := RunDensitySweep(cfg); err == nil {
		t.Fatal("payload below header accepted")
	}
}
