// Farm: the paper's infrastructure-free deployment scenario — "in
// environments with no WiFi infrastructure such as farms Wi-LE enables
// wireless communication directly between IoT devices and a WiFi device
// such as a smartphone" (§1).
//
// Forty soil sensors are scattered over a field with no AP anywhere. A
// single phone walks through and collects everything they transmit. The
// example also exercises the §6 multi-device concerns: unique device IDs,
// CSMA plus clock jitter keeping co-periodic transmitters apart, and the
// scanner's loss accounting from sequence gaps.
//
//	go run ./examples/farm
package main

import (
	"fmt"
	"sort"
	"time"

	"wile"
)

const (
	sensors = 40
	period  = 2 * time.Minute
	hours   = 2
)

func main() {
	sched := wile.NewScheduler()
	med := wile.NewMedium(sched, wile.Channel(1))

	// One registry carries the fleet-wide aggregates; every sensor, the
	// phone and the medium itself are wired into it, and it sums their
	// counters when read, so the delivery arithmetic at the end comes from
	// the registry instead of per-component bookkeeping.
	reg := wile.NewRegistry()
	med.Observe(reg)

	// Sensors on a rough grid across a 50 m × 40 m field.
	var fleet []*wile.Sensor
	for i := 0; i < sensors; i++ {
		s := wile.NewSensor(sched, med, wile.SensorConfig{
			DeviceID: uint32(0x2000 + i),
			Period:   period,
			Position: wile.Position{X: float64(i%8) * 7, Y: float64(i/8) * 10},
			// Cheap field hardware: worse crystals than the lab.
			JitterPPM: 80,
		})
		s.Observe(reg)
		i := i
		moisture := 35.0 + float64(i%10)
		s.Sample = func() []wile.Reading {
			moisture -= 0.05 // the field dries out
			return []wile.Reading{
				wile.Humidity(moisture),
				wile.Battery(2900 - 3*i),
			}
		}
		s.Run()
		fleet = append(fleet, s)
	}

	// Wi-LE range at 0 dBm and MCS7 is "a few meters" (§5.4), so a parked
	// phone hears only its nearest neighbours. The farmhand therefore
	// walks a serpentine path through the rows, one circuit per hour; the
	// scanner collects whatever transmits nearby as they pass.
	phone := wile.NewScanner(sched, med, wile.ScannerConfig{
		Name:     "phone",
		Position: wile.Position{X: 0, Y: 0},
	})
	phone.Observe(reg)
	phone.Start()
	walk := func() {
		// Map elapsed time to a position on a serpentine over the
		// 49 m × 40 m grid, completing a loop each hour.
		frac := float64(sched.Now()%wile.Time(time.Hour)) / float64(time.Hour)
		row := int(frac * 5)           // 5 sweeps per circuit
		along := frac*5 - float64(row) // progress along the row
		x := along * 49
		if row%2 == 1 {
			x = 49 - x
		}
		phone.Port.Transceiver().SetPos(wile.Position{X: x, Y: float64(row) * 10})
	}
	var step func()
	step = func() {
		walk()
		sched.After(10*time.Second, step)
	}
	step()

	sched.RunFor(hours * time.Hour)
	for _, s := range fleet {
		s.Stop()
	}

	devices := phone.Devices()
	sort.Slice(devices, func(i, j int) bool { return devices[i].DeviceID < devices[j].DeviceID })
	fmt.Printf("heard %d of %d sensors over %d h:\n\n", len(devices), sensors, hours)
	fmt.Printf("%-10s %9s %6s %6s %9s %12s\n", "device", "moisture", "msgs", "lost", "RSSI", "last seen")
	for _, d := range devices {
		fmt.Printf("%08x   %7.1f%% %6d %6d %9v %12v\n",
			d.DeviceID, d.Last.Readings[0].Percent(), d.Messages, d.Lost, d.LastRSSI, d.LastSeen)
	}

	// Fleet totals come out of the registry: the sensors' own tx_messages
	// counter replaces the schedule-derived estimate, the phone's rx side
	// supplies delivery and duplicate rates, and the mac.* counters sum
	// every port wired to it (each sensor's and the phone's).
	count := func(name string) int64 { return reg.Counter(name).Value() }
	transmitted := count("wile.tx_messages")
	collected := count("wile.rx_messages")
	duplicates := count("wile.rx_duplicates")
	fmt.Printf("\nair stats: %d transmissions, %d collisions (CSMA + jitter keep the channel clean)\n",
		count("wile.medium_transmissions"), count("wile.medium_collisions"))
	fmt.Printf("MAC fleet (%d ports): %d frames on air, %d retries, %d drops, %d duplicates filtered\n",
		len(fleet)+1, count("mac.tx_frames"), count("mac.retries"), count("mac.drops"), count("mac.rx_duplicates"))
	fmt.Printf("collected %d of %d transmitted readings (%.1f%% delivery, %d duplicates); "+
		"the gap is radio range, not contention\n",
		collected, transmitted, 100*float64(collected)/float64(transmitted), duplicates)
}
