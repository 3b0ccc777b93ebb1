// Metering: at-least-once delivery for readings that must not be lost.
//
// A water meter queues one consumption batch per hour. Plain Wi-LE is
// fire-and-forget — fine for temperature, not for billing. The reliability
// layer uses the §6 receive window as an acknowledgment channel: the base
// station auto-acks every windowed uplink, and unacknowledged batches stay
// queued across deep sleeps and retransmit on later wakes. The example
// takes the base station down for a stretch and shows every batch arriving
// anyway, in order, with the retry arithmetic printed.
//
//	go run ./examples/metering
package main

import (
	"fmt"
	"time"

	"wile"
)

func main() {
	sched := wile.NewScheduler()
	med := wile.NewMedium(sched, wile.Channel(6))

	meterSensor := wile.NewSensor(sched, med, wile.SensorConfig{
		DeviceID: 0x77a1,
		Period:   10 * time.Minute,
		Position: wile.Position{X: 0},
		RxWindow: 20 * time.Millisecond,
	})
	// The reliability arithmetic at the end comes from a metrics registry
	// (Observe wires the sensor and reliability Stats into it, and the
	// registry reads them when asked) rather than hand-rolled counters.
	reg := wile.NewRegistry()
	reliable := wile.NewReliableSensor(meterSensor, 12)
	reliable.Observe(reg)
	reliable.OnDelivered = func(batch []wile.Reading, attempts int) {
		fmt.Printf("[%v] delivered %d liters (attempt %d)\n",
			sched.Now(), batch[0].Value, attempts)
	}

	base := wile.NewResponder(sched, med, "base", wile.Position{X: 3}, 6)
	base.AutoAck = true

	// One consumption batch per hour.
	liters := uint32(0)
	var queueHourly func()
	queueHourly = func() {
		liters += 140
		reliable.Queue([]wile.Reading{wile.Counter(liters)})
		sched.After(time.Hour, queueHourly)
	}
	queueHourly()
	reliable.Run()

	// The base station goes down for 90 minutes in hour three.
	sched.After(2*time.Hour, func() {
		fmt.Printf("[%v] -- base station offline --\n", sched.Now())
		base.Port.SetRadioOn(false)
	})
	sched.After(2*time.Hour+90*time.Minute, func() {
		fmt.Printf("[%v] -- base station back --\n", sched.Now())
		base.Port.SetRadioOn(true)
	})

	sched.RunFor(6 * time.Hour)
	reliable.Stop()

	queued := reg.Counter("wile.reliable_queued").Value()
	delivered := reg.Counter("wile.reliable_delivered").Value()
	fmt.Printf("\n6 hours: %d batches queued, %d delivered (%.0f%%), %d retransmissions, %d pending, %d lost\n",
		queued, delivered, 100*float64(delivered)/float64(queued),
		reg.Counter("wile.reliable_retransmitted").Value(), reliable.Pending(),
		reg.Counter("wile.reliable_given_up").Value())
	fmt.Printf("uplink messages on air: %d (wakes spent retrying count here too)\n",
		reg.Counter("wile.tx_messages").Value())
	fmt.Printf("device energy for the whole story: %.1f mJ\n", meterSensor.Dev.Energy().Milli())
}
