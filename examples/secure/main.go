// Secure: the §6 security note made concrete. "Since Wi-LE systems
// communicate by injecting raw packets with no encryption all devices
// within range of the sender can obtain the transmitted data... However,
// security can be easily provided by encrypting the data prior to its
// transmission."
//
// A door sensor seals every message with a per-device pre-shared key
// (AES-128-CTR + truncated HMAC-SHA256, nonce bound to device ID and
// sequence number). The homeowner's scanner holds the key and reads the
// events; an eavesdropper in range sees the beacons but decodes nothing,
// a spoofer who forges beacons is rejected by the authenticator, and one
// who replays captured beacons by the scanner's sequence window.
//
//	go run ./examples/secure
package main

import (
	"fmt"
	"time"

	"wile"
	"wile/internal/dot11"
)

func main() {
	sched := wile.NewScheduler()
	med := wile.NewMedium(sched, wile.Channel(6))

	key, err := wile.NewKey([]byte("door-sensor-key!"))
	if err != nil {
		panic(err)
	}

	const doorID = 0x4001
	door := wile.NewSensor(sched, med, wile.SensorConfig{
		DeviceID: doorID,
		Period:   30 * time.Second,
		Position: wile.Position{X: 0, Y: 0},
		Key:      key,
	})
	opens := uint32(0)
	door.Sample = func() []wile.Reading {
		opens++
		return []wile.Reading{wile.Counter(opens)}
	}

	owner := wile.NewScanner(sched, med, wile.ScannerConfig{
		Name: "owner", Position: wile.Position{X: 3, Y: 0},
		Keys: map[uint32]*wile.Key{doorID: key},
	})
	owner.OnMessage = func(m *wile.Message, meta wile.Meta) {
		fmt.Printf("[%v] owner: door event #%d (authenticated)\n", meta.At, m.Readings[0].Value)
	}
	owner.Start()

	eaves := wile.NewScanner(sched, med, wile.ScannerConfig{
		Name: "eavesdropper", Position: wile.Position{X: 2, Y: 2},
	})
	eaves.OnMessage = func(m *wile.Message, meta wile.Meta) {
		fmt.Printf("[%v] EAVESDROPPER DECODED A MESSAGE — security broken!\n", meta.At)
	}
	eaves.Start()

	door.Run()
	sched.RunFor(3 * time.Minute)
	door.Stop()

	// A spoofer forges a "door event #999" without the key and injects it.
	fmt.Println("\nspoofer injects a forged beacon without the key...")
	spoofKey, _ := wile.NewKey([]byte("wrong-key-000000"))
	forged := &wile.Message{DeviceID: doorID, Seq: 999, Readings: []wile.Reading{wile.Counter(999)}}
	beacon, err := wile.BuildBeacon(doorID, 6, forged, spoofKey)
	if err != nil {
		panic(err)
	}
	spoofer := wile.NewSensor(sched, med, wile.SensorConfig{
		DeviceID: 0xbad, Position: wile.Position{X: 1, Y: 1}, SkipBoot: true,
	})
	spoofer.Port.SetRadioOn(true)
	if err := spoofer.Port.Send(beacon, nil); err != nil {
		panic(err)
	}
	sched.RunFor(time.Second)

	fmt.Println()
	fmt.Printf("owner: %d genuine events, %d forgeries/undecodable dropped\n",
		owner.Stats.Messages, owner.Stats.EncryptedDrops)
	fmt.Printf("eavesdropper: %d beacons seen, %d messages decoded\n",
		eaves.Stats.BeaconsSeen, eaves.Stats.Messages)

	// Show what the eavesdropper actually captures: ciphertext.
	raw, _ := dot11.Marshal(beacon)
	fmt.Printf("\non-air bytes visible to anyone in range (forged frame, %d bytes):\n%x\n", len(raw), raw)
}
