// Package wile is the public API of the Wi-LE reproduction: connection-less
// WiFi communication for low-power IoT devices by injecting 802.11 beacon
// frames, after "Wi-LE: Can WiFi Replace Bluetooth?" (Abedi, Abari, Brecht —
// HotNets '19).
//
// # The idea
//
// WiFi's physical layer is ~3× more energy-efficient per bit than
// Bluetooth's, but the 802.11 MAC makes devices pay to establish and
// maintain a connection: probe/authenticate/associate, a WPA2 4-way
// handshake, DHCP and ARP — at least 20 MAC-layer and 7 higher-layer frames
// before the first data byte, plus either a re-association on every wake
// (238.2 mJ per message) or a 4.5 mA idle draw to stay associated.
//
// Wi-LE skips all of it. A device wakes from deep sleep, injects a single
// 802.11 beacon frame whose hidden SSID keeps it out of AP pickers and
// whose vendor-specific elements carry the payload, and goes back to sleep:
// 84 µJ per message at the transmit window, 2.5 µA idle — BLE numbers
// (71 µJ / 1.1 µA) on WiFi hardware that any phone or laptop can receive
// without new radios, drivers, or root.
//
// # Quick start
//
//	sched := wile.NewScheduler()
//	med := wile.NewMedium(sched, wile.Channel(6))
//
//	sensor := wile.NewSensor(sched, med, wile.SensorConfig{
//		DeviceID: 0x1001,
//		Period:   10 * time.Minute,
//	})
//	sensor.Sample = func() []wile.Reading {
//		return []wile.Reading{wile.Temperature(readThermometer())}
//	}
//	sensor.Run()
//
//	scanner := wile.NewScanner(sched, med, wile.ScannerConfig{})
//	scanner.OnMessage = func(m *wile.Message, meta wile.Meta) {
//		fmt.Printf("device %08x: %.2f °C (RSSI %v)\n",
//			m.DeviceID, m.Readings[0].Celsius(), meta.RSSI)
//	}
//	scanner.Start()
//
//	sched.RunFor(time.Hour)
//
// The library also contains everything the paper's evaluation depends on —
// a full 802.11 frame codec, a DCF MAC, WPA2-PSK key machinery, DHCP/ARP,
// an access point, a WiFi client, device power models for the ESP32 and
// CC2541, and a 50 kSa/s measurement instrument — so every table and
// figure in the paper regenerates from this module (see cmd/wile-lab and
// EXPERIMENTS.md).
package wile

import (
	"time"

	"wile/internal/core"
	"wile/internal/dot11"
	"wile/internal/mac"
	"wile/internal/medium"
	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
)

// Simulation kernel.
type (
	// Scheduler is the deterministic discrete-event clock every component
	// runs on.
	Scheduler = sim.Scheduler
	// Time is a virtual timestamp in nanoseconds from simulation start.
	Time = sim.Time
	// Medium is one shared radio channel.
	Medium = medium.Medium
	// Position locates a radio on the medium, in meters.
	Position = medium.Position
)

// NewScheduler returns a fresh virtual clock.
func NewScheduler() *Scheduler { return sim.New() }

// Channel returns 2.4 GHz WiFi channel n (1–13).
func Channel(n int) phy.Channel { return phy.WiFi24Channel(n) }

// Channel5GHz returns 5 GHz WiFi channel n — the spectrum the paper notes
// Wi-LE can use and BLE cannot.
func Channel5GHz(n int) phy.Channel { return phy.WiFi5Channel(n) }

// NewMedium builds a radio medium on the given channel.
func NewMedium(sched *Scheduler, ch phy.Channel) *Medium { return medium.New(sched, ch) }

// The Wi-LE protocol surface.
type (
	// Sensor is a Wi-LE transmitter: deep sleep → inject beacon → sleep.
	Sensor = core.Sensor
	// SensorConfig parameterizes a Sensor.
	SensorConfig = core.SensorConfig
	// Scanner is a Wi-LE receiver (a "phone app").
	Scanner = core.Scanner
	// ScannerConfig parameterizes a Scanner.
	ScannerConfig = core.ScannerConfig
	// Responder is the base-station half of the §6 two-way extension.
	Responder = core.Responder
	// Message is one Wi-LE transmission.
	Message = core.Message
	// Reading is one typed sensor value.
	Reading = core.Reading
	// Meta describes how a message arrived (RSSI, time, BSSID).
	Meta = core.Meta
	// DeviceRecord is a scanner's per-device aggregate.
	DeviceRecord = core.DeviceRecord
	// Key is a per-device pre-shared key for the §6 security extension.
	Key = core.Key
	// ChannelHopper cycles a receiver across channels like a phone's scan
	// loop.
	ChannelHopper = core.ChannelHopper
	// ReliableSensor adds at-least-once batch delivery on top of the
	// two-way extension (ack in the receive window, retransmit on the
	// next wake).
	ReliableSensor = core.ReliableSensor
	// FragmentHeader is a decoded wire fragment (for tools that work on
	// raw captures).
	FragmentHeader = core.FragmentHeader
	// MACStats counts one port's MAC events (sensor.Port.Stats).
	MACStats = mac.Stats
)

// Observability. Components expose an Observe(*Registry) method that
// collects their Stats into a shared registry, which reads them whenever
// it is read: WriteJSON snapshots, TimeSeries samples and Counter values
// all see the components' current counts. A fleet total is the registry's
// sum over every component wired to it.
type (
	// Registry is a shared registry of the components' counters.
	Registry = obs.Registry
	// MetricsCounter is one monotonically increasing registry counter.
	MetricsCounter = obs.Counter
	// Provenance is the frame ledger: wire it into a Medium with
	// ObserveProvenance and every transmitted frame resolves to exactly one
	// outcome per potential receiver — delivered, or a reason from the
	// closed drop taxonomy. WriteReport/WriteReportJSON summarize it per
	// reason and per link, one row per (transmitter name, receiver name):
	// radios attached under one name share their rows.
	Provenance = obs.Provenance
	// DropReason is one terminal outcome from the frame-drop taxonomy.
	DropReason = obs.DropReason
	// TimeSeries samples a Registry on a sim-time cadence, turning final
	// counter values into timelines (WriteCSV / WriteChromeTrace).
	TimeSeries = obs.TimeSeries
)

// The closed drop-reason taxonomy (see DESIGN.md §10).
const (
	Delivered            = obs.Delivered
	DropCollided         = obs.DropCollided
	DropBelowSensitivity = obs.DropBelowSensitivity
	DropRadioOff         = obs.DropRadioOff
	DropFCSError         = obs.DropFCSError
	DropDedupFiltered    = obs.DropDedupFiltered
	DropQueueDrop        = obs.DropQueueDrop
	DropDecodeError      = obs.DropDecodeError
)

// NewRegistry builds an empty metrics registry. Pass it to each component's
// Observe method; delivery and duplicate rates then come from one snapshot
// instead of per-component ad-hoc counters.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewProvenance builds an empty frame ledger. Attach it with
// med.ObserveProvenance(p) before traffic starts; p.Verify() then checks
// the conservation invariant and p.WriteReport breaks every loss down by
// reason and by the names of the radios that sent and missed it.
func NewProvenance() *Provenance { return obs.NewProvenance() }

// NewTimeSeries builds a sampler over reg on the given sim-time cadence
// (≤0 selects the 10 ms default). Call Run(sched) before the simulation
// starts and WriteCSV after it ends.
func NewTimeSeries(reg *Registry, cadence time.Duration) *TimeSeries {
	return obs.NewTimeSeries(reg, cadence)
}

// NewSensor builds a sleeping sensor attached to the medium.
func NewSensor(sched *Scheduler, med *Medium, cfg SensorConfig) *Sensor {
	return core.NewSensor(sched, med, cfg)
}

// NewScanner builds a receiver attached to the medium. Call Start to begin
// listening.
func NewScanner(sched *Scheduler, med *Medium, cfg ScannerConfig) *Scanner {
	return core.NewScanner(sched, med, cfg)
}

// NewResponder builds a two-way base station on the medium.
func NewResponder(sched *Scheduler, med *Medium, name string, pos Position, channel int) *Responder {
	return core.NewResponder(sched, med, name, pos, channel)
}

// NewKey derives a device key from a 16-byte pre-shared secret.
func NewKey(secret []byte) (*Key, error) { return core.NewKey(secret) }

// NewChannelHopper builds a hopping receiver over per-channel scanners.
func NewChannelHopper(sched *Scheduler, dwell time.Duration, scanners ...*Scanner) *ChannelHopper {
	return core.NewChannelHopper(sched, dwell, scanners...)
}

// NewReliableSensor wraps a sensor with at-least-once delivery. Pair it
// with a Responder whose AutoAck is set.
func NewReliableSensor(s *Sensor, maxAttempts int) *ReliableSensor {
	return core.NewReliableSensor(s, maxAttempts)
}

// ReadingType identifies a sensor reading TLV.
type ReadingType = core.ReadingType

// Reading types.
const (
	ReadingTemperature = core.ReadingTemperature
	ReadingHumidity    = core.ReadingHumidity
	ReadingBatteryMV   = core.ReadingBatteryMV
	ReadingCounter     = core.ReadingCounter
	ReadingRaw         = core.ReadingRaw
)

// Reading constructors.
var (
	// Temperature builds a temperature reading from degrees Celsius.
	Temperature = core.Temperature
	// Humidity builds a relative-humidity reading from percent.
	Humidity = core.Humidity
	// Battery builds a battery-voltage reading from millivolts.
	Battery = core.Battery
	// Counter builds a monotonic counter reading.
	Counter = core.Counter
	// RawReading wraps opaque bytes.
	RawReading = core.RawReading
)

// BuildBeacon constructs the injected 802.11 beacon for a message — the
// byte-exact frame a real injection firmware would transmit. Useful for
// writing captures (see internal/pcap and cmd/wile-sensor).
func BuildBeacon(deviceID uint32, channel int, m *Message, key *Key) (*dot11.Beacon, error) {
	return core.BuildBeacon(dot11.LocalMAC(deviceID), channel, m, key)
}

// DecodeBeacon extracts a Wi-LE message from a decoded beacon frame.
func DecodeBeacon(b *dot11.Beacon, keyFor func(deviceID uint32) *Key) (*Message, error) {
	return core.DecodeBeacon(b, keyFor)
}

// OUI is the vendor-specific element identifier Wi-LE messages use.
var OUI = core.OUI

// MaxPayload is the largest message body one beacon can carry (fragments
// across vendor elements).
const MaxPayload = core.MaxPayload

// DefaultPeriod is the paper's motivating reporting interval ("periodically
// wakes up (e.g., every 10 minutes) to send its temperature reading").
const DefaultPeriod = 10 * time.Minute
