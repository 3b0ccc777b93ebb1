package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"wile/internal/dot11"
	"wile/internal/mac"
	"wile/internal/medium"
	"wile/internal/obs"
	"wile/internal/phy"
	"wile/internal/sim"
)

// Scanner is the receiving side of Wi-LE: "a simple Android or iOS
// application or other software running on a host can retrieve the
// sensor's data. This application looks for special beacon frames
// transmitted by IoT devices and extracts their data" (§4).
//
// Because the carrier frame is a beacon, the receiver needs no monitor
// mode, no rooting, and no association: the MAC forwards every beacon up.
// In the simulation the scanner's port runs with a monitor callback, which
// is also exactly how the paper's own evaluation receives ("the AP (i.e.
// another WiFi card) is in the monitor mode to receive and verify these
// beacon frames", §5.3).

// Meta describes how a message arrived.
type Meta struct {
	// RSSI is the received signal strength.
	RSSI phy.DBm
	// At is the reception time.
	At sim.Time
	// BSSID is the injected beacon's (device-derived) BSSID.
	BSSID dot11.MAC
}

// DeviceRecord aggregates everything a scanner knows about one device.
type DeviceRecord struct {
	DeviceID uint32
	// Messages counts distinct messages received (after dedup).
	Messages int
	// Duplicates counts messages dropped as repeats (see repeats).
	Duplicates int
	// Lost estimates missed messages from sequence-number gaps.
	Lost int
	// LastSeq is the newest sequence number seen.
	LastSeq uint16
	// sealedSeq is the newest sealed sequence number accepted, once sealed
	// is set. Both sit in LastSeq's padding.
	sealedSeq uint16
	sealed    bool
	// LastSeen is the time of the newest message.
	LastSeen sim.Time
	// LastRSSI is the newest signal strength.
	LastRSSI phy.DBm
	// Last is the newest message.
	Last *Message
}

// seqWindow is half the 16-bit sequence space. A sequence number less
// than seqWindow past another, modulo wraparound, is ahead of it; any
// other is behind it or equal.
const seqWindow = 0x8000

// repeats reports whether msg repeats a message the record already took.
// Only the keyed sensor can seal a message, so a sealed one that is not
// ahead of the newest sealed one was captured and replayed. Anyone can
// forge an unsealed one, so an unsealed message repeats only the newest
// message's sequence number, and sealed messages are judged against
// sealed ones alone: a forgery moves neither end of their window.
func (rec *DeviceRecord) repeats(msg *Message) bool {
	if !msg.Sealed {
		return rec.Messages > 0 && msg.Seq == rec.LastSeq
	}
	ahead := msg.Seq - rec.sealedSeq
	return rec.sealed && (ahead == 0 || ahead >= seqWindow)
}

// ScannerConfig parameterizes a receiver.
type ScannerConfig struct {
	Name     string
	Position medium.Position
	// Keys maps device IDs to their pre-shared keys; DefaultKey applies
	// to devices not in the map. Unencrypted messages need neither, and
	// are dropped from a device that has a key.
	Keys       map[uint32]*Key
	DefaultKey *Key
	Seed       uint64
}

// Scanner receives and decodes Wi-LE messages.
type Scanner struct {
	Cfg  ScannerConfig
	Port *mac.Port
	// OnMessage fires for every new (deduplicated) message.
	OnMessage func(*Message, Meta)
	// Stats accumulates receiver-side counters.
	Stats ScannerStats

	devices map[uint32]*DeviceRecord
}

// ScannerStats counts receiver events.
type ScannerStats struct {
	BeaconsSeen    int // beacons carrying our OUI
	OtherBeacons   int // foreign beacons (real APs)
	Messages       int
	Duplicates     int
	DecodeErrors   int
	EncryptedDrops int // encrypted messages with no/ wrong key, plaintext from a keyed device
}

// Counters emits the Stats as wile.* counters (obs.Source).
func (s *ScannerStats) Counters(emit func(name string, v int64)) {
	emit("wile.beacons_seen", int64(s.BeaconsSeen))
	emit("wile.other_beacons", int64(s.OtherBeacons))
	emit("wile.rx_messages", int64(s.Messages))
	emit("wile.rx_duplicates", int64(s.Duplicates))
	emit("wile.decode_errors", int64(s.DecodeErrors))
	emit("wile.encrypted_drops", int64(s.EncryptedDrops))
}

// NewScanner attaches a receiver to the medium. Phones listen with ~0 dBm
// transmit irrelevance; the receive sensitivity matches the injection MCS.
func NewScanner(sched *sim.Scheduler, med *medium.Medium, cfg ScannerConfig) *Scanner {
	if cfg.Name == "" {
		cfg.Name = "scanner"
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x5ca9
	}
	sc := &Scanner{
		Cfg:     cfg,
		devices: make(map[uint32]*DeviceRecord),
	}
	sc.Port = mac.New(sched, med, cfg.Name, cfg.Position,
		dot11.MustParseMAC("02:0a:0b:0c:0d:0e"), phy.RateHTMCS7SGI, 0,
		phy.SensitivityWiFiMCS7, sim.NewRand(cfg.Seed))
	sc.Port.AutoACK = false
	sc.Port.Monitor = sc.handleFrame
	return sc
}

// TraceTo attaches the scanner's MAC to a trace recorder. Passing a nil
// recorder detaches.
func (sc *Scanner) TraceTo(r *obs.Recorder) {
	if r == nil {
		sc.Port.TraceTo(nil, 0)
		return
	}
	sc.Port.TraceTo(r, r.Track(sc.Cfg.Name+" mac"))
}

// Observe collects the scanner's MAC and protocol Stats into the registry.
func (sc *Scanner) Observe(reg *obs.Registry) {
	sc.Port.Observe(reg)
	reg.Collect(&sc.Stats)
}

// Start powers the receiver on.
func (sc *Scanner) Start() { sc.Port.SetRadioOn(true) }

// Stop powers the receiver off.
func (sc *Scanner) Stop() { sc.Port.SetRadioOn(false) }

// keyFor selects the key for a device.
func (sc *Scanner) keyFor(deviceID uint32) *Key {
	if k, ok := sc.Cfg.Keys[deviceID]; ok {
		return k
	}
	return sc.Cfg.DefaultKey
}

// DecodeBeacon extracts a Wi-LE message from a beacon, or an error if the
// beacon carries none (or it fails authentication). keyFor may be nil for
// plaintext-only deployments.
func DecodeBeacon(b *dot11.Beacon, keyFor func(deviceID uint32) *Key) (*Message, error) {
	payloads := b.Elements.Vendors(OUI)
	if len(payloads) == 0 {
		return nil, ErrNotWiLE
	}
	frags := make([]*FragmentHeader, 0, len(payloads))
	for _, p := range payloads {
		h, err := ParseFragment(p)
		if err != nil {
			return nil, err
		}
		frags = append(frags, h)
	}
	sort.Slice(frags, func(i, j int) bool { return frags[i].Index < frags[j].Index })
	var key *Key
	if keyFor != nil {
		key = keyFor(frags[0].DeviceID)
	}
	return Reassemble(frags, key)
}

// ErrNotWiLE marks a beacon without Wi-LE vendor elements.
var ErrNotWiLE = errors.New("core: beacon carries no Wi-LE elements")

// handleFrame processes every decodable frame the radio hears and returns
// its provenance outcome, which the port records: the Wi-LE pipeline, not
// the 802.11 duplicate cache, decides what counts as filtered or
// undecodable. Frames it rejects for corruption-like reasons (bad key,
// auth failure, malformed fragments, plaintext from a keyed device) are
// decode errors, core sequence dedup is dedup_filtered, and everything
// else the radio decoded — including foreign traffic — counts as
// delivered. It copies everything it keeps (Reassemble and the device
// records hold no references into the beacon).
func (sc *Scanner) handleFrame(f dot11.Frame, rx medium.Reception) obs.DropReason {
	beacon, ok := f.(*dot11.Beacon)
	if !ok {
		return obs.Delivered
	}
	msg, err := DecodeBeacon(beacon, sc.keyFor)
	switch {
	case errors.Is(err, ErrNotWiLE):
		sc.Stats.OtherBeacons++
		return obs.Delivered
	case errors.Is(err, ErrNoKey), errors.Is(err, ErrAuth):
		sc.Stats.BeaconsSeen++
		sc.Stats.EncryptedDrops++
		return obs.DropDecodeError
	case err != nil:
		sc.Stats.BeaconsSeen++
		sc.Stats.DecodeErrors++
		return obs.DropDecodeError
	}
	sc.Stats.BeaconsSeen++
	// Base-station→device messages are for the devices; a scanner drops
	// them once seen.
	if msg.Downlink {
		return obs.Delivered
	}
	// A keyed device seals every message, so a plaintext one claiming it
	// is a forgery: it touches no record.
	if !msg.Sealed && sc.keyFor(msg.DeviceID) != nil {
		sc.Stats.EncryptedDrops++
		return obs.DropDecodeError
	}
	rec, known := sc.devices[msg.DeviceID]
	if !known {
		rec = &DeviceRecord{DeviceID: msg.DeviceID}
		sc.devices[msg.DeviceID] = rec
	}
	if rec.repeats(msg) {
		rec.Duplicates++
		sc.Stats.Duplicates++
		return obs.DropDedupFiltered
	}
	if known {
		// Sequence gap = missed messages (modulo wraparound).
		gap := int(uint16(msg.Seq - rec.LastSeq))
		if gap > 1 && gap < seqWindow {
			rec.Lost += gap - 1
		}
	}
	rec.Messages++
	rec.LastSeq = msg.Seq
	if msg.Sealed {
		rec.sealedSeq, rec.sealed = msg.Seq, true
	}
	rec.LastSeen = rx.End
	rec.LastRSSI = rx.RSSI
	rec.Last = msg
	sc.Stats.Messages++
	if sc.OnMessage != nil {
		sc.OnMessage(msg, Meta{RSSI: rx.RSSI, At: rx.End, BSSID: beacon.BSSID()})
	}
	return obs.Delivered
}

// Device reports the record for one device.
func (sc *Scanner) Device(deviceID uint32) (DeviceRecord, bool) {
	rec, ok := sc.devices[deviceID]
	if !ok {
		return DeviceRecord{}, false
	}
	return *rec, true
}

// Devices returns all known device records sorted by ID.
func (sc *Scanner) Devices() []DeviceRecord {
	out := make([]DeviceRecord, 0, len(sc.devices))
	for _, rec := range sc.devices {
		out = append(out, *rec)
	}
	slices.SortFunc(out, func(a, b DeviceRecord) int { return cmp.Compare(a.DeviceID, b.DeviceID) })
	return out
}

// String summarizes the scanner.
func (sc *Scanner) String() string {
	return fmt.Sprintf("scanner %q: %d devices, %d messages, %d dupes",
		sc.Cfg.Name, len(sc.devices), sc.Stats.Messages, sc.Stats.Duplicates)
}
