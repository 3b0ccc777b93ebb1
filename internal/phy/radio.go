package phy

import (
	"fmt"
	"math"
	"time"
)

// Radio-power unit conversions and a propagation model.
//
// The paper transmits Wi-LE beacons at 0 dBm, "which has a similar range as
// BLE at the same transmission power (i.e., a few meters)". The propagation
// model below lets the medium decide whether a receiver at a given distance
// hears a transmission at all, and supplies the RSSI values the scanner
// examples display.

// DBm is a power level in decibel-milliwatts.
type DBm float64

// MilliWatts converts a dBm level to milliwatts.
func (p DBm) MilliWatts() float64 { return math.Pow(10, float64(p)/10) }

// Watts converts a dBm level to watts.
func (p DBm) Watts() float64 { return p.MilliWatts() / 1000 }

// String implements fmt.Stringer.
func (p DBm) String() string { return fmt.Sprintf("%.1f dBm", float64(p)) }

// FromMilliWatts converts milliwatts to dBm.
func FromMilliWatts(mw float64) DBm {
	if mw <= 0 {
		panic("phy: non-positive power has no dBm representation")
	}
	return DBm(10 * math.Log10(mw))
}

// Channel identifies a WiFi radio channel by its center frequency.
type Channel struct {
	// Number is the channel number within its band (1–13 in 2.4 GHz, 36+
	// in 5 GHz).
	Number int
	// FreqMHz is the center frequency.
	FreqMHz int
}

// String implements fmt.Stringer.
func (c Channel) String() string { return fmt.Sprintf("ch%d (%d MHz)", c.Number, c.FreqMHz) }

// NewWiFi24Channel validates and returns 2.4 GHz WiFi channel n (1–13).
// Use it wherever the channel number comes from user or wire input (flags,
// captures); the panicking WiFi24Channel is for in-code constants.
func NewWiFi24Channel(n int) (Channel, error) {
	if n < 1 || n > 13 {
		return Channel{}, fmt.Errorf("phy: invalid 2.4 GHz channel %d (want 1-13)", n)
	}
	return Channel{Number: n, FreqMHz: 2407 + 5*n}, nil
}

// WiFi24Channel returns 2.4 GHz WiFi channel n (1–13), panicking on an
// invalid number: passing a bad constant is a programmer error.
func WiFi24Channel(n int) Channel {
	c, err := NewWiFi24Channel(n)
	if err != nil {
		panic(fmt.Sprintf("phy: %v", err))
	}
	return c
}

// NewWiFi5Channel validates and returns 5 GHz WiFi channel n (36–165). One
// of the advantages the paper claims for Wi-LE over BLE is access to the
// less crowded 5 GHz band.
func NewWiFi5Channel(n int) (Channel, error) {
	if n < 36 || n > 165 {
		return Channel{}, fmt.Errorf("phy: invalid 5 GHz channel %d (want 36-165)", n)
	}
	return Channel{Number: n, FreqMHz: 5000 + 5*n}, nil
}

// WiFi5Channel returns 5 GHz WiFi channel n (e.g. 36, 40, ..., 165),
// panicking on an invalid number.
func WiFi5Channel(n int) Channel {
	c, err := NewWiFi5Channel(n)
	if err != nil {
		panic(fmt.Sprintf("phy: %v", err))
	}
	return c
}

// PathLoss models log-distance path loss with a reference distance of 1 m:
//
//	PL(d) = FSPL(1m) + 10·n·log10(d)
//
// n=2 is free space; indoor 2.4 GHz environments are typically n≈3.
type PathLoss struct {
	// Exponent is the path-loss exponent n.
	Exponent float64
	// FreqMHz is the carrier frequency, which fixes the 1 m reference loss.
	FreqMHz int
}

// ReferenceLossDB is the free-space path loss at 1 m:
// 20·log10(f) + 20·log10(d) - 27.55 with f in MHz and d in meters.
func (p PathLoss) ReferenceLossDB() float64 {
	return 20*math.Log10(float64(p.FreqMHz)) - 27.55
}

// LossDB reports the path loss in dB at distance d meters. Distances below
// the 1 m reference are clamped to the reference loss.
func (p PathLoss) LossDB(d float64) float64 { return p.Prepare().LossDB(d) }

// RSSI reports the received power at distance d for transmit power tx.
func (p PathLoss) RSSI(tx DBm, d float64) DBm { return p.Prepare().RSSI(tx, d) }

// PreparedLoss is a PathLoss with its 1 m reference loss worked out once,
// for evaluating one model at many distances. Its LossDB and RSSI are the
// PathLoss's own, bit for bit.
type PreparedLoss struct {
	exponent, ref float64
}

// Prepare works out p's reference loss.
func (p PathLoss) Prepare() PreparedLoss {
	return PreparedLoss{exponent: p.Exponent, ref: p.ReferenceLossDB()}
}

// LossDB reports the path loss in dB at distance d meters, clamping
// distances below 1 m to the reference loss.
func (l PreparedLoss) LossDB(d float64) float64 {
	if d < 1 {
		d = 1
	}
	return l.ref + 10*l.exponent*math.Log10(d)
}

// RSSI reports the received power at distance d for transmit power tx.
func (l PreparedLoss) RSSI(tx DBm, d float64) DBm { return tx - DBm(l.LossDB(d)) }

// Range reports the distance in meters at which received power falls to the
// receiver sensitivity floor.
func (p PathLoss) Range(tx DBm, sensitivity DBm) float64 {
	budget := float64(tx-sensitivity) - p.ReferenceLossDB()
	if budget <= 0 {
		return 1
	}
	return math.Pow(10, budget/(10*p.Exponent))
}

// Typical receiver sensitivities (datasheet values) used by the examples:
// the ESP32 hears MCS7 frames above -70 dBm (datasheet: -70 to -72 dBm) and
// the CC2541 hears BLE at -94 dBm.
const (
	SensitivityWiFiMCS7 DBm = -70
	SensitivityWiFi1M   DBm = -98
	SensitivityBLE      DBm = -94
)

// MACTiming bundles the DCF interframe-space parameters for a PHY.
type MACTiming struct {
	Slot  time.Duration
	SIFS  time.Duration
	CWMin int
	CWMax int
}

// DIFS is SIFS + 2 slots.
func (m MACTiming) DIFS() time.Duration { return m.SIFS + 2*m.Slot }

// Timing reports the DCF parameters for frames sent at rate r in 2.4 GHz.
// DSSS uses the long-slot 802.11b values; ERP-OFDM and HT in 2.4 GHz use
// the short slot permitted when no legacy stations are present.
func Timing(r Rate) MACTiming {
	if r.Mod == ModDSSS {
		return MACTiming{Slot: 20 * time.Microsecond, SIFS: 10 * time.Microsecond, CWMin: 31, CWMax: 1023}
	}
	return MACTiming{Slot: 9 * time.Microsecond, SIFS: 10 * time.Microsecond, CWMin: 15, CWMax: 1023}
}
