// Package ble implements the Bluetooth Low Energy baseline the paper
// compares Wi-LE against: the link-layer advertising codec (PDUs, CRC-24,
// whitening, AD structures) and a CC2541 power model reproducing the TI
// application-note measurement (swra347a) that Table 1's BLE column cites.
package ble

import (
	"errors"
	"fmt"
)

// AdvAccessAddress is the fixed access address of all advertising-channel
// packets (Core 4.2 Vol 6 Part B §2.1.2).
const AdvAccessAddress = 0x8e89bed6

// PDUType is the 4-bit advertising PDU type.
type PDUType uint8

// Advertising PDU types.
const (
	PDUAdvInd        PDUType = 0 // connectable undirected
	PDUAdvDirectInd  PDUType = 1
	PDUAdvNonconnInd PDUType = 2 // the beacon-like PDU matching Wi-LE's usage
	PDUScanReq       PDUType = 3
	PDUScanRsp       PDUType = 4
	PDUConnectReq    PDUType = 5
	PDUAdvScanInd    PDUType = 6
)

// String implements fmt.Stringer.
func (t PDUType) String() string {
	names := [...]string{"ADV_IND", "ADV_DIRECT_IND", "ADV_NONCONN_IND",
		"SCAN_REQ", "SCAN_RSP", "CONNECT_REQ", "ADV_SCAN_IND"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("PDU(%d)", uint8(t))
}

// MaxAdvData is the longest AdvData payload (31 bytes) — one reason the
// paper notes Wi-LE "obtains data rates comparable with" BLE: a Wi-LE
// beacon carries ~8× more payload per transmission.
const MaxAdvData = 31

// Address is a BLE device address.
type Address [6]byte

// AdvPDU is an advertising-channel PDU.
type AdvPDU struct {
	Type PDUType
	// TxAdd marks AdvA as random (true) or public (false).
	TxAdd bool
	// AdvA is the advertiser's address.
	AdvA Address
	// Data is the AdvData payload (AD structures).
	Data []byte
}

// Marshal serializes the PDU (header + payload, without CRC/whitening).
func (p *AdvPDU) Marshal() ([]byte, error) {
	if len(p.Data) > MaxAdvData {
		return nil, fmt.Errorf("ble: AdvData %d bytes exceeds %d", len(p.Data), MaxAdvData)
	}
	payloadLen := 6 + len(p.Data)
	h0 := byte(p.Type) & 0x0f
	if p.TxAdd {
		h0 |= 0x40
	}
	out := make([]byte, 0, 2+payloadLen)
	out = append(out, h0, byte(payloadLen))
	out = append(out, p.AdvA[:]...)
	return append(out, p.Data...), nil
}

// ParseAdvPDU decodes an advertising PDU.
func ParseAdvPDU(b []byte) (*AdvPDU, error) {
	if len(b) < 2 {
		return nil, errors.New("ble: PDU shorter than header")
	}
	p := &AdvPDU{
		Type:  PDUType(b[0] & 0x0f),
		TxAdd: b[0]&0x40 != 0,
	}
	n := int(b[1] & 0x3f)
	if len(b) < 2+n {
		return nil, fmt.Errorf("ble: PDU claims %d payload bytes, have %d", n, len(b)-2)
	}
	if n < 6 || n > 6+MaxAdvData {
		return nil, fmt.Errorf("ble: advertising payload %d bytes, want AdvA plus at most %d", n, MaxAdvData)
	}
	copy(p.AdvA[:], b[2:8])
	p.Data = b[8 : 2+n]
	return p, nil
}

// CRC24 computes the BLE link-layer CRC (Core 4.2 Vol 6 Part B §3.1.1:
// polynomial x²⁴+x¹⁰+x⁹+x⁶+x⁴+x³+x+1, advertising-channel preset 0x555555)
// over b, returning the 3 CRC bytes in on-air order (the register's
// position 23 is transmitted first; bits pack LSBit-first per byte).
func CRC24(b []byte) [3]byte {
	state := uint32(0x555555) // register position i == state bit i
	// Feedback taps: position 0 plus XOR gates before positions
	// 1, 3, 4, 6, 9, 10 — the polynomial's low terms.
	const taps = 0x00065b
	for _, octet := range b {
		for i := 0; i < 8; i++ { // data bits enter LSBit first
			in := uint32(octet>>i) & 1
			fb := state>>23&1 ^ in
			state = state << 1 & 0xffffff
			if fb == 1 {
				state ^= taps
			}
		}
	}
	var crc [3]byte
	for i := 0; i < 24; i++ { // position 23 leaves the radio first
		if state>>(23-i)&1 == 1 {
			crc[i/8] |= 1 << (i % 8)
		}
	}
	return crc
}

// Whiten applies (or removes — it is an involution) BLE data whitening for
// the given RF channel index (Core 4.2 Vol 6 Part B §3.2: 7-bit LFSR
// x⁷+x⁴+1 seeded with the channel index), over a copy of b. The register
// layout matches the deployed implementations in open-source BLE sniffers.
func Whiten(channelIndex int, b []byte) []byte {
	out := append([]byte(nil), b...)
	lfsr := byte(channelIndex&0x3f) | 0x40
	for i := range out {
		for bit := byte(1); bit != 0; bit <<= 1 {
			if lfsr&1 != 0 {
				lfsr ^= 0x88
				out[i] ^= bit
			}
			lfsr >>= 1
		}
	}
	return out
}

// AdvChannels are the three advertising channel indices (data channel
// numbering: 37, 38, 39).
var AdvChannels = []int{37, 38, 39}

// MarshalOnAir produces the whitened PDU+CRC bitstream body for the given
// advertising channel (the part after preamble and access address).
func (p *AdvPDU) MarshalOnAir(channelIndex int) ([]byte, error) {
	pdu, err := p.Marshal()
	if err != nil {
		return nil, err
	}
	crc := CRC24(pdu)
	raw := append(pdu, crc[:]...)
	return Whiten(channelIndex, raw), nil
}

// ErrCRC reports a corrupted on-air packet.
var ErrCRC = errors.New("ble: CRC-24 mismatch")

// ParseOnAir reverses MarshalOnAir: dewhitens, verifies the CRC and parses
// the PDU.
func ParseOnAir(channelIndex int, b []byte) (*AdvPDU, error) {
	if len(b) < 5 {
		return nil, errors.New("ble: on-air packet too short")
	}
	raw := Whiten(channelIndex, b)
	pdu, crc := raw[:len(raw)-3], raw[len(raw)-3:]
	want := CRC24(pdu)
	if crc[0] != want[0] || crc[1] != want[1] || crc[2] != want[2] {
		return nil, ErrCRC
	}
	return ParseAdvPDU(pdu)
}

// --- AD structures (Core Specification Supplement) ---

// AD types used by the examples.
const (
	ADFlags            = 0x01
	ADCompleteName     = 0x09
	ADManufacturerData = 0xff
)

// ADStructure is one length-type-data element of AdvData.
type ADStructure struct {
	Type byte
	Data []byte
}

// AppendAD serializes structures into an AdvData payload.
func AppendAD(dst []byte, structures ...ADStructure) ([]byte, error) {
	for _, s := range structures {
		if len(s.Data) > 29 {
			return nil, fmt.Errorf("ble: AD structure data %d bytes too long", len(s.Data))
		}
		dst = append(dst, byte(1+len(s.Data)), s.Type)
		dst = append(dst, s.Data...)
	}
	if len(dst) > MaxAdvData {
		return nil, fmt.Errorf("ble: AdvData %d bytes exceeds %d", len(dst), MaxAdvData)
	}
	return dst, nil
}

// ParseAD decodes an AdvData payload into structures.
func ParseAD(b []byte) ([]ADStructure, error) {
	var out []ADStructure
	for len(b) > 0 {
		n := int(b[0])
		if n == 0 {
			break // early-terminator padding
		}
		if len(b) < 1+n {
			return nil, fmt.Errorf("ble: AD structure claims %d bytes, have %d", n, len(b)-1)
		}
		out = append(out, ADStructure{Type: b[1], Data: b[2 : 1+n]})
		b = b[1+n:]
	}
	return out, nil
}
