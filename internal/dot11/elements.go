package dot11

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Information elements (IEEE 802.11-2016 §9.4.2): the TLV list at the tail
// of management frames. Wi-LE lives inside one of these — the
// vendor-specific element (ID 221) of an injected beacon, which "can be up
// to 253 bytes and does not have any specific format".

// ElementID identifies an information element.
type ElementID uint8

// Element IDs used by this codec.
const (
	ElementSSID           ElementID = 0
	ElementSupportedRates ElementID = 1
	ElementDSParam        ElementID = 3
	ElementTIM            ElementID = 5
	ElementCountry        ElementID = 7
	ElementERP            ElementID = 42
	ElementHTCapabilities ElementID = 45
	ElementRSN            ElementID = 48
	ElementExtRates       ElementID = 50
	ElementHTOperation    ElementID = 61
	ElementVendor         ElementID = 221
)

// MaxElementLen is the longest information field one element can carry.
const MaxElementLen = 255

// MaxVendorData is the longest vendor-specific payload after the 3-byte
// OUI: 255 - 3 = 252 bytes. (The paper quotes the beacon-stuffing figure of
// 253 bytes, which counts the OUI subtype octet differently; with our
// 3-byte OUI + 1 subtype octet the application payload is 251 bytes.)
const MaxVendorData = MaxElementLen - 3

// Element is a raw information element.
type Element struct {
	ID   ElementID
	Info []byte
}

// Elements is an ordered element list with typed accessors.
type Elements []Element

// AppendElement appends one TLV to dst.
func AppendElement(dst []byte, id ElementID, info []byte) ([]byte, error) {
	if len(info) > MaxElementLen {
		return dst, fmt.Errorf("dot11: element %d info too long: %d > %d", id, len(info), MaxElementLen)
	}
	dst = append(dst, byte(id), byte(len(info)))
	return append(dst, info...), nil
}

// Append serializes the whole list onto dst.
func (es Elements) Append(dst []byte) ([]byte, error) {
	var err error
	for _, e := range es {
		if dst, err = AppendElement(dst, e.ID, e.Info); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// ParseElements decodes a TLV list. The returned elements alias b, in the
// gopacket NoCopy style; callers that retain them past the buffer's
// lifetime must copy.
func ParseElements(b []byte) (Elements, error) {
	return ParseElementsInto(nil, b)
}

// ParseElementsInto decodes a TLV list appending onto es, reusing its
// capacity. Decode passes a recycled frame's Elements sliced to zero
// length, which makes steady-state element parsing allocation-free; the
// parsed elements alias b exactly as with ParseElements. On error es is
// returned unchanged so the caller's slice stays valid.
func ParseElementsInto(es Elements, b []byte) (Elements, error) {
	out := es
	for len(b) > 0 {
		if len(b) < 2 {
			return es, fmt.Errorf("%w: element header needs 2 bytes, have %d", errTruncated, len(b))
		}
		id, n := ElementID(b[0]), int(b[1])
		if len(b) < 2+n {
			return es, fmt.Errorf("%w: element %d claims %d info bytes, have %d", errTruncated, id, n, len(b)-2)
		}
		out = append(out, Element{ID: id, Info: b[2 : 2+n]})
		b = b[2+n:]
	}
	return out, nil
}

// Find returns the first element with the given ID.
func (es Elements) Find(id ElementID) ([]byte, bool) {
	for _, e := range es {
		if e.ID == id {
			return e.Info, true
		}
	}
	return nil, false
}

// SSID returns the network name. A zero-length SSID element is the "hidden
// SSID" (wildcard) form — present but empty — which is exactly how Wi-LE
// keeps injected beacons out of AP pickers. hidden is true in that case.
func (es Elements) SSID() (ssid string, hidden, ok bool) {
	info, ok := es.Find(ElementSSID)
	if !ok {
		return "", false, false
	}
	if len(info) == 0 {
		return "", true, true
	}
	// A nulled-out SSID (all zero bytes) is the other common hidden form.
	allZero := true
	for _, c := range info {
		if c != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return "", true, true
	}
	return string(info), false, true
}

// DSChannel returns the 2.4 GHz channel from the DS parameter set.
func (es Elements) DSChannel() (int, bool) {
	info, ok := es.Find(ElementDSParam)
	if !ok || len(info) != 1 {
		return 0, false
	}
	return int(info[0]), true
}

// Vendor returns the data of the first vendor-specific element with the
// given OUI, with the OUI stripped.
func (es Elements) Vendor(oui [3]byte) ([]byte, bool) {
	for _, e := range es {
		if e.ID == ElementVendor && len(e.Info) >= 3 && bytes.Equal(e.Info[:3], oui[:]) {
			return e.Info[3:], true
		}
	}
	return nil, false
}

// Vendors returns the data of every vendor-specific element with the given
// OUI, in order. Wi-LE fragments payloads larger than one element across
// several vendor elements of the same beacon.
func (es Elements) Vendors(oui [3]byte) [][]byte {
	var out [][]byte
	for _, e := range es {
		if e.ID == ElementVendor && len(e.Info) >= 3 && bytes.Equal(e.Info[:3], oui[:]) {
			out = append(out, e.Info[3:])
		}
	}
	return out
}

// --- Element builders ---

// SSIDElement builds an SSID element; an empty string builds the hidden
// (zero-length) form.
func SSIDElement(ssid string) Element {
	return Element{ID: ElementSSID, Info: []byte(ssid)}
}

// RatesElement builds the supported-rates element from rates in units of
// 500 kb/s; basic rates have the high bit set by the caller.
func RatesElement(rates ...byte) Element {
	return Element{ID: ElementSupportedRates, Info: rates}
}

// DefaultRates is a typical b/g basic-rate set: 1, 2, 5.5, 11 Mb/s basic
// plus 6–54 Mb/s.
func DefaultRates() Element {
	return RatesElement(0x82, 0x84, 0x8b, 0x96, 0x0c, 0x12, 0x18, 0x24)
}

// DSParamElement builds the DS parameter set (current channel).
func DSParamElement(channel int) Element {
	return Element{ID: ElementDSParam, Info: []byte{byte(channel)}}
}

// VendorElement builds a vendor-specific element.
func VendorElement(oui [3]byte, data []byte) (Element, error) {
	if len(data) > MaxVendorData {
		return Element{}, fmt.Errorf("dot11: vendor data too long: %d > %d", len(data), MaxVendorData)
	}
	info := make([]byte, 0, 3+len(data))
	info = append(info, oui[:]...)
	info = append(info, data...)
	return Element{ID: ElementVendor, Info: info}, nil
}

// --- TIM ---

// TIMElement encodes the traffic-indication map element (§9.4.2.6) every
// AP beacon carries. dtimCount counts down to the next DTIM beacon (0 =
// this one) and dtimPeriod is the number of beacon intervals between
// DTIMs. The partial virtual bitmap is empty, in its shortest form:
// bitmap control 0 and one zero byte. No run holds downlink for a dozing
// station, so no AID bit is ever set.
func TIMElement(dtimCount, dtimPeriod uint8) Element {
	return Element{ID: ElementTIM, Info: []byte{dtimCount, dtimPeriod, 0, 0}}
}

// --- RSN ---

// Cipher and AKM suite selectors (OUI 00-0F-AC).
var (
	rsnOUI = [3]byte{0x00, 0x0f, 0xac}
	// CipherCCMP is AES-CCMP (suite type 4).
	CipherCCMP = uint32(0x000fac04)
	// CipherTKIP is TKIP (suite type 2).
	CipherTKIP = uint32(0x000fac02)
	// AKMPSK is pre-shared key authentication (suite type 2) — what the
	// paper's Google WiFi AP runs and what the WiFi-DC join pays for.
	AKMPSK = uint32(0x000fac02)
)

// RSN is the robust-security-network element (§9.4.2.25).
type RSN struct {
	Version         uint16
	GroupCipher     uint32
	PairwiseCiphers []uint32
	AKMs            []uint32
	Capabilities    uint16
}

// DefaultRSN is WPA2-PSK with CCMP, the configuration used in the paper's
// testbed.
func DefaultRSN() RSN {
	return RSN{
		Version:         1,
		GroupCipher:     CipherCCMP,
		PairwiseCiphers: []uint32{CipherCCMP},
		AKMs:            []uint32{AKMPSK},
	}
}

// RSNElement encodes r.
func RSNElement(r RSN) Element {
	info := make([]byte, 0, 20)
	info = binary.LittleEndian.AppendUint16(info, r.Version)
	info = binary.BigEndian.AppendUint32(info, r.GroupCipher)
	info = binary.LittleEndian.AppendUint16(info, uint16(len(r.PairwiseCiphers)))
	for _, c := range r.PairwiseCiphers {
		info = binary.BigEndian.AppendUint32(info, c)
	}
	info = binary.LittleEndian.AppendUint16(info, uint16(len(r.AKMs)))
	for _, a := range r.AKMs {
		info = binary.BigEndian.AppendUint32(info, a)
	}
	info = binary.LittleEndian.AppendUint16(info, r.Capabilities)
	return Element{ID: ElementRSN, Info: info}
}

// ParseRSN decodes an RSN element body.
func ParseRSN(info []byte) (RSN, error) {
	var r RSN
	if len(info) < 8 {
		return r, fmt.Errorf("%w: RSN needs >=8 bytes, have %d", errTruncated, len(info))
	}
	r.Version = binary.LittleEndian.Uint16(info)
	r.GroupCipher = binary.BigEndian.Uint32(info[2:])
	n := int(binary.LittleEndian.Uint16(info[6:]))
	b := info[8:]
	if len(b) < 4*n+2 {
		return r, fmt.Errorf("%w: RSN pairwise list", errTruncated)
	}
	for i := 0; i < n; i++ {
		r.PairwiseCiphers = append(r.PairwiseCiphers, binary.BigEndian.Uint32(b[4*i:]))
	}
	b = b[4*n:]
	m := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < 4*m {
		return r, fmt.Errorf("%w: RSN AKM list", errTruncated)
	}
	for i := 0; i < m; i++ {
		r.AKMs = append(r.AKMs, binary.BigEndian.Uint32(b[4*i:]))
	}
	b = b[4*m:]
	if len(b) >= 2 {
		r.Capabilities = binary.LittleEndian.Uint16(b)
	}
	return r, nil
}
