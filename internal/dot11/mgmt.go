package dot11

import (
	"encoding/binary"
	"fmt"
)

// Management frames. Each type embeds the 24-byte MAC header, its
// fixed-length fields, and an element list.

// mgmtHeader prepares a management header with the given subtype; the
// caller fills addresses and sequence.
func mgmtHeader(sub Subtype) Header {
	return Header{FC: FrameControl{Type: TypeManagement, Subtype: sub}}
}

// Beacon is the frame at the heart of both 802.11 power management and
// Wi-LE itself. APs transmit one every BeaconInterval TUs; Wi-LE sensors
// inject one per reading with a hidden SSID and the payload in a
// vendor-specific element.
type Beacon struct {
	Header
	// Timestamp is the AP's TSF timer in microseconds.
	Timestamp uint64
	// Interval is the beacon interval in time units (1 TU = 1024 µs).
	Interval   uint16
	Capability Capability
	Elements   Elements
}

// Kind implements Frame.
func (*Beacon) Kind() Kind { return Kind{TypeManagement, SubtypeBeacon} }

// BSSID reports the BSS the beacon belongs to.
func (f *Beacon) BSSID() MAC { return f.Header.Addr3 }

// AppendTo implements Frame.
func (f *Beacon) AppendTo(dst []byte) ([]byte, error) {
	f.Header.FC.Type, f.Header.FC.Subtype = TypeManagement, SubtypeBeacon
	dst = f.Header.appendTo(dst)
	dst = binary.LittleEndian.AppendUint64(dst, f.Timestamp)
	dst = binary.LittleEndian.AppendUint16(dst, f.Interval)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(f.Capability))
	return f.Elements.Append(dst)
}

// DecodeFromBytes implements Frame.
func (f *Beacon) DecodeFromBytes(b []byte) error {
	if err := f.Header.decodeFrom(b); err != nil {
		return err
	}
	body := b[mgmtHeaderLen:]
	if len(body) < 12 {
		return fmt.Errorf("%w: beacon fixed fields need 12 bytes, have %d", errTruncated, len(body))
	}
	f.Timestamp = binary.LittleEndian.Uint64(body)
	f.Interval = binary.LittleEndian.Uint16(body[8:])
	f.Capability = Capability(binary.LittleEndian.Uint16(body[10:]))
	var err error
	f.Elements, err = ParseElementsInto(f.Elements[:0], body[12:])
	return err
}

// NewBeacon builds a broadcast beacon from bssid with the given elements.
func NewBeacon(bssid MAC, intervalTU uint16, cap Capability, els Elements) *Beacon {
	h := mgmtHeader(SubtypeBeacon)
	h.Addr1 = Broadcast
	h.Addr2 = bssid
	h.Addr3 = bssid
	return &Beacon{Header: h, Interval: intervalTU, Capability: cap, Elements: els}
}

// ProbeReq is the active-scan request a station broadcasts when it cannot
// afford to wait for a beacon.
type ProbeReq struct {
	Header
	Elements Elements
}

// Kind implements Frame.
func (*ProbeReq) Kind() Kind { return Kind{TypeManagement, SubtypeProbeReq} }

// AppendTo implements Frame.
func (f *ProbeReq) AppendTo(dst []byte) ([]byte, error) {
	f.Header.FC.Type, f.Header.FC.Subtype = TypeManagement, SubtypeProbeReq
	return f.Elements.Append(f.Header.appendTo(dst))
}

// DecodeFromBytes implements Frame.
func (f *ProbeReq) DecodeFromBytes(b []byte) error {
	if err := f.Header.decodeFrom(b); err != nil {
		return err
	}
	var err error
	f.Elements, err = ParseElementsInto(f.Elements[:0], b[mgmtHeaderLen:])
	return err
}

// ProbeResp carries the same payload as a beacon, unicast to the prober.
type ProbeResp struct {
	Header
	Timestamp  uint64
	Interval   uint16
	Capability Capability
	Elements   Elements
}

// Kind implements Frame.
func (*ProbeResp) Kind() Kind { return Kind{TypeManagement, SubtypeProbeResp} }

// AppendTo implements Frame.
func (f *ProbeResp) AppendTo(dst []byte) ([]byte, error) {
	f.Header.FC.Type, f.Header.FC.Subtype = TypeManagement, SubtypeProbeResp
	dst = f.Header.appendTo(dst)
	dst = binary.LittleEndian.AppendUint64(dst, f.Timestamp)
	dst = binary.LittleEndian.AppendUint16(dst, f.Interval)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(f.Capability))
	return f.Elements.Append(dst)
}

// DecodeFromBytes implements Frame.
func (f *ProbeResp) DecodeFromBytes(b []byte) error {
	if err := f.Header.decodeFrom(b); err != nil {
		return err
	}
	body := b[mgmtHeaderLen:]
	if len(body) < 12 {
		return fmt.Errorf("%w: probe-resp fixed fields", errTruncated)
	}
	f.Timestamp = binary.LittleEndian.Uint64(body)
	f.Interval = binary.LittleEndian.Uint16(body[8:])
	f.Capability = Capability(binary.LittleEndian.Uint16(body[10:]))
	var err error
	f.Elements, err = ParseElementsInto(f.Elements[:0], body[12:])
	return err
}

// AuthAlgorithm selects the authentication algorithm.
type AuthAlgorithm uint16

// Authentication algorithms.
const (
	AuthOpen      AuthAlgorithm = 0
	AuthSharedKey AuthAlgorithm = 1
	AuthSAE       AuthAlgorithm = 3
)

// StatusCode is the 802.11 status code carried by responses.
type StatusCode uint16

// Status codes used by the simulation.
const (
	StatusSuccess       StatusCode = 0
	StatusUnspecified   StatusCode = 1
	StatusCapMismatch   StatusCode = 10
	StatusDeniedGeneral StatusCode = 17
	StatusInvalidRSN    StatusCode = 43
)

// Auth is the (open-system) authentication frame; two of these open every
// 802.11 join.
type Auth struct {
	Header
	Algorithm AuthAlgorithm
	Seq       uint16
	Status    StatusCode
	Elements  Elements
}

// Kind implements Frame.
func (*Auth) Kind() Kind { return Kind{TypeManagement, SubtypeAuth} }

// AppendTo implements Frame.
func (f *Auth) AppendTo(dst []byte) ([]byte, error) {
	f.Header.FC.Type, f.Header.FC.Subtype = TypeManagement, SubtypeAuth
	dst = f.Header.appendTo(dst)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(f.Algorithm))
	dst = binary.LittleEndian.AppendUint16(dst, f.Seq)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(f.Status))
	return f.Elements.Append(dst)
}

// DecodeFromBytes implements Frame.
func (f *Auth) DecodeFromBytes(b []byte) error {
	if err := f.Header.decodeFrom(b); err != nil {
		return err
	}
	body := b[mgmtHeaderLen:]
	if len(body) < 6 {
		return fmt.Errorf("%w: auth fixed fields", errTruncated)
	}
	f.Algorithm = AuthAlgorithm(binary.LittleEndian.Uint16(body))
	f.Seq = binary.LittleEndian.Uint16(body[2:])
	f.Status = StatusCode(binary.LittleEndian.Uint16(body[4:]))
	var err error
	f.Elements, err = ParseElementsInto(f.Elements[:0], body[6:])
	return err
}

// AssocReq asks the AP for membership; its RSN element commits the client
// to the security suite the 4-way handshake will confirm.
type AssocReq struct {
	Header
	Capability     Capability
	ListenInterval uint16
	Elements       Elements
}

// Kind implements Frame.
func (*AssocReq) Kind() Kind { return Kind{TypeManagement, SubtypeAssocReq} }

// AppendTo implements Frame.
func (f *AssocReq) AppendTo(dst []byte) ([]byte, error) {
	f.Header.FC.Type, f.Header.FC.Subtype = TypeManagement, SubtypeAssocReq
	dst = f.Header.appendTo(dst)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(f.Capability))
	dst = binary.LittleEndian.AppendUint16(dst, f.ListenInterval)
	return f.Elements.Append(dst)
}

// DecodeFromBytes implements Frame.
func (f *AssocReq) DecodeFromBytes(b []byte) error {
	if err := f.Header.decodeFrom(b); err != nil {
		return err
	}
	body := b[mgmtHeaderLen:]
	if len(body) < 4 {
		return fmt.Errorf("%w: assoc-req fixed fields", errTruncated)
	}
	f.Capability = Capability(binary.LittleEndian.Uint16(body))
	f.ListenInterval = binary.LittleEndian.Uint16(body[2:])
	var err error
	f.Elements, err = ParseElementsInto(f.Elements[:0], body[4:])
	return err
}

// AssocResp grants (or refuses) membership and assigns the association ID
// the TIM bitmap indexes.
type AssocResp struct {
	Header
	Capability Capability
	Status     StatusCode
	AID        uint16
	Elements   Elements
}

// Kind implements Frame.
func (*AssocResp) Kind() Kind { return Kind{TypeManagement, SubtypeAssocResp} }

// AppendTo implements Frame.
func (f *AssocResp) AppendTo(dst []byte) ([]byte, error) {
	f.Header.FC.Type, f.Header.FC.Subtype = TypeManagement, SubtypeAssocResp
	dst = f.Header.appendTo(dst)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(f.Capability))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(f.Status))
	dst = binary.LittleEndian.AppendUint16(dst, f.AID|0xc000) // two high bits always set
	return f.Elements.Append(dst)
}

// DecodeFromBytes implements Frame.
func (f *AssocResp) DecodeFromBytes(b []byte) error {
	if err := f.Header.decodeFrom(b); err != nil {
		return err
	}
	body := b[mgmtHeaderLen:]
	if len(body) < 6 {
		return fmt.Errorf("%w: assoc-resp fixed fields", errTruncated)
	}
	f.Capability = Capability(binary.LittleEndian.Uint16(body))
	f.Status = StatusCode(binary.LittleEndian.Uint16(body[2:]))
	f.AID = binary.LittleEndian.Uint16(body[4:]) &^ 0xc000
	var err error
	f.Elements, err = ParseElementsInto(f.Elements[:0], body[6:])
	return err
}

// ReasonCode explains a deauthentication or disassociation.
type ReasonCode uint16

// Reason codes used by the simulation.
const (
	ReasonUnspecified     ReasonCode = 1
	ReasonAuthExpired     ReasonCode = 2
	ReasonLeaving         ReasonCode = 3 // "deauthenticated because sending STA is leaving"
	ReasonInactivity      ReasonCode = 4
	ReasonDisassocLeaving ReasonCode = 8
)

// Deauth tears down authentication; the WiFi-DC client sends one before
// each deep sleep.
type Deauth struct {
	Header
	Reason ReasonCode
}

// Kind implements Frame.
func (*Deauth) Kind() Kind { return Kind{TypeManagement, SubtypeDeauth} }

// AppendTo implements Frame.
func (f *Deauth) AppendTo(dst []byte) ([]byte, error) {
	f.Header.FC.Type, f.Header.FC.Subtype = TypeManagement, SubtypeDeauth
	dst = f.Header.appendTo(dst)
	return binary.LittleEndian.AppendUint16(dst, uint16(f.Reason)), nil
}

// DecodeFromBytes implements Frame.
func (f *Deauth) DecodeFromBytes(b []byte) error {
	if err := f.Header.decodeFrom(b); err != nil {
		return err
	}
	body := b[mgmtHeaderLen:]
	if len(body) < 2 {
		return fmt.Errorf("%w: deauth reason", errTruncated)
	}
	f.Reason = ReasonCode(binary.LittleEndian.Uint16(body))
	return nil
}

// Disassoc tears down association while keeping authentication.
type Disassoc struct {
	Header
	Reason ReasonCode
}

// Kind implements Frame.
func (*Disassoc) Kind() Kind { return Kind{TypeManagement, SubtypeDisassoc} }

// AppendTo implements Frame.
func (f *Disassoc) AppendTo(dst []byte) ([]byte, error) {
	f.Header.FC.Type, f.Header.FC.Subtype = TypeManagement, SubtypeDisassoc
	dst = f.Header.appendTo(dst)
	return binary.LittleEndian.AppendUint16(dst, uint16(f.Reason)), nil
}

// DecodeFromBytes implements Frame.
func (f *Disassoc) DecodeFromBytes(b []byte) error {
	if err := f.Header.decodeFrom(b); err != nil {
		return err
	}
	body := b[mgmtHeaderLen:]
	if len(body) < 2 {
		return fmt.Errorf("%w: disassoc reason", errTruncated)
	}
	f.Reason = ReasonCode(binary.LittleEndian.Uint16(body))
	return nil
}
