package dot11

import "fmt"

// FrameType is the 2-bit frame type from the frame-control field.
type FrameType uint8

// Frame types.
const (
	TypeManagement FrameType = 0
	TypeControl    FrameType = 1
	TypeData       FrameType = 2
)

// String implements fmt.Stringer.
func (t FrameType) String() string {
	switch t {
	case TypeManagement:
		return "mgmt"
	case TypeControl:
		return "ctrl"
	case TypeData:
		return "data"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Subtype is the 4-bit frame subtype. Its meaning depends on the type.
type Subtype uint8

// Management subtypes.
const (
	SubtypeAssocReq    Subtype = 0
	SubtypeAssocResp   Subtype = 1
	SubtypeReassocReq  Subtype = 2
	SubtypeReassocResp Subtype = 3
	SubtypeProbeReq    Subtype = 4
	SubtypeProbeResp   Subtype = 5
	SubtypeBeacon      Subtype = 8
	SubtypeATIM        Subtype = 9
	SubtypeDisassoc    Subtype = 10
	SubtypeAuth        Subtype = 11
	SubtypeDeauth      Subtype = 12
	SubtypeAction      Subtype = 13
)

// Control subtypes.
const (
	SubtypeBlockAckReq Subtype = 8
	SubtypeBlockAck    Subtype = 9
	SubtypePSPoll      Subtype = 10
	SubtypeRTS         Subtype = 11
	SubtypeCTS         Subtype = 12
	SubtypeACK         Subtype = 13
)

// Data subtypes.
const (
	SubtypeData    Subtype = 0
	SubtypeNull    Subtype = 4
	SubtypeQoSData Subtype = 8
	SubtypeQoSNull Subtype = 12
)

// Kind pairs a type with a subtype; it identifies a concrete frame format.
type Kind struct {
	Type    FrameType
	Subtype Subtype
}

// kindNames names the frame formats, indexed by type and subtype; an empty
// entry has no name.
var kindNames = [4][16]string{
	TypeManagement: {
		SubtypeAssocReq:    "assoc-req",
		SubtypeAssocResp:   "assoc-resp",
		SubtypeReassocReq:  "reassoc-req",
		SubtypeReassocResp: "reassoc-resp",
		SubtypeProbeReq:    "probe-req",
		SubtypeProbeResp:   "probe-resp",
		SubtypeBeacon:      "beacon",
		SubtypeDisassoc:    "disassoc",
		SubtypeAuth:        "auth",
		SubtypeDeauth:      "deauth",
		SubtypeAction:      "action",
	},
	TypeControl: {
		SubtypePSPoll: "ps-poll",
		SubtypeRTS:    "rts",
		SubtypeCTS:    "cts",
		SubtypeACK:    "ack",
	},
	TypeData: {
		SubtypeData:    "data",
		SubtypeNull:    "null",
		SubtypeQoSData: "qos-data",
		SubtypeQoSNull: "qos-null",
	},
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k.Type) < len(kindNames) && int(k.Subtype) < len(kindNames[0]) {
		if n := kindNames[k.Type][k.Subtype]; n != "" {
			return n
		}
	}
	return fmt.Sprintf("%v/%d", k.Type, k.Subtype)
}

// FrameControl is the decoded 16-bit frame-control field.
type FrameControl struct {
	// Version is the protocol version; always 0 in deployed 802.11.
	Version uint8
	Type    FrameType
	Subtype Subtype
	ToDS    bool
	FromDS  bool
	// MoreFrag indicates another fragment of the MSDU follows.
	MoreFrag bool
	Retry    bool
	// PwrMgmt announces the transmitter will be in power-save mode after
	// this frame — the bit the 802.11 power-save protocol pivots on.
	PwrMgmt bool
	// MoreData tells a dozing station the AP holds more buffered frames.
	MoreData bool
	// Protected marks an encrypted frame body.
	Protected bool
	Order     bool
}

// Uint16 packs the field into its wire form.
func (fc FrameControl) Uint16() uint16 {
	v := uint16(fc.Version&0x3) |
		uint16(fc.Type&0x3)<<2 |
		uint16(fc.Subtype&0xf)<<4
	if fc.ToDS {
		v |= 1 << 8
	}
	if fc.FromDS {
		v |= 1 << 9
	}
	if fc.MoreFrag {
		v |= 1 << 10
	}
	if fc.Retry {
		v |= 1 << 11
	}
	if fc.PwrMgmt {
		v |= 1 << 12
	}
	if fc.MoreData {
		v |= 1 << 13
	}
	if fc.Protected {
		v |= 1 << 14
	}
	if fc.Order {
		v |= 1 << 15
	}
	return v
}

// ParseFrameControl unpacks the wire form.
func ParseFrameControl(v uint16) FrameControl {
	return FrameControl{
		Version:   uint8(v & 0x3),
		Type:      FrameType(v >> 2 & 0x3),
		Subtype:   Subtype(v >> 4 & 0xf),
		ToDS:      v&(1<<8) != 0,
		FromDS:    v&(1<<9) != 0,
		MoreFrag:  v&(1<<10) != 0,
		Retry:     v&(1<<11) != 0,
		PwrMgmt:   v&(1<<12) != 0,
		MoreData:  v&(1<<13) != 0,
		Protected: v&(1<<14) != 0,
		Order:     v&(1<<15) != 0,
	}
}

// Kind reports the frame kind encoded in the frame control.
func (fc FrameControl) Kind() Kind { return Kind{fc.Type, fc.Subtype} }

// Capability bits carried by beacons, probe responses and association
// frames (IEEE 802.11-2016 §9.4.1.4).
type Capability uint16

// Capability flags.
const (
	CapESS           Capability = 1 << 0 // infrastructure network
	CapIBSS          Capability = 1 << 1 // ad-hoc network
	CapPrivacy       Capability = 1 << 4 // WEP/WPA/WPA2 required
	CapShortPreamble Capability = 1 << 5
	CapShortSlotTime Capability = 1 << 10
)

// Has reports whether all bits in mask are set.
func (c Capability) Has(mask Capability) bool { return c&mask == mask }
