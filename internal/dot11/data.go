package dot11

import (
	"encoding/binary"
	"fmt"
)

// Data carries MSDUs (usually an LLC/SNAP header followed by an IP or
// EAPOL payload). The type also covers null-function frames — the
// zero-payload frames stations use purely to toggle the power-management
// bit, which is how the WiFi-PS client tells the AP it is going to doze.
//
// Addressing follows the ToDS/FromDS matrix for infrastructure BSSs:
//
//	ToDS=1, FromDS=0: Addr1=BSSID, Addr2=SA, Addr3=DA  (station → AP)
//	ToDS=0, FromDS=1: Addr1=DA, Addr2=BSSID, Addr3=SA  (AP → station)
//
// WDS four-address frames are out of scope (nothing in the paper uses
// them), and decoding one returns an error rather than silent nonsense.
type Data struct {
	Header
	// QoS holds the QoS-control field for the QoS subtypes.
	QoS uint16
	// Payload is the MSDU. Nil for null-function frames.
	Payload []byte
}

// Kind implements Frame.
func (f *Data) Kind() Kind {
	// Preserve the decoded subtype; default to plain data.
	if f.Header.FC.Type == TypeData {
		return f.Header.FC.Kind()
	}
	return Kind{TypeData, SubtypeData}
}

// hasQoS reports whether the subtype carries a QoS-control field.
func (f *Data) hasQoS() bool {
	return f.Header.FC.Subtype == SubtypeQoSData || f.Header.FC.Subtype == SubtypeQoSNull
}

// isNull reports whether the frame carries no MSDU.
func (f *Data) isNull() bool {
	return f.Header.FC.Subtype == SubtypeNull || f.Header.FC.Subtype == SubtypeQoSNull
}

// DA reports the destination address per the ToDS/FromDS matrix.
func (f *Data) DA() MAC {
	if f.Header.FC.ToDS {
		return f.Header.Addr3
	}
	return f.Header.Addr1
}

// SA reports the source address per the ToDS/FromDS matrix.
func (f *Data) SA() MAC {
	if f.Header.FC.FromDS {
		return f.Header.Addr3
	}
	return f.Header.Addr2
}

// AppendTo implements Frame.
func (f *Data) AppendTo(dst []byte) ([]byte, error) {
	if f.Header.FC.Type != TypeData {
		f.Header.FC.Type, f.Header.FC.Subtype = TypeData, SubtypeData
	}
	if f.Header.FC.ToDS && f.Header.FC.FromDS {
		return dst, fmt.Errorf("dot11: four-address (WDS) data frames unsupported")
	}
	dst = f.Header.appendTo(dst)
	if f.hasQoS() {
		dst = binary.LittleEndian.AppendUint16(dst, f.QoS)
	}
	if f.isNull() && len(f.Payload) > 0 {
		return dst, fmt.Errorf("dot11: null-function frame cannot carry a payload")
	}
	return append(dst, f.Payload...), nil
}

// DecodeFromBytes implements Frame.
func (f *Data) DecodeFromBytes(b []byte) error {
	if err := f.Header.decodeFrom(b); err != nil {
		return err
	}
	if f.Header.FC.ToDS && f.Header.FC.FromDS {
		return fmt.Errorf("dot11: four-address (WDS) data frames unsupported")
	}
	body := b[mgmtHeaderLen:]
	if f.hasQoS() {
		if len(body) < 2 {
			return fmt.Errorf("%w: QoS control", errTruncated)
		}
		f.QoS = binary.LittleEndian.Uint16(body)
		body = body[2:]
	} else {
		f.QoS = 0
	}
	if f.isNull() {
		f.Payload = nil
		return nil
	}
	f.Payload = body
	return nil
}

// NewDataToAP builds a station→AP data frame carrying payload.
func NewDataToAP(bssid, sa, da MAC, payload []byte) *Data {
	return &Data{
		Header: Header{
			FC:    FrameControl{Type: TypeData, Subtype: SubtypeData, ToDS: true},
			Addr1: bssid, Addr2: sa, Addr3: da,
		},
		Payload: payload,
	}
}

// NewDataFromAP builds an AP→station data frame carrying payload.
func NewDataFromAP(bssid, da, sa MAC, payload []byte) *Data {
	return &Data{
		Header: Header{
			FC:    FrameControl{Type: TypeData, Subtype: SubtypeData, FromDS: true},
			Addr1: da, Addr2: bssid, Addr3: sa,
		},
		Payload: payload,
	}
}

// NewNull builds a station→AP null-function frame with the power-management
// bit set as requested.
func NewNull(bssid, sa MAC, powerSave bool) *Data {
	return &Data{
		Header: Header{
			FC:    FrameControl{Type: TypeData, Subtype: SubtypeNull, ToDS: true, PwrMgmt: powerSave},
			Addr1: bssid, Addr2: sa, Addr3: bssid,
		},
	}
}
