package dot11

import "fmt"

// Action frames (§9.6): the extensible management frame. Relevant to Wi-LE
// as the obvious *alternative* carrier — a vendor-specific Action frame
// can also carry arbitrary data without association. The paper's design
// chooses beacons instead because receivers process beacons on every
// platform without monitor mode (the scan-results path), whereas unicast
// or unsolicited Action frames from an unknown BSS are dropped by normal
// MAC filtering. The carrier ablation quantifies what the choice costs in
// airtime (nothing meaningful).

// ActionCategory is the Action frame category code.
type ActionCategory uint8

// Categories used here.
const (
	// CategoryVendorSpecific is category 127, the open namespace.
	CategoryVendorSpecific ActionCategory = 127
)

// Action is a (vendor-specific) Action frame.
type Action struct {
	Header
	Category ActionCategory
	// OUI identifies the vendor for category 127.
	OUI [3]byte
	// Body is the vendor-defined content.
	Body []byte
}

// Kind implements Frame.
func (*Action) Kind() Kind { return Kind{TypeManagement, SubtypeAction} }

// AppendTo implements Frame.
func (f *Action) AppendTo(dst []byte) ([]byte, error) {
	f.Header.FC.Type, f.Header.FC.Subtype = TypeManagement, SubtypeAction
	dst = f.Header.appendTo(dst)
	dst = append(dst, byte(f.Category))
	if f.Category == CategoryVendorSpecific {
		dst = append(dst, f.OUI[:]...)
	}
	return append(dst, f.Body...), nil
}

// DecodeFromBytes implements Frame.
func (f *Action) DecodeFromBytes(b []byte) error {
	if err := f.Header.decodeFrom(b); err != nil {
		return err
	}
	body := b[mgmtHeaderLen:]
	if len(body) < 1 {
		return fmt.Errorf("%w: action category", errTruncated)
	}
	f.Category = ActionCategory(body[0])
	body = body[1:]
	if f.Category == CategoryVendorSpecific {
		if len(body) < 3 {
			return fmt.Errorf("%w: vendor action OUI", errTruncated)
		}
		copy(f.OUI[:], body[:3])
		body = body[3:]
	}
	f.Body = body
	return nil
}

// NewVendorAction builds a broadcast vendor-specific Action frame.
func NewVendorAction(from MAC, oui [3]byte, body []byte) *Action {
	a := &Action{Category: CategoryVendorSpecific, OUI: oui, Body: body}
	a.Header.Addr1 = Broadcast
	a.Header.Addr2 = from
	a.Header.Addr3 = from
	return a
}
