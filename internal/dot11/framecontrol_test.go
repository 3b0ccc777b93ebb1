package dot11

import "testing"

// TestKindString pins every named frame format and the fallback for kinds
// without a name, inside and outside the 2-bit type and 4-bit subtype.
func TestKindString(t *testing.T) {
	for _, c := range []struct {
		k    Kind
		want string
	}{
		{Kind{TypeManagement, SubtypeAssocReq}, "assoc-req"},
		{Kind{TypeManagement, SubtypeAssocResp}, "assoc-resp"},
		{Kind{TypeManagement, SubtypeReassocReq}, "reassoc-req"},
		{Kind{TypeManagement, SubtypeReassocResp}, "reassoc-resp"},
		{Kind{TypeManagement, SubtypeProbeReq}, "probe-req"},
		{Kind{TypeManagement, SubtypeProbeResp}, "probe-resp"},
		{Kind{TypeManagement, SubtypeBeacon}, "beacon"},
		{Kind{TypeManagement, SubtypeDisassoc}, "disassoc"},
		{Kind{TypeManagement, SubtypeAuth}, "auth"},
		{Kind{TypeManagement, SubtypeDeauth}, "deauth"},
		{Kind{TypeManagement, SubtypeAction}, "action"},
		{Kind{TypeControl, SubtypePSPoll}, "ps-poll"},
		{Kind{TypeControl, SubtypeRTS}, "rts"},
		{Kind{TypeControl, SubtypeCTS}, "cts"},
		{Kind{TypeControl, SubtypeACK}, "ack"},
		{Kind{TypeData, SubtypeData}, "data"},
		{Kind{TypeData, SubtypeNull}, "null"},
		{Kind{TypeData, SubtypeQoSData}, "qos-data"},
		{Kind{TypeData, SubtypeQoSNull}, "qos-null"},
		{Kind{TypeControl, SubtypeBlockAck}, "ctrl/9"},
		{Kind{Type: 3, Subtype: 200}, "type(3)/200"},
	} {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind{%d, %d}.String() = %q, want %q", c.k.Type, c.k.Subtype, got, c.want)
		}
	}
}
