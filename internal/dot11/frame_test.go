package dot11

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

var (
	apMAC  = MustParseMAC("aa:bb:cc:00:00:01")
	staMAC = MustParseMAC("de:ad:be:ef:00:02")
)

// roundTrip marshals f with FCS, decodes it back, and returns the decoded
// frame, failing the test on any error.
func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	raw, err := Marshal(f)
	if err != nil {
		t.Fatalf("Marshal(%v): %v", f.Kind(), err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode(%v): %v", f.Kind(), err)
	}
	if got.Kind() != f.Kind() {
		t.Fatalf("kind changed: sent %v, got %v", f.Kind(), got.Kind())
	}
	return got
}

func TestFrameControlRoundTrip(t *testing.T) {
	f := func(v uint16) bool {
		return ParseFrameControl(v).Uint16() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameControlBits(t *testing.T) {
	fc := FrameControl{Type: TypeData, Subtype: SubtypeQoSData, ToDS: true, PwrMgmt: true}
	v := fc.Uint16()
	if v&(1<<8) == 0 || v&(1<<12) == 0 {
		t.Fatalf("ToDS/PwrMgmt bits not set in %04x", v)
	}
	back := ParseFrameControl(v)
	if back != fc {
		t.Fatalf("round trip: %+v != %+v", back, fc)
	}
}

func TestBeaconRoundTrip(t *testing.T) {
	ve, err := VendorElement([3]byte{0x57, 0x49, 0x4c}, []byte("temp=17.5C"))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBeacon(apMAC, 100, CapESS|CapPrivacy, Elements{
		SSIDElement("lab-net"),
		DefaultRates(),
		DSParamElement(6),
		ve,
	})
	b.Timestamp = 0x0123456789abcdef
	b.Header.Sequence = 1234
	got := roundTrip(t, b).(*Beacon)
	if got.Timestamp != b.Timestamp || got.Interval != 100 {
		t.Errorf("fixed fields: %+v", got)
	}
	if got.Capability != CapESS|CapPrivacy {
		t.Errorf("capability = %04x", got.Capability)
	}
	if got.BSSID() != apMAC || !got.RA().IsBroadcast() {
		t.Errorf("addressing: bssid=%v ra=%v", got.BSSID(), got.RA())
	}
	if got.Header.Sequence != 1234 {
		t.Errorf("sequence = %d", got.Header.Sequence)
	}
	ssid, hidden, ok := got.Elements.SSID()
	if !ok || hidden || ssid != "lab-net" {
		t.Errorf("SSID = %q hidden=%v ok=%v", ssid, hidden, ok)
	}
	if ch, ok := got.Elements.DSChannel(); !ok || ch != 6 {
		t.Errorf("channel = %d ok=%v", ch, ok)
	}
	data, ok := got.Elements.Vendor([3]byte{0x57, 0x49, 0x4c})
	if !ok || string(data) != "temp=17.5C" {
		t.Errorf("vendor data = %q ok=%v", data, ok)
	}
}

func TestHiddenSSIDForms(t *testing.T) {
	// Zero-length form.
	b := NewBeacon(apMAC, 100, CapESS, Elements{SSIDElement("")})
	got := roundTrip(t, b).(*Beacon)
	if _, hidden, ok := got.Elements.SSID(); !ok || !hidden {
		t.Error("zero-length SSID not reported hidden")
	}
	// Nulled-out form (length preserved, all zero bytes).
	b2 := NewBeacon(apMAC, 100, CapESS, Elements{{ID: ElementSSID, Info: make([]byte, 8)}})
	got2 := roundTrip(t, b2).(*Beacon)
	if _, hidden, ok := got2.Elements.SSID(); !ok || !hidden {
		t.Error("nulled SSID not reported hidden")
	}
	// Missing SSID element entirely.
	b3 := NewBeacon(apMAC, 100, CapESS, nil)
	got3 := roundTrip(t, b3).(*Beacon)
	if _, _, ok := got3.Elements.SSID(); ok {
		t.Error("absent SSID reported present")
	}
}

func TestProbeReqRoundTrip(t *testing.T) {
	p := &ProbeReq{Elements: Elements{SSIDElement("lab-net"), DefaultRates()}}
	p.Header.Addr1 = Broadcast
	p.Header.Addr2 = staMAC
	p.Header.Addr3 = Broadcast
	got := roundTrip(t, p).(*ProbeReq)
	if got.TA() != staMAC {
		t.Errorf("TA = %v", got.TA())
	}
	if ssid, _, _ := got.Elements.SSID(); ssid != "lab-net" {
		t.Errorf("SSID = %q", ssid)
	}
}

func TestProbeRespRoundTrip(t *testing.T) {
	p := &ProbeResp{Timestamp: 42, Interval: 100, Capability: CapESS,
		Elements: Elements{SSIDElement("lab-net"), RSNElement(DefaultRSN())}}
	p.Header.Addr1 = staMAC
	p.Header.Addr2 = apMAC
	p.Header.Addr3 = apMAC
	got := roundTrip(t, p).(*ProbeResp)
	if got.Timestamp != 42 || got.Interval != 100 {
		t.Errorf("fixed fields: %+v", got)
	}
	info, ok := got.Elements.Find(ElementRSN)
	if !ok {
		t.Fatal("RSN element missing")
	}
	rsn, err := ParseRSN(info)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rsn, DefaultRSN()) {
		t.Errorf("RSN = %+v", rsn)
	}
}

func TestAuthRoundTrip(t *testing.T) {
	a := &Auth{Algorithm: AuthOpen, Seq: 2, Status: StatusSuccess}
	a.Header.Addr1 = staMAC
	a.Header.Addr2 = apMAC
	a.Header.Addr3 = apMAC
	got := roundTrip(t, a).(*Auth)
	if got.Algorithm != AuthOpen || got.Seq != 2 || got.Status != StatusSuccess {
		t.Errorf("auth fields: %+v", got)
	}
}

func TestAssocRoundTrip(t *testing.T) {
	req := &AssocReq{Capability: CapESS | CapPrivacy, ListenInterval: 3,
		Elements: Elements{SSIDElement("lab-net"), DefaultRates(), RSNElement(DefaultRSN())}}
	req.Header.Addr1 = apMAC
	req.Header.Addr2 = staMAC
	req.Header.Addr3 = apMAC
	gotReq := roundTrip(t, req).(*AssocReq)
	if gotReq.ListenInterval != 3 {
		t.Errorf("listen interval = %d", gotReq.ListenInterval)
	}

	resp := &AssocResp{Capability: CapESS, Status: StatusSuccess, AID: 7}
	resp.Header.Addr1 = staMAC
	resp.Header.Addr2 = apMAC
	resp.Header.Addr3 = apMAC
	gotResp := roundTrip(t, resp).(*AssocResp)
	if gotResp.AID != 7 {
		t.Errorf("AID = %d, want 7 (with 0xc000 masked off)", gotResp.AID)
	}
}

func TestAssocRespAIDHighBitsOnWire(t *testing.T) {
	resp := &AssocResp{Status: StatusSuccess, AID: 1}
	raw, err := resp.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	aid := binary.LittleEndian.Uint16(raw[mgmtHeaderLen+4:])
	if aid != 1|0xc000 {
		t.Fatalf("wire AID = %04x, want c001", aid)
	}
}

func TestDeauthDisassocRoundTrip(t *testing.T) {
	d := &Deauth{Reason: ReasonLeaving}
	d.Header.Addr1 = apMAC
	d.Header.Addr2 = staMAC
	if got := roundTrip(t, d).(*Deauth); got.Reason != ReasonLeaving {
		t.Errorf("deauth reason = %d", got.Reason)
	}
	di := &Disassoc{Reason: ReasonDisassocLeaving}
	di.Header.Addr1 = apMAC
	di.Header.Addr2 = staMAC
	if got := roundTrip(t, di).(*Disassoc); got.Reason != ReasonDisassocLeaving {
		t.Errorf("disassoc reason = %d", got.Reason)
	}
}

func TestControlFrameRoundTrips(t *testing.T) {
	ack := roundTrip(t, NewACK(staMAC)).(*ACK)
	if ack.Receiver != staMAC {
		t.Errorf("ACK RA = %v", ack.Receiver)
	}
	cts := roundTrip(t, &CTS{DurationID: 300, Receiver: staMAC}).(*CTS)
	if cts.DurationID != 300 {
		t.Errorf("CTS duration = %d", cts.DurationID)
	}
	rts := roundTrip(t, &RTS{DurationID: 500, Receiver: apMAC, Transmitter: staMAC}).(*RTS)
	if rts.Transmitter != staMAC || rts.Receiver != apMAC {
		t.Errorf("RTS addrs = %v %v", rts.Receiver, rts.Transmitter)
	}
	ps := roundTrip(t, &PSPoll{AID: 7, BSSID: apMAC, Transmitter: staMAC}).(*PSPoll)
	if ps.AID != 7 {
		t.Errorf("PS-Poll AID = %d", ps.AID)
	}
}

func TestACKWireFormatIs10Bytes(t *testing.T) {
	raw, err := NewACK(staMAC).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 10 {
		t.Fatalf("ACK is %d bytes on the wire, want 10", len(raw))
	}
}

func TestDataFrameRoundTrip(t *testing.T) {
	payload := []byte{0xaa, 0xaa, 0x03, 0, 0, 0, 0x08, 0x00, 1, 2, 3}
	d := NewDataToAP(apMAC, staMAC, MustParseMAC("ff:ff:ff:ff:ff:ff"), payload)
	got := roundTrip(t, d).(*Data)
	if !bytes.Equal(got.Payload, payload) {
		t.Errorf("payload = %x", got.Payload)
	}
	if got.SA() != staMAC {
		t.Errorf("SA = %v", got.SA())
	}
	if !got.DA().IsBroadcast() {
		t.Errorf("DA = %v", got.DA())
	}

	down := NewDataFromAP(apMAC, staMAC, MustParseMAC("00:00:00:00:00:99"), payload)
	gotDown := roundTrip(t, down).(*Data)
	if gotDown.DA() != staMAC {
		t.Errorf("downlink DA = %v", gotDown.DA())
	}
	if gotDown.SA() != MustParseMAC("00:00:00:00:00:99") {
		t.Errorf("downlink SA = %v", gotDown.SA())
	}
}

func TestNullFrameRoundTrip(t *testing.T) {
	n := NewNull(apMAC, staMAC, true)
	got := roundTrip(t, n).(*Data)
	if !got.Header.FC.PwrMgmt {
		t.Error("power-management bit lost")
	}
	if got.Payload != nil {
		t.Errorf("null frame grew a payload: %x", got.Payload)
	}
	if got.Kind().Subtype != SubtypeNull {
		t.Errorf("subtype = %v", got.Kind())
	}
}

func TestQoSDataRoundTrip(t *testing.T) {
	d := &Data{
		Header: Header{
			FC:    FrameControl{Type: TypeData, Subtype: SubtypeQoSData, ToDS: true},
			Addr1: apMAC, Addr2: staMAC, Addr3: apMAC,
		},
		QoS:     0x0005,
		Payload: []byte("hello"),
	}
	got := roundTrip(t, d).(*Data)
	if got.QoS != 0x0005 {
		t.Errorf("QoS = %04x", got.QoS)
	}
	if string(got.Payload) != "hello" {
		t.Errorf("payload = %q", got.Payload)
	}
}

func TestNullWithPayloadRejected(t *testing.T) {
	n := NewNull(apMAC, staMAC, false)
	n.Payload = []byte{1}
	if _, err := n.AppendTo(nil); err == nil {
		t.Fatal("null frame with payload serialized")
	}
}

func TestWDSFramesRejected(t *testing.T) {
	d := NewDataToAP(apMAC, staMAC, apMAC, nil)
	d.Header.FC.FromDS = true
	if _, err := Marshal(d); err == nil {
		t.Fatal("four-address frame serialized")
	}
}

func TestFCSDetectsCorruption(t *testing.T) {
	raw, err := Marshal(NewBeacon(apMAC, 100, CapESS, Elements{SSIDElement("x")}))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 5, len(raw) / 2, len(raw) - 5} {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("corruption at byte %d undetected", i)
		} else {
			var fcsErr *ErrFCS
			if !errors.As(err, &fcsErr) {
				t.Fatalf("corruption at byte %d: got %v, want *ErrFCS", i, err)
			}
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	raw, err := Marshal(NewBeacon(apMAC, 100, CapESS, Elements{SSIDElement("x")}))
	if err != nil {
		t.Fatal(err)
	}
	// Every prefix must fail cleanly — either a truncation error or, for
	// the rare prefix where the CRC happens to be checked first, an FCS
	// error. Never a panic.
	for n := 0; n < len(raw); n++ {
		if _, err := Decode(raw[:n]); err == nil {
			t.Fatalf("decoding %d-byte prefix succeeded", n)
		}
	}
}

func TestErrTruncatedHelper(t *testing.T) {
	_, err := DecodeNoFCS([]byte{0x80}) // one byte: not even frame control
	if !ErrTruncated(err) {
		t.Fatalf("err = %v, want truncated", err)
	}
}

func TestDecodeUnsupportedKind(t *testing.T) {
	// ATIM (mgmt subtype 9) is not implemented; must error, not panic.
	fc := FrameControl{Type: TypeManagement, Subtype: SubtypeATIM}
	raw := binary.LittleEndian.AppendUint16(nil, fc.Uint16())
	raw = append(raw, make([]byte, 30)...)
	if _, err := DecodeNoFCS(raw); err == nil {
		t.Fatal("unsupported subtype decoded")
	}
}

func TestSequenceNumberLimits(t *testing.T) {
	b := NewBeacon(apMAC, 100, CapESS, nil)
	b.Header.Sequence = 4095 // max 12-bit value
	b.Header.Fragment = 15   // max 4-bit value
	got := roundTrip(t, b).(*Beacon)
	if got.Header.Sequence != 4095 || got.Header.Fragment != 15 {
		t.Fatalf("seq/frag = %d/%d", got.Header.Sequence, got.Header.Fragment)
	}
}

// Property: any beacon with random vendor payload round-trips exactly.
func TestPropertyBeaconVendorRoundTrip(t *testing.T) {
	oui := [3]byte{0x57, 0x49, 0x4c}
	f := func(payload []byte, seq uint16, ts uint64) bool {
		if len(payload) > MaxVendorData {
			payload = payload[:MaxVendorData]
		}
		ve, err := VendorElement(oui, payload)
		if err != nil {
			return false
		}
		b := NewBeacon(apMAC, 100, CapESS, Elements{SSIDElement(""), ve})
		b.Header.Sequence = seq % 4096
		b.Timestamp = ts
		raw, err := Marshal(b)
		if err != nil {
			return false
		}
		got, err := Decode(raw)
		if err != nil {
			return false
		}
		gb, ok := got.(*Beacon)
		if !ok || gb.Timestamp != ts {
			return false
		}
		data, ok := gb.Elements.Vendor(oui)
		return ok && bytes.Equal(data, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: random byte soup never panics the decoder.
func TestPropertyDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		Decode(b)
		DecodeNoFCS(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalAllocFree(t *testing.T) {
	// The steady-state encode path appends into a caller buffer; with a
	// warm buffer the per-frame allocation count must be zero, matching
	// the paper's "pre-computed frame template" transmit path.
	b := NewBeacon(apMAC, 100, CapESS, Elements{SSIDElement("")})
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		var err error
		buf, err = b.AppendTo(buf)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendTo allocates %v times per frame, want 0", allocs)
	}
}

func BenchmarkBeaconAppendTo(b *testing.B) {
	ve, _ := VendorElement([3]byte{0x57, 0x49, 0x4c}, make([]byte, 64))
	f := NewBeacon(apMAC, 100, CapESS, Elements{SSIDElement(""), ve})
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		var err error
		buf, err = f.AppendTo(buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBeaconDecode(b *testing.B) {
	ve, _ := VendorElement([3]byte{0x57, 0x49, 0x4c}, make([]byte, 64))
	raw, err := Marshal(NewBeacon(apMAC, 100, CapESS, Elements{SSIDElement(""), ve}))
	if err != nil {
		b.Fatal(err)
	}
	var bea Beacon
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := bea.DecodeFromBytes(raw[:len(raw)-4]); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSummarizeAllFrameKinds(t *testing.T) {
	ve, _ := VendorElement([3]byte{0x52, 0x49, 0x4c}, []byte{1})
	frames := []struct {
		f    Frame
		want string
	}{
		{NewBeacon(apMAC, 100, CapESS, Elements{SSIDElement("net")}), `ssid "net"`},
		{NewBeacon(apMAC, 100, 0, Elements{SSIDElement(""), ve}), "<hidden>"},
		{&ProbeReq{Elements: Elements{SSIDElement("")}}, "wildcard"},
		{&ProbeResp{Elements: Elements{SSIDElement("x")}}, "probe-resp"},
		{&Auth{Seq: 1}, "auth"},
		{&AssocReq{ListenInterval: 3}, "listen-interval 3"},
		{&AssocResp{AID: 7}, "aid 7"},
		{&Deauth{Reason: 3}, "reason 3"},
		{&Disassoc{Reason: 8}, "reason 8"},
		{NewACK(staMAC), "ack"},
		{&CTS{DurationID: 44}, "cts"},
		{&RTS{DurationID: 44}, "rts"},
		{&PSPoll{AID: 2}, "aid 2"},
		{NewDataToAP(apMAC, staMAC, apMAC, []byte("xy")), "to-ds"},
		{NewNull(apMAC, staMAC, true), "pwr-mgmt"},
	}
	for _, c := range frames {
		got := Summarize(c.f)
		if got == "" || !strings.Contains(got, c.want) {
			t.Errorf("Summarize(%v) = %q, want substring %q", c.f.Kind(), got, c.want)
		}
	}
	// Protected flag shows.
	d := NewDataToAP(apMAC, staMAC, apMAC, []byte{1, 2, 3})
	d.Header.FC.Protected = true
	if !strings.Contains(Summarize(d), "protected") {
		t.Error("protected flag not summarized")
	}
}

func TestActionFrameRoundTrip(t *testing.T) {
	a := NewVendorAction(staMAC, [3]byte{0x52, 0x49, 0x4c}, []byte("payload-bytes"))
	got := roundTrip(t, a).(*Action)
	if got.Category != CategoryVendorSpecific {
		t.Fatalf("category %d", got.Category)
	}
	if got.OUI != a.OUI || string(got.Body) != "payload-bytes" {
		t.Fatalf("round trip: %+v", got)
	}
	if !got.RA().IsBroadcast() || got.TA() != staMAC {
		t.Fatalf("addressing: %v %v", got.RA(), got.TA())
	}
	if s := Summarize(got); !strings.Contains(s, "category 127") {
		t.Fatalf("summary %q", s)
	}
}

func TestActionFrameTruncated(t *testing.T) {
	a := NewVendorAction(staMAC, [3]byte{1, 2, 3}, []byte{9})
	raw, err := a.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{mgmtHeaderLen, mgmtHeaderLen + 2} {
		var back Action
		if err := back.DecodeFromBytes(raw[:n]); err == nil {
			t.Errorf("%d-byte action decoded", n)
		}
	}
	// Non-vendor category has no OUI.
	b := &Action{Category: 4 /* public */, Body: []byte{1, 2}}
	b.Header.Addr1 = Broadcast
	b.Header.Addr2 = staMAC
	got := roundTrip(t, b).(*Action)
	if got.Category != 4 || len(got.Body) != 2 {
		t.Fatalf("public action: %+v", got)
	}
}

// TestHeaderOf pins which frames carry a full MAC header: HeaderOf returns
// the embedded Header of every management type (Action included) and Data,
// so a sequence number and retry bit written through it reach the wire and
// decode back, and it returns nil for the four control frames.
func TestHeaderOf(t *testing.T) {
	for _, c := range []struct {
		f      Frame
		headed bool
	}{
		{&Beacon{}, true}, {&ProbeReq{}, true}, {&ProbeResp{}, true},
		{&Auth{}, true}, {&AssocReq{}, true}, {&AssocResp{}, true},
		{&Deauth{}, true}, {&Disassoc{}, true}, {&Action{}, true},
		{&Data{}, true},
		{&ACK{}, false}, {&CTS{}, false}, {&RTS{}, false}, {&PSPoll{}, false},
	} {
		h := HeaderOf(c.f)
		if !c.headed {
			if h != nil {
				t.Errorf("HeaderOf(%T) = %+v, want nil", c.f, h)
			}
			continue
		}
		embedded := reflect.ValueOf(c.f).Elem().FieldByName("Header").Addr().Interface()
		if h == nil || any(h) != embedded {
			t.Errorf("HeaderOf(%T) = %p, want the embedded header %p", c.f, h, embedded)
			continue
		}
		h.Addr1, h.Addr2 = apMAC, staMAC
		h.Sequence, h.FC.Retry = 0xabc, true
		if c.f.RA() != apMAC || c.f.TA() != staMAC {
			t.Errorf("%T: RA/TA = %v/%v, want %v/%v", c.f, c.f.RA(), c.f.TA(), apMAC, staMAC)
		}
		back := HeaderOf(roundTrip(t, c.f))
		if back.Sequence != 0xabc || !back.FC.Retry {
			t.Errorf("%T: decoded sequence %#x retry %v, want 0xabc true", c.f, back.Sequence, back.FC.Retry)
		}
	}
}
