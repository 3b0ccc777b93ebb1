package ble

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"

	"wile/internal/sim"
)

func TestAdvPDURoundTrip(t *testing.T) {
	p := &AdvPDU{
		Type:  PDUAdvNonconnInd,
		TxAdd: true,
		AdvA:  Address{0xc0, 1, 2, 3, 4, 5},
		Data:  []byte{0x02, 0x01, 0x06},
	}
	raw, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseAdvPDU(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != p.Type || got.TxAdd != p.TxAdd || got.AdvA != p.AdvA || !bytes.Equal(got.Data, p.Data) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestAdvPDULengthLimit(t *testing.T) {
	p := &AdvPDU{Type: PDUAdvNonconnInd, Data: make([]byte, MaxAdvData+1)}
	if _, err := p.Marshal(); err == nil {
		t.Fatal("32-byte AdvData accepted")
	}
	p.Data = make([]byte, MaxAdvData)
	if _, err := p.Marshal(); err != nil {
		t.Fatalf("31-byte AdvData rejected: %v", err)
	}
}

func TestParseAdvPDUErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		pdu  []byte
	}{
		{"1-byte PDU", []byte{0x02}},
		{"truncated payload", []byte{0x02, 10, 1, 2}},
		{"payload shorter than AdvA", []byte{0x02, 3, 1, 2, 3}},
		// 40 payload bytes leave 34 of AdvData, which Marshal refuses.
		{"AdvData over MaxAdvData", append([]byte{0x02, 40}, make([]byte, 40)...)},
	} {
		if p, err := ParseAdvPDU(tc.pdu); err == nil {
			t.Errorf("%s accepted: %d bytes of AdvData", tc.name, len(p.Data))
		}
	}
}

func TestWhitenIsInvolution(t *testing.T) {
	f := func(data []byte, ch uint8) bool {
		idx := int(ch % 40)
		w := Whiten(idx, data)
		back := Whiten(idx, w)
		return bytes.Equal(back, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWhitenActuallyChangesBits(t *testing.T) {
	data := make([]byte, 16)
	w := Whiten(37, data)
	if bytes.Equal(w, data) {
		t.Fatal("whitening left all-zero data unchanged")
	}
	// Different channels whiten differently.
	if bytes.Equal(Whiten(37, data), Whiten(38, data)) {
		t.Fatal("channels 37 and 38 share a whitening sequence")
	}
	// Original not mutated.
	for _, b := range data {
		if b != 0 {
			t.Fatal("Whiten mutated its input")
		}
	}
}

func TestCRC24Golden(t *testing.T) {
	// Regression locks on the spec LFSR (preset 0x555555, taps 0x65b):
	// recomputed independently from the bitwise definition.
	got := CRC24([]byte{0x02, 0x09, 0xc0, 0x01, 0x02, 0x03, 0x04, 0x05, 0xde})
	ref := crc24Bitwise([]byte{0x02, 0x09, 0xc0, 0x01, 0x02, 0x03, 0x04, 0x05, 0xde})
	if got != ref {
		t.Fatalf("CRC24 = %x, bitwise reference = %x", got, ref)
	}
}

// crc24Bitwise is an independent straight-from-the-figure implementation:
// it models each flip-flop of the Core spec Figure 3.4 shift register
// separately.
func crc24Bitwise(data []byte) [3]byte {
	var reg [24]uint8
	preset := uint32(0x555555)
	for i := 0; i < 24; i++ {
		reg[i] = uint8(preset >> i & 1)
	}
	for _, octet := range data {
		for i := 0; i < 8; i++ {
			in := octet >> i & 1
			fb := reg[23] ^ in
			// Shift toward position 23.
			for j := 23; j > 0; j-- {
				reg[j] = reg[j-1]
			}
			reg[0] = fb
			// XOR taps feeding positions 1,3,4,6,9,10.
			reg[1] ^= fb
			reg[3] ^= fb
			reg[4] ^= fb
			reg[6] ^= fb
			reg[9] ^= fb
			reg[10] ^= fb
		}
	}
	var crc [3]byte
	for i := 0; i < 24; i++ {
		if reg[23-i] == 1 {
			crc[i/8] |= 1 << (i % 8)
		}
	}
	return crc
}

func TestCRC24DetectsCorruption(t *testing.T) {
	data := []byte("advertising-pdu-bytes")
	want := CRC24(data)
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x10
		if CRC24(bad) == want {
			t.Fatalf("bit flip at byte %d not detected", i)
		}
	}
}

func TestOnAirRoundTrip(t *testing.T) {
	for _, ch := range AdvChannels {
		p := &AdvPDU{Type: PDUAdvNonconnInd, AdvA: Address{1, 2, 3, 4, 5, 6},
			Data: []byte{0x02, 0x01, 0x06, 0x05, 0x09, 't', 'e', 'm', 'p'}}
		raw, err := p.MarshalOnAir(ch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseOnAir(ch, raw)
		if err != nil {
			t.Fatalf("ch%d: %v", ch, err)
		}
		if got.AdvA != p.AdvA || !bytes.Equal(got.Data, p.Data) {
			t.Fatalf("ch%d round trip: %+v", ch, got)
		}
	}
}

func TestOnAirCorruptionCaughtByCRC(t *testing.T) {
	p := &AdvPDU{Type: PDUAdvNonconnInd, AdvA: Address{1, 2, 3, 4, 5, 6}, Data: []byte{1, 2, 3}}
	raw, err := p.MarshalOnAir(37)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x04
		if _, err := ParseOnAir(37, bad); err == nil {
			t.Fatalf("corruption at byte %d undetected", i)
		}
	}
	// Wrong channel dewhitens garbage → CRC failure.
	if _, err := ParseOnAir(38, raw); err == nil {
		t.Fatal("cross-channel parse succeeded")
	}
}

func TestPropertyOnAirRoundTrip(t *testing.T) {
	f := func(addr [6]byte, data []byte, ch uint8) bool {
		if len(data) > MaxAdvData {
			data = data[:MaxAdvData]
		}
		idx := AdvChannels[int(ch)%3]
		p := &AdvPDU{Type: PDUAdvNonconnInd, AdvA: Address(addr), Data: data}
		raw, err := p.MarshalOnAir(idx)
		if err != nil {
			return false
		}
		got, err := ParseOnAir(idx, raw)
		return err == nil && got.AdvA == p.AdvA && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestADStructures(t *testing.T) {
	adv, err := AppendAD(nil,
		ADStructure{Type: ADFlags, Data: []byte{0x06}},
		ADStructure{Type: ADManufacturerData, Data: []byte{0x57, 0x49, 21, 42}},
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseAD(adv)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Type != ADFlags || got[1].Type != ADManufacturerData {
		t.Fatalf("AD = %+v", got)
	}
	if !bytes.Equal(got[1].Data, []byte{0x57, 0x49, 21, 42}) {
		t.Fatalf("manufacturer data = %x", got[1].Data)
	}
}

func TestADOverflowRejected(t *testing.T) {
	if _, err := AppendAD(nil, ADStructure{Type: ADCompleteName, Data: make([]byte, 30)}); err == nil {
		t.Error("30-byte AD data accepted")
	}
	if _, err := AppendAD(nil,
		ADStructure{Type: 1, Data: make([]byte, 20)},
		ADStructure{Type: 2, Data: make([]byte, 20)},
	); err == nil {
		t.Error("44-byte AdvData accepted")
	}
}

func TestParseADTruncated(t *testing.T) {
	if _, err := ParseAD([]byte{5, 1, 2}); err == nil {
		t.Error("truncated AD accepted")
	}
	// Zero-length terminator ends parsing cleanly.
	got, err := ParseAD([]byte{2, 1, 6, 0, 0, 0})
	if err != nil || len(got) != 1 {
		t.Errorf("terminator handling: %v, %v", got, err)
	}
}

func TestConnectionEventEnergyMatchesTable1(t *testing.T) {
	// Paper Table 1: BLE energy/packet = 71 µJ.
	got := ConnectionEventEnergy()
	if math.Abs(float64(got)-71e-6) > 71e-6*0.05 {
		t.Fatalf("connection event energy = %.1f µJ, want 71 µJ ±5%%", got.Micro())
	}
	// And the event is single-digit milliseconds, as in the app note.
	if d := ConnectionEventDuration(); d < time.Millisecond || d > 5*time.Millisecond {
		t.Fatalf("connection event duration = %v", d)
	}
}

func TestDeviceSleepsAtTableIdleCurrent(t *testing.T) {
	s := sim.New()
	d := NewDevice(s)
	if d.Current() != CC2541SleepCurrent {
		t.Fatalf("sleep current = %v", d.Current())
	}
	s.RunUntil(10 * sim.Second)
	want := 10 * float64(CC2541SleepCurrent)
	if got := float64(d.Charge()); math.Abs(got-want) > want*1e-6 {
		t.Fatalf("10 s sleep charge = %v, want %v", got, want)
	}
}

func TestPlayConnectionEventEnergy(t *testing.T) {
	s := sim.New()
	d := NewDevice(s)
	finished := false
	d.PlayConnectionEvent(func() { finished = true })
	s.Run()
	if !finished {
		t.Fatal("event never completed")
	}
	if d.Current() != CC2541SleepCurrent {
		t.Fatal("device not back asleep")
	}
	got := float64(d.Energy())
	want := float64(ConnectionEventEnergy())
	if math.Abs(got-want) > want*0.01 {
		t.Fatalf("device energy %v, analytic %v", got, want)
	}
	if d.Events() != 1 {
		t.Fatalf("events = %d", d.Events())
	}
}

func TestRunPeriodic(t *testing.T) {
	s := sim.New()
	d := NewDevice(s)
	d.RunPeriodic(100 * time.Millisecond)
	s.RunUntil(sim.Second + 50*sim.Millisecond)
	if d.Events() != 10 {
		t.Fatalf("%d events in 1.05 s at 100 ms interval, want 10", d.Events())
	}
	// Average current ≈ E/(V·t) + sleep ≈ 71µJ/(3V·0.1s) ≈ 237 µA.
	avg := float64(d.Charge()) / s.Now().Seconds()
	if avg < 200e-6 || avg > 280e-6 {
		t.Fatalf("average current %v A at 10 Hz reporting", avg)
	}
}

func TestPDUTypeStrings(t *testing.T) {
	if PDUAdvNonconnInd.String() != "ADV_NONCONN_IND" {
		t.Error(PDUAdvNonconnInd.String())
	}
	if PDUType(15).String() == "" {
		t.Error("unknown type formats empty")
	}
}
