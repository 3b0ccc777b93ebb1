package ble

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzParseOnAir feeds the advertising-channel decoder arbitrary bytes: any
// radio in range can transmit on channels 37–39, so nothing a scanner
// parses may panic. Each input goes in twice, as received and as a PDU
// given a valid CRC-24 and whitening, so mutations reach ParseAdvPDU
// instead of dying at the checksum. A PDU the decoder accepts must survive
// MarshalOnAir and a second parse unchanged. The seed corpus in
// testdata/fuzz holds advertising PDUs of every payload size class.
func FuzzParseOnAir(f *testing.F) {
	f.Fuzz(func(t *testing.T, channel uint8, data []byte) {
		ch := int(channel % 40)
		crc := CRC24(data)
		for _, onAir := range [][]byte{data, Whiten(ch, append(slices.Clip(data), crc[:]...))} {
			p, err := ParseOnAir(ch, onAir)
			if err != nil {
				continue
			}
			raw, err := p.MarshalOnAir(ch)
			if err != nil {
				t.Fatalf("accepted PDU %+v does not marshal: %v", p, err)
			}
			back, err := ParseOnAir(ch, raw)
			if err != nil {
				t.Fatalf("re-marshaled PDU does not parse: %v\n in  %x\n out %x", err, onAir, raw)
			}
			if back.Type != p.Type || back.TxAdd != p.TxAdd || back.AdvA != p.AdvA || !bytes.Equal(back.Data, p.Data) {
				t.Fatalf("PDU changed across MarshalOnAir and parse:\n got  %+v\n want %+v", back, p)
			}
		}
	})
}

// FuzzParseAD feeds the AD-structure decoder arbitrary AdvData. Nothing may
// panic, and AdvData that fits an advertising PDU (MaxAdvData bytes) and
// parses must come back from AppendAD byte for byte, up to the first
// zero-length terminator, which ends parsing. The seed corpus in
// testdata/fuzz holds flags, names, manufacturer data and padding.
func FuzzParseAD(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ads, err := ParseAD(data)
		if err != nil || len(data) > MaxAdvData {
			return
		}
		end := 0
		for end < len(data) && data[end] != 0 {
			end += 1 + int(data[end])
		}
		out, err := AppendAD(nil, ads...)
		if err != nil {
			t.Fatalf("parsed AdvData %x does not re-append: %v", data, err)
		}
		if !bytes.Equal(out, data[:end]) {
			t.Fatalf("AdvData changed across ParseAD and AppendAD:\n got  %x\n want %x", out, data[:end])
		}
	})
}
