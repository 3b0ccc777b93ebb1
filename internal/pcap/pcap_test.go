package pcap

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"

	"wile/internal/dot11"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeIEEE80211)
	pkts := []Packet{
		{Time: 0, Data: []byte{1, 2, 3}},
		{Time: 1500 * time.Millisecond, Data: []byte{4}},
		{Time: 2 * time.Second, Data: bytes.Repeat([]byte{9}, 300)},
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkTypeIEEE80211 {
		t.Fatalf("link type %d", r.LinkType())
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pkts) {
		t.Fatalf("read %d packets", len(got))
	}
	for i := range pkts {
		if got[i].Time != pkts[i].Time || !bytes.Equal(got[i].Data, pkts[i].Data) {
			t.Fatalf("packet %d: %+v != %+v", i, got[i], pkts[i])
		}
	}
}

func TestHeaderBytes(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeIEEE80211)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()
	if len(hdr) != 24 {
		t.Fatalf("header %d bytes", len(hdr))
	}
	if hdr[0] != 0xd4 || hdr[1] != 0xc3 || hdr[2] != 0xb2 || hdr[3] != 0xa1 {
		t.Fatalf("magic %x", hdr[:4])
	}
	if hdr[20] != 105 {
		t.Fatalf("link type byte %d", hdr[20])
	}
}

func TestEmptyCapture(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeEthernet)
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeIEEE80211)
	w.WritePacket(Packet{Data: []byte{1, 2, 3, 4, 5}})
	raw := buf.Bytes()
	// Cut inside the record data, and right after the record header.
	for _, cut := range []int{len(raw) - 2, 24 + 16} {
		r, err := NewReader(bytes.NewReader(raw[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadPacket(); err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("record cut at %d of %d bytes: %v", cut, len(raw), err)
		}
	}
}

func TestOversizedPacketRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeIEEE80211)
	if err := w.WritePacket(Packet{Data: make([]byte, DefaultSnapLen+1)}); err == nil {
		t.Fatal("oversized packet written")
	}
}

func TestCarries80211Frames(t *testing.T) {
	// The intended use: write marshaled beacons, read and decode them.
	beacon := dot11.NewBeacon(dot11.LocalMAC(7), 100, 0,
		dot11.Elements{dot11.SSIDElement("")})
	raw, err := dot11.Marshal(beacon)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeIEEE80211)
	w.WritePacket(Packet{Time: time.Second, Data: raw})

	r, _ := NewReader(&buf)
	pkts, err := r.ReadAll()
	if err != nil || len(pkts) != 1 {
		t.Fatal(err)
	}
	f, err := dot11.Decode(pkts[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if f.(*dot11.Beacon).BSSID() != dot11.LocalMAC(7) {
		t.Fatal("beacon mangled through pcap")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(frames [][]byte, tsMillis []uint32) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf, LinkTypeIEEE80211)
		var want []Packet
		for i, fr := range frames {
			ts := time.Duration(0)
			if i < len(tsMillis) {
				ts = time.Duration(tsMillis[i]) * time.Millisecond
			}
			p := Packet{Time: ts, Data: fr}
			if err := w.WritePacket(p); err != nil {
				return false
			}
			want = append(want, p)
		}
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.ReadAll()
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Time != want[i].Time || !bytes.Equal(got[i].Data, want[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRadiotapRoundTrip(t *testing.T) {
	frame := []byte{0x80, 0x00, 1, 2, 3, 4, 5, 6, 7, 8}
	meta := RadiotapMeta{RateKbps: 72000, ChannelMHz: 2437}
	wrapped := AppendRadiotap(meta, frame)
	inner, got, err := StripRadiotap(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inner, frame) {
		t.Fatalf("inner frame %x", inner)
	}
	if got != meta {
		t.Fatalf("meta %+v", got)
	}
}

func TestRadiotapNoFields(t *testing.T) {
	frame := []byte{0xd4, 0, 0, 0}
	wrapped := AppendRadiotap(RadiotapMeta{}, frame)
	inner, meta, err := StripRadiotap(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inner, frame) || meta.RateKbps != 0 || meta.ChannelMHz != 0 {
		t.Fatalf("inner=%x meta=%+v", inner, meta)
	}
}

func TestRadiotapWithTSFTAndFlags(t *testing.T) {
	// A hand-built header with TSFT (8B, 8-aligned) + Flags + Rate, as
	// real captures commonly carry.
	frame := []byte{0x80, 0x00}
	hdr := []byte{
		0, 0, 20, 0, // version, pad, len=20
		0x07, 0, 0, 0, // present: TSFT|Flags|Rate
		1, 2, 3, 4, 5, 6, 7, 8, // TSFT (already 8-aligned at offset 8)
		0x10, // flags: FCS at end
		144,  // rate = 72 Mb/s
		0, 0, // pad to len 20
	}
	data := append(hdr, frame...)
	inner, meta, err := StripRadiotap(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inner, frame) {
		t.Fatalf("inner %x", inner)
	}
	if meta != (RadiotapMeta{RateKbps: 72000, Flags: RadiotapFlagFCS, HasFlags: true}) {
		t.Fatalf("meta %+v", meta)
	}
	// A Flags bit in the present word with no byte left for the field.
	if _, _, err := StripRadiotap([]byte{0, 0, 8, 0, 0x02, 0, 0, 0}); err == nil {
		t.Error("Flags field past the header accepted")
	}
}

func TestRadiotapErrors(t *testing.T) {
	if _, _, err := StripRadiotap([]byte{0, 0, 4}); err == nil {
		t.Error("short header accepted")
	}
	if _, _, err := StripRadiotap([]byte{1, 0, 8, 0, 0, 0, 0, 0}); err == nil {
		t.Error("version 1 accepted")
	}
	if _, _, err := StripRadiotap([]byte{0, 0, 200, 0, 0, 0, 0, 0}); err == nil {
		t.Error("oversized header length accepted")
	}
}

func TestPropertyRadiotapRoundTrip(t *testing.T) {
	f := func(frame []byte, rate500k uint8, freq uint16) bool {
		meta := RadiotapMeta{RateKbps: int(rate500k) * 500, ChannelMHz: int(freq)}
		wrapped := AppendRadiotap(meta, frame)
		inner, got, err := StripRadiotap(wrapped)
		if err != nil || !bytes.Equal(inner, frame) {
			return false
		}
		if meta.RateKbps > 0 && got.RateKbps != meta.RateKbps {
			return false
		}
		if meta.ChannelMHz > 0 && got.ChannelMHz != meta.ChannelMHz {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
