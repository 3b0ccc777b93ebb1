package netstack

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// The AP hands the cleartext data frames of stations that hold no key yet
// to these decoders, so every byte they parse is attacker-controlled.
// Each target checks that its parser never panics, and that whatever it
// accepts re-encodes and parses back equal. The seed corpora in
// testdata/fuzz hold the DHCP, ARP and UDP messages of a join as this
// stack builds them.

// FuzzParseDHCP feeds the DHCP decoder arbitrary UDP payloads. Pad options
// and everything after the end option are dropped on parse, so the
// comparison is on decoded messages, not bytes.
func FuzzParseDHCP(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseDHCP(data)
		if err != nil {
			return
		}
		back, err := ParseDHCP(d.Append(nil))
		if err != nil {
			t.Fatalf("re-encoded DHCP message does not parse: %v\n in %x", err, data)
		}
		if !dhcpEqual(back, d) {
			t.Fatalf("DHCP message changed across Append and parse:\n got  %+v\n want %+v", back, d)
		}
	})
}

// dhcpEqual compares two messages field by field, treating nil and empty
// option lists (and option data) as equal.
func dhcpEqual(a, b *DHCP) bool {
	if a.Op != b.Op || a.XID != b.XID || a.Secs != b.Secs || a.Flags != b.Flags ||
		a.CIAddr != b.CIAddr || a.YIAddr != b.YIAddr || a.SIAddr != b.SIAddr ||
		a.GIAddr != b.GIAddr || a.CHAddr != b.CHAddr || len(a.Options) != len(b.Options) {
		return false
	}
	for i, o := range a.Options {
		if o.Code != b.Options[i].Code || !bytes.Equal(o.Data, b.Options[i].Data) {
			return false
		}
	}
	return true
}

// FuzzParseARP feeds the ARP decoder arbitrary payloads.
func FuzzParseARP(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ParseARP(data)
		if err != nil {
			return
		}
		back, err := ParseARP(a.Append(nil))
		if err != nil {
			t.Fatalf("re-encoded ARP packet does not parse: %v\n in %x", err, data)
		}
		if *back != *a {
			t.Fatalf("ARP packet changed across Append and parse:\n got  %+v\n want %+v", back, a)
		}
	})
}

// FuzzParseIPv4UDP feeds arbitrary packets to the IPv4 decoder and the
// payload of each accepted packet to the UDP decoder, as the AP's uplink
// path does. Each input goes in twice, as received and with a
// valid header checksum, so mutations of the header reach the field
// checks instead of dying at the checksum. Options after the fixed header
// are dropped on re-encode and a zero TTL goes out as 64; every other
// header field and the payload must come back unchanged.
func FuzzParseIPv4UDP(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, pkt := range [][]byte{data, withIPv4Checksum(data)} {
			h, payload, err := ParseIPv4(pkt)
			if err != nil {
				continue
			}
			backH, backPayload, err := ParseIPv4(AppendIPv4(nil, h, payload))
			if err != nil {
				t.Fatalf("re-encoded IPv4 packet does not parse: %v\n in %x", err, pkt)
			}
			want := h
			if want.TTL == 0 {
				want.TTL = 64
			}
			if backH != want || !bytes.Equal(backPayload, payload) {
				t.Fatalf("IPv4 packet changed across AppendIPv4 and parse:\n got  %+v %x\n want %+v %x",
					backH, backPayload, want, payload)
			}

			u, body, err := ParseUDP(payload)
			if err != nil {
				continue
			}
			backU, backBody, err := ParseUDP(AppendUDP(nil, u, body))
			if err != nil {
				t.Fatalf("re-encoded UDP datagram does not parse: %v\n in %x", err, payload)
			}
			if backU != u || !bytes.Equal(backBody, body) {
				t.Fatalf("UDP datagram changed across AppendUDP and parse:\n got  %+v %x\n want %+v %x",
					backU, backBody, u, body)
			}
		}
	})
}

// withIPv4Checksum returns a copy of b with the header checksum its IHL
// calls for, or b itself when the IHL does not fit.
func withIPv4Checksum(b []byte) []byte {
	if len(b) < ipv4HeaderLen {
		return b
	}
	ihl := int(b[0]&0xf) * 4
	if ihl < ipv4HeaderLen || ihl > len(b) {
		return b
	}
	fixed := bytes.Clone(b)
	binary.BigEndian.PutUint16(fixed[10:], 0)
	binary.BigEndian.PutUint16(fixed[10:], Checksum(fixed[:ihl]))
	return fixed
}
