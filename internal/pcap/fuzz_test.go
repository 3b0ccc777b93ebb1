package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzReadPcap feeds the capture reader arbitrary files: wile-scan decodes
// captures from any source, so a corrupt header, record or radiotap
// prefix must fail cleanly, never panic. Every packet whose microsecond
// field is below 10^6 must re-write through Writer and read back with
// equal Time and Data, and a radiotap prefix that parses must re-wrap
// through AppendRadiotap to the same metadata and inner frame. The seed
// corpus in testdata/fuzz holds two wile-sensor captures written by
// Writer, one plain and one radiotap-wrapped.
func FuzzReadPcap(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		off := 24 // file header
		for {
			p, err := r.ReadPacket()
			if err != nil {
				if errors.Is(err, io.EOF) && off != len(data) {
					t.Fatalf("clean EOF at offset %d of %d", off, len(data))
				}
				return
			}
			micros := binary.LittleEndian.Uint32(data[off+4:])
			off += 16 + len(p.Data)
			if micros < 1e6 {
				checkRewrite(t, r.LinkType(), p)
			}
			if inner, meta, err := StripRadiotap(p.Data); err == nil {
				// AppendRadiotap writes the rate and channel, not Flags.
				inner2, meta2, err := StripRadiotap(AppendRadiotap(meta, inner))
				if err != nil || meta2 != (RadiotapMeta{RateKbps: meta.RateKbps, ChannelMHz: meta.ChannelMHz}) || !bytes.Equal(inner2, inner) {
					t.Fatalf("radiotap re-wrap: meta %+v -> %+v, inner %x -> %x, err %v",
						meta, meta2, inner, inner2, err)
				}
			}
		}
	})
}

// checkRewrite writes p through a Writer and requires it to read back
// unchanged.
func checkRewrite(t *testing.T, link LinkType, p Packet) {
	t.Helper()
	var buf bytes.Buffer
	if err := NewWriter(&buf, link).WritePacket(p); err != nil {
		t.Fatalf("re-writing a %d-byte packet: %v", len(p.Data), err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("re-written header: %v", err)
	}
	back, err := r.ReadPacket()
	if err != nil {
		t.Fatalf("re-written packet: %v", err)
	}
	if back.Time != p.Time || !bytes.Equal(back.Data, p.Data) {
		t.Fatalf("re-written packet changed: time %v -> %v, data %x -> %x", p.Time, back.Time, p.Data, back.Data)
	}
}
