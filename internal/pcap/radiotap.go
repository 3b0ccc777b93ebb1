package pcap

import (
	"encoding/binary"
	"fmt"
)

// Radiotap (LINKTYPE_IEEE80211_RADIOTAP = 127) is the de-facto header
// real monitor-mode captures prepend to 802.11 frames. wile-scan accepts
// such captures, and the writer can produce them so other tools see
// rate/channel metadata on our injected beacons.

// LinkTypeRadiotap is the radiotap link type.
const LinkTypeRadiotap LinkType = 127

// Radiotap present-word bits used by this implementation.
const (
	rtPresentFlags   = 1 << 1
	rtPresentRate    = 1 << 2
	rtPresentChannel = 1 << 3
	rtPresentExt     = 1 << 31
)

// RadiotapFlagFCS is the Flags bit that says the frame ends in its FCS.
const RadiotapFlagFCS = 0x10

// RadiotapMeta is the capture metadata this implementation reads/writes.
type RadiotapMeta struct {
	// RateKbps is the PHY rate in kb/s (radiotap encodes 500 kb/s units;
	// zero means absent).
	RateKbps int
	// ChannelMHz is the center frequency (zero means absent).
	ChannelMHz int
	// Flags is the Flags field, read only: AppendRadiotap writes none.
	// HasFlags reports whether the record carried one.
	Flags    byte
	HasFlags bool
}

// AppendRadiotap prepends a radiotap header for meta onto the frame.
func AppendRadiotap(meta RadiotapMeta, frame []byte) []byte {
	var present uint32
	body := []byte{}
	if meta.RateKbps > 0 {
		present |= rtPresentRate
		body = append(body, byte(meta.RateKbps/500))
	}
	if meta.ChannelMHz > 0 {
		present |= rtPresentChannel
		// Channel field needs 2-byte alignment from the header start
		// (offset 8 + len(body) must be even).
		if (8+len(body))%2 == 1 {
			body = append(body, 0)
		}
		body = binary.LittleEndian.AppendUint16(body, uint16(meta.ChannelMHz))
		body = binary.LittleEndian.AppendUint16(body, 0x0080 /* 2 GHz flags default */)
	}
	hdrLen := 8 + len(body)
	out := make([]byte, 0, hdrLen+len(frame))
	out = append(out, 0, 0) // version, pad
	out = binary.LittleEndian.AppendUint16(out, uint16(hdrLen))
	out = binary.LittleEndian.AppendUint32(out, present)
	out = append(out, body...)
	return append(out, frame...)
}

// StripRadiotap parses the radiotap header, returning the inner 802.11
// frame (aliasing data) and the metadata fields this implementation
// understands.
func StripRadiotap(data []byte) ([]byte, RadiotapMeta, error) {
	var meta RadiotapMeta
	if len(data) < 8 {
		return nil, meta, fmt.Errorf("pcap: radiotap header needs 8 bytes, have %d", len(data))
	}
	if data[0] != 0 {
		return nil, meta, fmt.Errorf("pcap: radiotap version %d unsupported", data[0])
	}
	hdrLen := int(binary.LittleEndian.Uint16(data[2:]))
	if hdrLen < 8 || hdrLen > len(data) {
		return nil, meta, fmt.Errorf("pcap: radiotap length %d out of range", hdrLen)
	}
	present := binary.LittleEndian.Uint32(data[4:])
	// Skip extended present words.
	off := 8
	for p := present; p&rtPresentExt != 0; {
		if off+4 > hdrLen {
			return nil, meta, fmt.Errorf("pcap: radiotap present chain truncated")
		}
		p = binary.LittleEndian.Uint32(data[off:])
		off += 4
	}
	// Walk only the fields before the ones we want; field order is fixed
	// by bit number. We care about TSFT(0, 8 bytes, 8-aligned),
	// Flags(1, 1 byte), Rate(2, 1 byte), Channel(3, 4 bytes, 2-aligned).
	align := func(n int) {
		if rem := off % n; rem != 0 {
			off += n - rem
		}
	}
	if present&(1<<0) != 0 { // TSFT
		align(8)
		off += 8
	}
	if present&rtPresentFlags != 0 {
		if off < hdrLen {
			meta.Flags, meta.HasFlags = data[off], true
		}
		off++
	}
	if present&rtPresentRate != 0 {
		if off < hdrLen {
			meta.RateKbps = int(data[off]) * 500
		}
		off++
	}
	if present&rtPresentChannel != 0 {
		align(2)
		if off+2 <= hdrLen {
			meta.ChannelMHz = int(binary.LittleEndian.Uint16(data[off:]))
		}
		off += 4
	}
	if off > hdrLen {
		return nil, meta, fmt.Errorf("pcap: radiotap fields overflow header")
	}
	return data[hdrLen:], meta, nil
}
