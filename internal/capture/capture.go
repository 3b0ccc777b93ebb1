// Package capture reads 802.11 captures for the commands that inspect
// them (wile-scan, wile-dump): pcap files, raw or radiotap, and hex dumps,
// one frame per line.
//
// A capture's link type does not say whether its frames end in an FCS. A
// radiotap record's Flags field does, for its own frame. For every other
// frame the reader decides once per capture: the frames carry one when
// any of them passes the FCS check, and are then all decoded that way. A
// frame that fails its FCS stays undecodable; it is never re-read as a
// frame without one, which would parse the stale FCS as one more element
// of a corrupted body.
package capture

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"time"

	"wile/internal/dot11"
	"wile/internal/pcap"
)

// Frame is one record of a capture.
type Frame struct {
	// Time is the capture timestamp (zero for hex input).
	Time time.Duration
	// Data is the record's 802.11 frame, radiotap header removed; the
	// whole record when Err is a radiotap error.
	Data []byte
	// Radiotap is the record's radiotap metadata, zero in a raw capture.
	Radiotap pcap.RadiotapMeta
	// Frame is the decoded frame, nil when Err is set.
	Frame dot11.Frame
	// Err is why the record did not decode.
	Err error
}

// ReadPcap reads and decodes every record of a pcap capture.
func ReadPcap(r io.Reader) ([]Frame, error) {
	rd, err := pcap.NewReader(r)
	if err != nil {
		return nil, err
	}
	pkts, err := rd.ReadAll()
	if err != nil {
		return nil, err
	}
	frames := make([]Frame, len(pkts))
	for i, p := range pkts {
		f := Frame{Time: p.Time, Data: p.Data}
		if rd.LinkType() == pcap.LinkTypeRadiotap {
			inner, meta, err := pcap.StripRadiotap(p.Data)
			if err != nil {
				f.Err = err
			} else {
				f.Data, f.Radiotap = inner, meta
			}
		}
		frames[i] = f
	}
	decode(frames)
	return frames, nil
}

// ReadHex reads and decodes frames written as hex, one per line; blank
// lines are skipped.
func ReadHex(r io.Reader) ([]Frame, error) {
	var frames []Frame
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if sc.Text() == "" {
			continue
		}
		data, err := hex.DecodeString(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		frames = append(frames, Frame{Data: data})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	decode(frames)
	return frames, nil
}

// decode decodes every readable frame: with an FCS when its radiotap Flags
// field says so, and a frame without that field with an FCS when any frame
// passes the FCS check, without one otherwise.
func decode(frames []Frame) {
	withFCS := slices.ContainsFunc(frames, func(f Frame) bool { return f.Err == nil && passesFCS(f.Data) })
	for i := range frames {
		f := &frames[i]
		if f.Err != nil {
			continue
		}
		fcs := withFCS
		if rt := f.Radiotap; rt.HasFlags {
			fcs = rt.Flags&pcap.RadiotapFlagFCS != 0
		}
		if fcs {
			f.Frame, f.Err = dot11.Decode(f.Data)
		} else {
			f.Frame, f.Err = dot11.DecodeNoFCS(f.Data)
		}
	}
}

// passesFCS reports whether b is a frame followed by its valid FCS.
func passesFCS(b []byte) bool {
	n := len(b) - 4
	return n >= 2 && dot11.FCS(b[:n]) == binary.LittleEndian.Uint32(b[n:])
}
