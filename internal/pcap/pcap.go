// Package pcap reads and writes libpcap capture files containing raw
// 802.11 frames (LINKTYPE_IEEE802_11). The cmd/wile-sensor tool can write
// its injected beacons into a pcap for inspection with standard tooling,
// and cmd/wile-scan can decode sensor data back out of one — the offline
// equivalent of the paper's monitor-mode verification setup.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// LinkType identifies the capture's frame format.
type LinkType uint32

// Link types used here.
const (
	// LinkTypeIEEE80211 is raw 802.11 MPDUs without radiotap.
	LinkTypeIEEE80211 LinkType = 105
	// LinkTypeEthernet is classic Ethernet (for completeness).
	LinkTypeEthernet LinkType = 1
)

const (
	magicMicros = 0xa1b2c3d4
	versionMaj  = 2
	versionMin  = 4
	// DefaultSnapLen captures whole frames.
	DefaultSnapLen = 65535
)

// Packet is one captured frame.
type Packet struct {
	// Time is the capture timestamp.
	Time time.Duration
	// Data is the frame bytes (for 802.11: MPDU including FCS).
	Data []byte
}

// Writer emits a pcap stream.
type Writer struct {
	w       io.Writer
	started bool
	link    LinkType
}

// NewWriter builds a writer for the given link type. The file header is
// written lazily on the first packet (or by Flush for empty captures).
func NewWriter(w io.Writer, link LinkType) *Writer {
	return &Writer{w: w, link: link}
}

func (pw *Writer) writeHeader() error {
	if pw.started {
		return nil
	}
	pw.started = true
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], magicMicros)
	binary.LittleEndian.PutUint16(hdr[4:], versionMaj)
	binary.LittleEndian.PutUint16(hdr[6:], versionMin)
	// thiszone (8:12) and sigfigs (12:16) stay zero.
	binary.LittleEndian.PutUint32(hdr[16:], DefaultSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:], uint32(pw.link))
	_, err := pw.w.Write(hdr[:])
	return err
}

// WritePacket appends one frame.
func (pw *Writer) WritePacket(p Packet) error {
	if err := pw.writeHeader(); err != nil {
		return err
	}
	if len(p.Data) > DefaultSnapLen {
		return fmt.Errorf("pcap: packet %d bytes exceeds snaplen", len(p.Data))
	}
	var rec [16]byte
	binary.LittleEndian.PutUint32(rec[0:], uint32(p.Time/time.Second))
	binary.LittleEndian.PutUint32(rec[4:], uint32(p.Time%time.Second/time.Microsecond))
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(p.Data)))
	binary.LittleEndian.PutUint32(rec[12:], uint32(len(p.Data)))
	if _, err := pw.w.Write(rec[:]); err != nil {
		return err
	}
	_, err := pw.w.Write(p.Data)
	return err
}

// Flush ensures the header exists even for empty captures.
func (pw *Writer) Flush() error { return pw.writeHeader() }

// Reader consumes a pcap stream.
type Reader struct {
	r    io.Reader
	link LinkType
}

// ErrBadMagic marks a stream that is not a microsecond little-endian pcap.
var ErrBadMagic = errors.New("pcap: bad magic (only µs little-endian pcap supported)")

// NewReader parses the file header.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magicMicros {
		return nil, ErrBadMagic
	}
	return &Reader{r: r, link: LinkType(binary.LittleEndian.Uint32(hdr[20:]))}, nil
}

// LinkType reports the capture's frame format.
func (pr *Reader) LinkType() LinkType { return pr.link }

// ReadPacket returns the next frame, or io.EOF at a clean end of stream.
func (pr *Reader) ReadPacket() (Packet, error) {
	var rec [16]byte
	if _, err := io.ReadFull(pr.r, rec[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("pcap: reading record header: %w", err)
	}
	inclLen := binary.LittleEndian.Uint32(rec[8:])
	if inclLen > DefaultSnapLen {
		return Packet{}, fmt.Errorf("pcap: record length %d exceeds snaplen", inclLen)
	}
	data := make([]byte, inclLen)
	if _, err := io.ReadFull(pr.r, data); err != nil {
		if errors.Is(err, io.EOF) {
			// A record header with no data after it is a truncated
			// record, not a clean end of stream.
			err = io.ErrUnexpectedEOF
		}
		return Packet{}, fmt.Errorf("pcap: reading %d-byte record: %w", inclLen, err)
	}
	ts := time.Duration(binary.LittleEndian.Uint32(rec[0:]))*time.Second +
		time.Duration(binary.LittleEndian.Uint32(rec[4:]))*time.Microsecond
	return Packet{Time: ts, Data: data}, nil
}

// ReadAll drains the stream.
func (pr *Reader) ReadAll() ([]Packet, error) {
	var out []Packet
	for {
		p, err := pr.ReadPacket()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}
