package dot11

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
)

// Header is the MAC header shared by management and data frames (24 bytes
// on the wire). Every management frame type and Data embeds it, and so
// implements Frame's RA and TA through it; HeaderOf reaches it from a
// Frame. Control frames carry abbreviated headers handled by their
// concrete types.
type Header struct {
	FC FrameControl
	// DurationID is the NAV duration in microseconds (or the AID for
	// PS-Poll frames).
	DurationID uint16
	// Addr1 is the receiver address (RA).
	Addr1 MAC
	// Addr2 is the transmitter address (TA).
	Addr2 MAC
	// Addr3 is the BSSID for management frames; DA/SA for data frames
	// depending on ToDS/FromDS.
	Addr3 MAC
	// Sequence is the 12-bit sequence number.
	Sequence uint16
	// Fragment is the 4-bit fragment number.
	Fragment uint8
}

const mgmtHeaderLen = 24

// RA reports the receiver address.
func (h *Header) RA() MAC { return h.Addr1 }

// TA reports the transmitter address.
func (h *Header) TA() MAC { return h.Addr2 }

// header lets HeaderOf find the Header a frame embeds.
func (h *Header) header() *Header { return h }

// HeaderOf returns f's full MAC header, which carries the sequence number
// and retry bit, or nil for the control frames (ACK, CTS, RTS, PS-Poll).
func HeaderOf(f Frame) *Header {
	if hf, ok := f.(interface{ header() *Header }); ok {
		return hf.header()
	}
	return nil
}

// fcsLen is the length of the frame check sequence.
const fcsLen = 4

func (h *Header) appendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, h.FC.Uint16())
	dst = binary.LittleEndian.AppendUint16(dst, h.DurationID)
	dst = append(dst, h.Addr1[:]...)
	dst = append(dst, h.Addr2[:]...)
	dst = append(dst, h.Addr3[:]...)
	seqCtl := h.Sequence<<4 | uint16(h.Fragment&0xf)
	return binary.LittleEndian.AppendUint16(dst, seqCtl)
}

func (h *Header) decodeFrom(b []byte) error {
	if len(b) < mgmtHeaderLen {
		return fmt.Errorf("%w: header needs %d bytes, have %d", errTruncated, mgmtHeaderLen, len(b))
	}
	h.FC = ParseFrameControl(binary.LittleEndian.Uint16(b))
	h.DurationID = binary.LittleEndian.Uint16(b[2:])
	copy(h.Addr1[:], b[4:10])
	copy(h.Addr2[:], b[10:16])
	copy(h.Addr3[:], b[16:22])
	seqCtl := binary.LittleEndian.Uint16(b[22:24])
	h.Sequence = seqCtl >> 4
	h.Fragment = uint8(seqCtl & 0xf)
	return nil
}

// Frame is one decoded 802.11 MAC frame. Concrete types are the *Beacon,
// *ProbeReq, ... types in this package.
type Frame interface {
	// Kind reports the frame's type/subtype.
	Kind() Kind
	// RA reports the receiver address.
	RA() MAC
	// TA reports the transmitter address (zero for CTS/ACK which carry
	// none).
	TA() MAC
	// AppendTo serializes the frame (without FCS) onto dst.
	AppendTo(dst []byte) ([]byte, error)
	// DecodeFromBytes parses the frame (without FCS) from b, overwriting
	// the receiver and reusing its element capacity. Decoded slices
	// alias b.
	DecodeFromBytes(b []byte) error
}

// FCS computes the IEEE CRC-32 frame check sequence over b.
func FCS(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// AppendMarshal serializes f onto dst and appends the FCS, producing the
// on-air MPDU after whatever dst already holds. Passing a reused scratch
// buffer (typically scratch[:0]) makes repeated marshals allocation-free
// once the buffer has grown to frame size. The FCS covers only the bytes
// appended by this call, so frames can be batched back to back in one
// buffer.
func AppendMarshal(dst []byte, f Frame) ([]byte, error) {
	start := len(dst)
	b, err := f.AppendTo(dst)
	if err != nil {
		return dst, err
	}
	return binary.LittleEndian.AppendUint32(b, FCS(b[start:])), nil
}

// Marshal serializes f and appends the FCS, producing the on-air MPDU in
// a fresh buffer.
func Marshal(f Frame) ([]byte, error) {
	return AppendMarshal(nil, f)
}

// ErrFCS is returned by Decode when the frame check sequence does not
// match — in the simulation this is how collision-corrupted frames die at
// the receiver.
type ErrFCS struct {
	Want, Got uint32
}

func (e *ErrFCS) Error() string {
	return fmt.Sprintf("dot11: FCS mismatch: frame carries %08x, computed %08x", e.Want, e.Got)
}

// Decode parses an on-air MPDU (with trailing FCS), verifying the FCS and
// dispatching on type/subtype. It returns one of the concrete frame types.
func Decode(b []byte) (Frame, error) {
	if len(b) < 2+fcsLen {
		return nil, fmt.Errorf("%w: MPDU needs >=%d bytes, have %d", errTruncated, 2+fcsLen, len(b))
	}
	body, trailer := b[:len(b)-fcsLen], b[len(b)-fcsLen:]
	want := binary.LittleEndian.Uint32(trailer)
	if got := FCS(body); got != want {
		return nil, &ErrFCS{Want: want, Got: got}
	}
	return DecodeNoFCS(body)
}

// DecodeNoFCS parses a frame that has already had its FCS stripped (or
// never had one, e.g. frames read from a pcap written without FCS).
func DecodeNoFCS(b []byte) (Frame, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: need frame control, have %d bytes", errTruncated, len(b))
	}
	fc := ParseFrameControl(binary.LittleEndian.Uint16(b))
	f, err := getFrame(fc.Kind())
	if err != nil {
		return nil, err
	}
	if err := f.DecodeFromBytes(b); err != nil {
		Release(f)
		return nil, err
	}
	return f, nil
}

// framePools recycles decoded frame values per kind. Decoding is the
// per-reception hot path the parallel experiment engine multiplies across
// workers; recycling the frame struct (and, for management frames, its
// Elements backing array) keeps the receive path's steady-state
// allocation at zero. The pools only fill through Release, so call sites
// that never release see exactly the old allocate-per-decode behavior.
var framePools [3][16]sync.Pool

// getFrame returns a recycled frame of the right concrete type, or a
// fresh one when the pool is empty.
func getFrame(k Kind) (Frame, error) {
	if int(k.Type) < len(framePools) && int(k.Subtype) < len(framePools[0]) {
		if v := framePools[k.Type][k.Subtype].Get(); v != nil {
			return v.(Frame), nil
		}
	}
	return newFrame(k)
}

// Release returns a frame obtained from Decode/DecodeNoFCS to the decode
// pool. Callers may only release frames they are provably done with:
// after Release neither the frame nor its Elements may be touched,
// because the next Decode of the same kind will overwrite them in place
// (payload and element bytes alias the decoded buffer, which the pool
// does not own). mac.Port releases every frame it decodes once its
// Handler and Monitor have returned, so a hook copies what it keeps.
// Releasing nil is a no-op.
func Release(f Frame) {
	if f == nil {
		return
	}
	k := f.Kind()
	if int(k.Type) >= len(framePools) || int(k.Subtype) >= len(framePools[0]) {
		return
	}
	framePools[k.Type][k.Subtype].Put(f)
}

func newFrame(k Kind) (Frame, error) {
	switch k {
	case Kind{TypeManagement, SubtypeBeacon}:
		return &Beacon{}, nil
	case Kind{TypeManagement, SubtypeProbeReq}:
		return &ProbeReq{}, nil
	case Kind{TypeManagement, SubtypeProbeResp}:
		return &ProbeResp{}, nil
	case Kind{TypeManagement, SubtypeAuth}:
		return &Auth{}, nil
	case Kind{TypeManagement, SubtypeAssocReq}:
		return &AssocReq{}, nil
	case Kind{TypeManagement, SubtypeAssocResp}:
		return &AssocResp{}, nil
	case Kind{TypeManagement, SubtypeDeauth}:
		return &Deauth{}, nil
	case Kind{TypeManagement, SubtypeDisassoc}:
		return &Disassoc{}, nil
	case Kind{TypeManagement, SubtypeAction}:
		return &Action{}, nil
	case Kind{TypeControl, SubtypeACK}:
		return &ACK{}, nil
	case Kind{TypeControl, SubtypeRTS}:
		return &RTS{}, nil
	case Kind{TypeControl, SubtypeCTS}:
		return &CTS{}, nil
	case Kind{TypeControl, SubtypePSPoll}:
		return &PSPoll{}, nil
	case Kind{TypeData, SubtypeData}, Kind{TypeData, SubtypeQoSData},
		Kind{TypeData, SubtypeNull}, Kind{TypeData, SubtypeQoSNull}:
		return &Data{}, nil
	}
	return nil, fmt.Errorf("dot11: unsupported frame kind %v", k)
}
