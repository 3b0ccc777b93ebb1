package crypto80211

import (
	"crypto/aes"
	"errors"
	"fmt"
)

// CCMP (IEEE 802.11-2016 §12.5.3): the per-frame encapsulation WPA2 wraps
// around data-frame bodies once the 4-way handshake installs the temporal
// key. Our simulated join pays exactly the true cost: after message 4,
// every DHCP, ARP and application frame on the air is CCMP-protected, with
// its packet number, header, MIC and replay rules — the bytes a real
// monitor-mode capture of the paper's testbed would show.

// CCMPHeaderLen is the expansion before the body (PN + key ID).
const CCMPHeaderLen = 8

// CCMPMICLen is the trailing message-integrity code.
const CCMPMICLen = 8

// CCMPOverhead is the total per-frame expansion.
const CCMPOverhead = CCMPHeaderLen + CCMPMICLen

// ErrReplay reports a packet number that does not advance the replay
// window.
var ErrReplay = errors.New("crypto80211: CCMP replay detected")

// CCMPFrameMeta carries the MAC-header fields bound into the nonce and
// AAD. The caller (the MAC layer) fills it from the frame it is about to
// protect.
type CCMPFrameMeta struct {
	// FC is the frame-control field with the fields the standard masks
	// (retry, power management, more data) already zeroed by the caller,
	// and the Protected bit set.
	FC uint16
	// A1, A2, A3 are the three addresses.
	A1, A2, A3 [6]byte
	// SeqCtl is the sequence control with the sequence number masked to
	// zero (only the fragment number is bound).
	SeqCtl uint16
}

// aad serializes the additional authenticated data (§12.5.3.3.3).
func (m CCMPFrameMeta) aad() [22]byte {
	var out [22]byte
	out[0], out[1] = byte(m.FC), byte(m.FC>>8)
	copy(out[2:8], m.A1[:])
	copy(out[8:14], m.A2[:])
	copy(out[14:20], m.A3[:])
	out[20], out[21] = byte(m.SeqCtl), byte(m.SeqCtl>>8)
	return out
}

// nonce builds the 13-byte CCM nonce: priority, A2, PN (§12.5.3.3.4).
func (m CCMPFrameMeta) nonce(pn uint64) [ccmNonceLen]byte {
	var out [ccmNonceLen]byte
	out[0] = 0 // priority: non-QoS data
	copy(out[1:7], m.A2[:])
	for i := 0; i < 6; i++ {
		out[7+i] = byte(pn >> (8 * (5 - i)))
	}
	return out
}

// appendCCMPHeader appends the 8-byte CCMP header carrying the PN.
func appendCCMPHeader(dst []byte, pn uint64, keyID byte) []byte {
	return append(dst,
		byte(pn), byte(pn>>8),
		0,                 // reserved
		0x20|(keyID&3)<<6, // ExtIV set
		byte(pn>>16), byte(pn>>24), byte(pn>>32), byte(pn>>40),
	)
}

func parseCCMPHeader(b []byte) (pn uint64, err error) {
	if len(b) < CCMPHeaderLen {
		return 0, fmt.Errorf("crypto80211: CCMP header needs %d bytes, have %d", CCMPHeaderLen, len(b))
	}
	if b[3]&0x20 == 0 {
		return 0, errors.New("crypto80211: CCMP ExtIV bit not set")
	}
	pn = uint64(b[0]) | uint64(b[1])<<8 |
		uint64(b[4])<<16 | uint64(b[5])<<24 | uint64(b[6])<<32 | uint64(b[7])<<40
	return pn, nil
}

// CCMPSession protects one direction of one pairwise association: it owns
// the temporal key's CCM cipher, the transmit packet number and the
// receive replay window. Sealing and opening share the cipher's working
// blocks, so a session is not safe for concurrent use.
type CCMPSession struct {
	ccm  ccm
	txPN uint64
	rxPN uint64
}

// NewCCMPSession starts a session with the handshake-installed temporal
// key. PNs start at zero, as after key installation.
func NewCCMPSession(tk [16]byte) *CCMPSession {
	block, err := aes.NewCipher(tk[:])
	if err != nil {
		panic("crypto80211: AES-128 rejected a 16-byte key: " + err.Error())
	}
	return &CCMPSession{ccm: ccm{block: block}}
}

// Encapsulate protects an MSDU, returning CCMP header || ciphertext || MIC
// in one new buffer.
func (s *CCMPSession) Encapsulate(meta CCMPFrameMeta, msdu []byte) ([]byte, error) {
	s.txPN++
	pn := s.txPN
	nonce, aad := meta.nonce(pn), meta.aad()
	out := appendCCMPHeader(make([]byte, 0, CCMPOverhead+len(msdu)), pn, 0)
	return s.ccm.appendSealed(out, nonce[:], aad[:], msdu), nil
}

// Decapsulate verifies and strips the protection, enforcing strictly
// increasing packet numbers.
func (s *CCMPSession) Decapsulate(meta CCMPFrameMeta, body []byte) ([]byte, error) {
	pn, err := parseCCMPHeader(body)
	if err != nil {
		return nil, err
	}
	if pn <= s.rxPN {
		return nil, fmt.Errorf("%w: PN %d after %d", ErrReplay, pn, s.rxPN)
	}
	nonce, aad := meta.nonce(pn), meta.aad()
	plain, err := s.ccm.open(nonce[:], aad[:], body[CCMPHeaderLen:])
	if err != nil {
		return nil, err
	}
	s.rxPN = pn
	return plain, nil
}

// TxPN reports the last transmitted packet number (diagnostics).
func (s *CCMPSession) TxPN() uint64 { return s.txPN }
