package crypto80211

import (
	"wile/internal/dot11"
	"wile/internal/netstack"
)

// Sniffer is a passive WPA2-PSK decryptor: given the network's passphrase
// and SSID, it watches a monitor-mode frame stream, captures the ANonce
// and SNonce from each 4-way handshake it overhears, derives the same PTK
// the peers derive, and decrypts subsequent CCMP data frames — exactly the
// trick Wireshark's 802.11 decryption uses. The station and experiment
// tests use it to look *inside* the encrypted DHCP/ARP phase of a join
// without giving the monitor any protocol shortcuts.
//
// The standard caveat applies and is part of the point: PSK networks have
// no forward secrecy, so anyone with the passphrase who captures the
// handshake reads everything. (Wi-LE's §6 security extension has the same
// property by design — per-device pre-shared keys — which is fine for the
// IoT setting both target.)
type Sniffer struct {
	pmk []byte
	// Stats counts what the sniffer saw.
	Stats SnifferStats

	sessions map[pairKey]*snifferSession
	// groups decrypts GTK-protected group traffic per AP, with the GTK
	// recovered from message 3 (the sniffer holds the KEK).
	groups map[dot11.MAC]*CCMPSession
}

// SnifferStats counts sniffer events.
type SnifferStats struct {
	HandshakesSeen int
	Decrypted      int
	Undecryptable  int
}

type pairKey struct {
	aa, spa dot11.MAC
}

type snifferSession struct {
	anonce  [NonceLen]byte
	haveA   bool
	ptk     PTK
	havePTK bool
	// up and down hold separate replay windows: packet numbers are
	// per-transmitter, and a passive observer sees both directions
	// interleaved.
	up, down *CCMPSession
}

// NewSniffer prepares a decryptor for one WPA2-PSK network.
func NewSniffer(passphrase, ssid string) *Sniffer {
	return &Sniffer{
		pmk:      PSK(passphrase, ssid),
		sessions: make(map[pairKey]*snifferSession),
		groups:   make(map[dot11.MAC]*CCMPSession),
	}
}

// Observe feeds one decoded frame to the sniffer. For protected data
// frames it returns the decrypted MSDU (plain=true); for everything else
// it returns nil and updates handshake state as needed.
func (s *Sniffer) Observe(f dot11.Frame) (msdu []byte, plain bool) {
	d, ok := f.(*dot11.Data)
	if !ok {
		return nil, false
	}
	if !d.Header.FC.Protected {
		s.observeCleartext(d)
		return nil, false
	}
	// Group-addressed downlink decrypts under the AP's GTK.
	if !d.Header.FC.ToDS && d.Header.Addr1.IsGroup() {
		g, ok := s.groups[d.Header.Addr2]
		if !ok {
			s.Stats.Undecryptable++
			return nil, false
		}
		plainMSDU, err := g.Decapsulate(DataFrameMeta(d), d.Payload)
		if err != nil {
			s.Stats.Undecryptable++
			return nil, false
		}
		s.Stats.Decrypted++
		return plainMSDU, true
	}
	// Otherwise find the pairwise session. The AP address is the BSSID
	// (addr1 for ToDS, addr2 for FromDS).
	var key pairKey
	if d.Header.FC.ToDS {
		key = pairKey{aa: d.Header.Addr1, spa: d.Header.Addr2}
	} else {
		key = pairKey{aa: d.Header.Addr2, spa: d.Header.Addr1}
	}
	sess, ok := s.sessions[key]
	if !ok || !sess.havePTK {
		s.Stats.Undecryptable++
		return nil, false
	}
	dir := sess.down
	if d.Header.FC.ToDS {
		dir = sess.up
	}
	plainMSDU, err := dir.Decapsulate(DataFrameMeta(d), d.Payload)
	if err != nil {
		s.Stats.Undecryptable++
		return nil, false
	}
	s.Stats.Decrypted++
	return plainMSDU, true
}

// observeCleartext watches for EAPOL handshake messages.
func (s *Sniffer) observeCleartext(d *dot11.Data) {
	et, payload, err := netstack.UnwrapSNAP(d.Payload)
	if err != nil || et != netstack.EtherTypeEAPOL {
		return
	}
	k, err := ParseEAPOLKey(payload)
	if err != nil {
		return
	}
	switch {
	case k.Info&KeyInfoAck != 0 && k.Info&KeyInfoMIC == 0:
		// M1 (AP → station): capture the ANonce. M1 carries no MIC, so it
		// only arms the next derivation; an installed PTK stays until an
		// authenticated M2 replaces it.
		key := pairKey{aa: d.Header.Addr2, spa: d.Header.Addr1}
		sess, ok := s.sessions[key]
		if !ok {
			sess = &snifferSession{}
			s.sessions[key] = sess
		}
		sess.anonce, sess.haveA = k.Nonce, true
	case k.Info&KeyInfoMIC != 0 && k.Info&KeyInfoAck == 0 && k.Info&KeyInfoSecure == 0:
		// M2 (station → AP): SNonce completes the derivation. Only an M2
		// whose MIC proves its sender holds the PMK may replace the
		// installed PTK and its replay windows.
		key := pairKey{aa: d.Header.Addr1, spa: d.Header.Addr2}
		sess, ok := s.sessions[key]
		if !ok || !sess.haveA {
			return
		}
		ptk := DerivePTK(s.pmk, [6]byte(key.aa), [6]byte(key.spa), sess.anonce, k.Nonce)
		if !VerifyMIC(payload, ptk.KCK) {
			return
		}
		sess.ptk = ptk
		sess.havePTK = true
		sess.up = NewCCMPSession(sess.ptk.TK)
		sess.down = NewCCMPSession(sess.ptk.TK)
		s.Stats.HandshakesSeen++
	case k.Info&KeyInfoInstall != 0 && k.Info&KeyInfoMIC != 0:
		// M3 (AP → station): the key data holds the wrapped GTK; the
		// sniffer unwraps it with the KEK it just derived — exactly what
		// Wireshark's WPA decryption does.
		key := pairKey{aa: d.Header.Addr2, spa: d.Header.Addr1}
		sess, ok := s.sessions[key]
		if !ok || !sess.havePTK {
			return
		}
		keyData, err := KeyUnwrap(sess.ptk.KEK[:], k.KeyData)
		if err != nil {
			return
		}
		var gtk [GTKLen]byte
		copy(gtk[:], unpad8(keyData))
		s.groups[key.aa] = NewCCMPSession(gtk)
	}
}

// CanDecrypt reports whether a PTK is installed for the given pair.
func (s *Sniffer) CanDecrypt(aa, spa dot11.MAC) bool {
	sess, ok := s.sessions[pairKey{aa: aa, spa: spa}]
	return ok && sess.havePTK
}
