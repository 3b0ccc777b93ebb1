package crypto80211

import (
	"bytes"
	"testing"

	"wile/internal/dot11"
	"wile/internal/netstack"
)

// The AP and station addresses of the handshake driveHandshake runs.
var (
	testAA  = dot11.MAC{0xaa, 0xbb, 0xcc, 0, 0, 1}
	testSPA = dot11.MAC{0xde, 0xad, 0xbe, 0xef, 0, 2}
)

// dataFrame is a data frame between the test pair, uplink (station → AP)
// or downlink.
func dataFrame(payload []byte, uplink bool) *dot11.Data {
	if uplink {
		return dot11.NewDataToAP(testAA, testSPA, testAA, payload)
	}
	return dot11.NewDataFromAP(testAA, testSPA, testAA, payload)
}

// eapolFrame carries one EAPOL PDU the way it rides the air: cleartext,
// uplink for M2 and M4, downlink for M1 and M3.
func eapolFrame(pdu []byte, uplink bool) *dot11.Data {
	return dataFrame(netstack.WrapSNAP(netstack.EtherTypeEAPOL, pdu), uplink)
}

// protectedFrame CCMP-protects msdu under tx, in the given direction.
func protectedFrame(t *testing.T, tx *CCMPSession, msdu []byte, uplink bool) *dot11.Data {
	t.Helper()
	d := dataFrame(nil, uplink)
	d.Header.FC.Protected = true
	body, err := tx.Encapsulate(DataFrameMeta(d), msdu)
	if err != nil {
		t.Fatal(err)
	}
	d.Payload = body
	return d
}

// A forged M1 and M2 for a pair whose handshake the sniffer already saw
// must not displace the genuine PTK: without the PMK the forger cannot
// produce a valid M2 MIC, so the sniffer keeps decrypting, and its replay
// windows keep rejecting frames it has already seen.
func TestSnifferIgnoresForgedHandshake(t *testing.T) {
	const pass = "hunter2hunter2"
	pdus, a, s, err := driveHandshake(t, pass, pass)
	if err != nil {
		t.Fatal(err)
	}
	sn := NewSniffer(pass, "lab-net")
	for i, pdu := range pdus {
		sn.Observe(eapolFrame(pdu, i%2 == 1))
	}
	if sn.Stats.HandshakesSeen != 1 || !sn.CanDecrypt(testAA, testSPA) {
		t.Fatalf("sniffer missed the genuine handshake: %+v", sn.Stats)
	}
	up, down := NewCCMPSession(s.PTK().TK), NewCCMPSession(a.PTK().TK)
	decrypts := func(d *dot11.Data, want string) {
		t.Helper()
		if got, ok := sn.Observe(d); !ok || !bytes.Equal(got, []byte(want)) {
			t.Fatalf("sniffer read %q (ok=%v), want %q; stats %+v", got, ok, want, sn.Stats)
		}
	}
	seen := protectedFrame(t, up, []byte("before: uplink"), true)
	decrypts(seen, "before: uplink")
	decrypts(protectedFrame(t, down, []byte("before: downlink"), false), "before: downlink")

	var nonce [NonceLen]byte
	for i := range nonce {
		nonce[i] = 0xf0 ^ byte(i)
	}
	m1 := &EAPOLKey{Info: KeyInfoTypePairwise | KeyInfoAck, KeyLength: 16, ReplayCounter: 9, Nonce: nonce}
	m2 := &EAPOLKey{Info: KeyInfoTypePairwise | KeyInfoMIC, KeyLength: 16, ReplayCounter: 9, Nonce: nonce}
	sn.Observe(eapolFrame(m1.Append(nil), false))
	sn.Observe(eapolFrame(m2.Sign([16]byte{0xba, 0xd}), true))
	if sn.Stats.HandshakesSeen != 1 {
		t.Fatalf("forged M2 counted as a handshake: %+v", sn.Stats)
	}

	decrypts(protectedFrame(t, up, []byte("after: uplink"), true), "after: uplink")
	decrypts(protectedFrame(t, down, []byte("after: downlink"), false), "after: downlink")
	if sn.Stats.Undecryptable != 0 {
		t.Fatalf("%d frames undecryptable after the forgery", sn.Stats.Undecryptable)
	}
	if _, ok := sn.Observe(seen); ok || sn.Stats.Undecryptable != 1 {
		t.Fatalf("replayed uplink frame decrypted: %+v", sn.Stats)
	}
}
