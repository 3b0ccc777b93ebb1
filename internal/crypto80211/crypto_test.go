package crypto80211

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func fromHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// RFC 6070 PBKDF2-HMAC-SHA1 test vectors.
func TestPBKDF2RFC6070(t *testing.T) {
	cases := []struct {
		pass, salt string
		iter, dk   int
		want       string
	}{
		{"password", "salt", 1, 20, "0c60c80f961f0e71f3a9b524af6012062fe037a6"},
		{"password", "salt", 2, 20, "ea6c014dc72d6f8ccd1ed92ace1d41f0d8de8957"},
		{"password", "salt", 4096, 20, "4b007901b765489abead49d926f721d065a429c1"},
		{"passwordPASSWORDpassword", "saltSALTsaltSALTsaltSALTsaltSALTsalt", 4096, 25,
			"3d2eec4fe41c849b80c8d83662c0e44a8b291a964cf2f07038"},
		{"pass\x00word", "sa\x00lt", 4096, 16, "56fa6aa75548099dcc37d7f03425e0c3"},
	}
	for _, c := range cases {
		got := PBKDF2SHA1([]byte(c.pass), []byte(c.salt), c.iter, c.dk)
		if !bytes.Equal(got, fromHex(t, c.want)) {
			t.Errorf("PBKDF2(%q,%q,%d): got %x, want %s", c.pass, c.salt, c.iter, got, c.want)
		}
	}
}

// IEEE 802.11-2016 Annex J.4 PSK test vectors, on a cache miss and then on
// the hit that follows it.
func TestPSKIEEEVectors(t *testing.T) {
	cases := []struct {
		pass, ssid, want string
	}{
		{"password", "IEEE", "f42c6fc52df0ebef9ebb4b90b38a5f902e83fe1b135a70e23aed762e9710a12e"},
		{"ThisIsAPassword", "ThisIsASSID", "0dc0d6eb90555ed6419756b9a15ec3e3209b63df707dd508d14581f8982721af"},
	}
	for _, c := range cases {
		forgetPSK(c.pass, c.ssid)
		for _, call := range []string{"miss", "hit"} {
			if got := PSK(c.pass, c.ssid); !bytes.Equal(got, fromHex(t, c.want)) {
				t.Errorf("PSK(%q,%q) on a %s = %x, want %s", c.pass, c.ssid, call, got, c.want)
			}
			if !cachedPSK(c.pass, c.ssid) {
				t.Errorf("PSK(%q,%q) on a %s left no cache entry", c.pass, c.ssid, call)
			}
		}
	}
}

// RFC 3394 §4.1: 128-bit key data wrapped with a 128-bit KEK.
func TestKeyWrapRFC3394(t *testing.T) {
	kek := fromHex(t, "000102030405060708090a0b0c0d0e0f")
	plain := fromHex(t, "00112233445566778899aabbccddeeff")
	want := fromHex(t, "1fa68b0a8112b447aef34bd8fb5a7b829d3e862371d2cfe5")
	got, err := KeyWrap(kek, plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("KeyWrap = %x, want %x", got, want)
	}
	back, err := KeyUnwrap(kek, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, plain) {
		t.Fatalf("KeyUnwrap = %x, want %x", back, plain)
	}
}

func TestKeyUnwrapDetectsTampering(t *testing.T) {
	kek := fromHex(t, "000102030405060708090a0b0c0d0e0f")
	plain := fromHex(t, "00112233445566778899aabbccddeeff")
	wrapped, err := KeyWrap(kek, plain)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wrapped {
		bad := append([]byte(nil), wrapped...)
		bad[i] ^= 0x01
		if _, err := KeyUnwrap(kek, bad); err == nil {
			t.Fatalf("tampering at byte %d undetected", i)
		}
	}
}

func TestKeyWrapRejectsBadSizes(t *testing.T) {
	kek := make([]byte, 16)
	if _, err := KeyWrap(kek, make([]byte, 8)); err == nil {
		t.Error("8-byte plaintext accepted")
	}
	if _, err := KeyWrap(kek, make([]byte, 17)); err == nil {
		t.Error("unaligned plaintext accepted")
	}
	if _, err := KeyUnwrap(kek, make([]byte, 16)); err == nil {
		t.Error("16-byte ciphertext accepted")
	}
}

func TestPropertyKeyWrapRoundTrip(t *testing.T) {
	f := func(kek [16]byte, blocks uint8, seed byte) bool {
		n := (int(blocks)%6 + 2) * 8 // 16..56 bytes
		plain := make([]byte, n)
		for i := range plain {
			plain[i] = seed + byte(i)
		}
		wrapped, err := KeyWrap(kek[:], plain)
		if err != nil {
			return false
		}
		back, err := KeyUnwrap(kek[:], wrapped)
		return err == nil && bytes.Equal(back, plain)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPad8RoundTrip(t *testing.T) {
	for n := 0; n <= 40; n++ {
		in := bytes.Repeat([]byte{0xab}, n)
		p := pad8(in)
		if len(p) < 16 || len(p)%8 != 0 {
			t.Fatalf("pad8(%d) gives invalid length %d", n, len(p))
		}
		if got := unpad8(p); !bytes.Equal(got, in) {
			// 0xab tails can't be confused with padding since padding is
			// 0xdd 0x00...; exact round trip must hold.
			t.Fatalf("unpad8(pad8(%d bytes)) = %d bytes", n, len(got))
		}
	}
}

func TestPRFLengthsAndDeterminism(t *testing.T) {
	key := []byte("0123456789abcdef0123456789abcdef")
	a := PRF(key, "Pairwise key expansion", []byte("data"), 384)
	b := PRF(key, "Pairwise key expansion", []byte("data"), 384)
	if len(a) != 48 || !bytes.Equal(a, b) {
		t.Fatalf("PRF not deterministic or wrong length %d", len(a))
	}
	if c := PRF(key, "Pairwise key expansion", []byte("datb"), 384); bytes.Equal(a, c) {
		t.Fatal("PRF ignores data")
	}
	if d := PRF(key, "Group key expansion", []byte("data"), 384); bytes.Equal(a, d) {
		t.Fatal("PRF ignores label")
	}
	if e := PRF(key, "Pairwise key expansion", []byte("data"), 512); !bytes.Equal(e[:48], a) {
		t.Fatal("PRF output not a prefix-extension across lengths")
	}
}

func TestDerivePTKSymmetric(t *testing.T) {
	pmk := PSK("correct horse", "battery")
	aa := [6]byte{2, 0, 0, 0, 0, 1}
	spa := [6]byte{2, 0, 0, 0, 0, 2}
	var an, sn [NonceLen]byte
	for i := range an {
		an[i], sn[i] = byte(i), byte(255-i)
	}
	// Both sides must derive the same PTK with their own view of the
	// address/nonce pairs.
	apSide := DerivePTK(pmk, aa, spa, an, sn)
	staSide := DerivePTK(pmk, aa, spa, an, sn)
	if apSide != staSide {
		t.Fatal("PTK derivation nondeterministic")
	}
	// Different nonces give a different key.
	sn2 := sn
	sn2[0] ^= 1
	if DerivePTK(pmk, aa, spa, an, sn2) == apSide {
		t.Fatal("PTK insensitive to SNonce")
	}
	// The three subkeys are distinct.
	if apSide.KCK == apSide.KEK || apSide.KEK == apSide.TK || apSide.KCK == apSide.TK {
		t.Fatal("PTK subkeys collide")
	}
}

func TestEAPOLKeyRoundTrip(t *testing.T) {
	var nonce [NonceLen]byte
	for i := range nonce {
		nonce[i] = byte(i * 3)
	}
	k := &EAPOLKey{
		Info:          KeyInfoTypePairwise | KeyInfoAck,
		KeyLength:     16,
		ReplayCounter: 7,
		Nonce:         nonce,
		KeyData:       []byte{1, 2, 3, 4, 5, 6, 7, 8},
	}
	raw := k.Append(nil)
	got, err := ParseEAPOLKey(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Info != k.Info || got.KeyLength != 16 || got.ReplayCounter != 7 ||
		got.Nonce != nonce || !bytes.Equal(got.KeyData, k.KeyData) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestEAPOLKeyParseErrors(t *testing.T) {
	k := &EAPOLKey{Info: KeyInfoTypePairwise}
	raw := k.Append(nil)
	if _, err := ParseEAPOLKey(raw[:10]); err == nil {
		t.Error("short PDU accepted")
	}
	bad := append([]byte(nil), raw...)
	bad[1] = 0 // not EAPOL-Key
	if _, err := ParseEAPOLKey(bad); err == nil {
		t.Error("non-Key EAPOL accepted")
	}
	bad2 := append([]byte(nil), raw...)
	bad2[4] = 254 // unknown descriptor
	if _, err := ParseEAPOLKey(bad2); err == nil {
		t.Error("unknown descriptor accepted")
	}
	// Key-data length beyond buffer.
	bad3 := append([]byte(nil), raw...)
	bad3[micOffset+16] = 0xff
	if _, err := ParseEAPOLKey(bad3); err == nil {
		t.Error("oversized key-data length accepted")
	}
}

func TestMICSignAndVerify(t *testing.T) {
	var kck [16]byte
	copy(kck[:], "0123456789abcdef")
	k := &EAPOLKey{Info: KeyInfoTypePairwise | KeyInfoMIC, ReplayCounter: 1}
	raw := k.Sign(kck)
	if !VerifyMIC(raw, kck) {
		t.Fatal("fresh MIC does not verify")
	}
	for _, i := range []int{0, 9, micOffset + 3, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x80
		if VerifyMIC(bad, kck) {
			t.Fatalf("tampered byte %d passes MIC", i)
		}
	}
	var wrong [16]byte
	if VerifyMIC(raw, wrong) {
		t.Fatal("wrong KCK passes MIC")
	}
	if VerifyMIC(raw[:8], kck) {
		t.Fatal("truncated frame passes MIC")
	}
}

// driveHandshake runs a complete 4-way exchange and returns the PDUs.
func driveHandshake(t *testing.T, passAP, passSTA string) (pdus [][]byte, a *Authenticator, s *Supplicant, err error) {
	t.Helper()
	aa, spa := [6]byte(testAA), [6]byte(testSPA)
	var anonce, snonce [NonceLen]byte
	for i := range anonce {
		anonce[i], snonce[i] = byte(i), byte(i*7)
	}
	var gtk [GTKLen]byte
	copy(gtk[:], "group-temporal-k")
	a = NewAuthenticator(PSK(passAP, "lab-net"), aa, spa, anonce, gtk)
	s = NewSupplicant(PSK(passSTA, "lab-net"), aa, spa, snonce)

	m1 := a.Message1()
	pdus = append(pdus, m1)
	m2, err := s.Handle(m1)
	if err != nil {
		return pdus, a, s, err
	}
	pdus = append(pdus, m2)
	m3, err := a.Handle(m2)
	if err != nil {
		return pdus, a, s, err
	}
	pdus = append(pdus, m3)
	m4, err := s.Handle(m3)
	if err != nil {
		return pdus, a, s, err
	}
	pdus = append(pdus, m4)
	if _, err := a.Handle(m4); err != nil {
		return pdus, a, s, err
	}
	return pdus, a, s, nil
}

func TestFourWayHandshakeCompletes(t *testing.T) {
	pdus, a, s, err := driveHandshake(t, "hunter2hunter2", "hunter2hunter2")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Done() || !s.Done() {
		t.Fatal("handshake not done on both sides")
	}
	if a.PTK() != s.PTK() {
		t.Fatal("sides derived different PTKs")
	}
	if got := s.GTK(); string(got[:]) != "group-temporal-k" {
		t.Fatalf("GTK = %q", got)
	}
	// The paper counts "at least 8 frames" for the key exchange including
	// ACKs; the EAPOL PDUs themselves are exactly 4.
	if len(pdus) != 4 {
		t.Fatalf("handshake took %d PDUs, want 4", len(pdus))
	}
}

func TestFourWayHandshakeWrongPassphrase(t *testing.T) {
	// With mismatched PSKs the authenticator must reject M2's MIC — this
	// is where a real join with a wrong password dies.
	_, a, _, err := driveHandshake(t, "rightpassword", "wrongpassword")
	if err == nil {
		t.Fatal("handshake succeeded across different passphrases")
	}
	if a.Done() {
		t.Fatal("authenticator claims success")
	}
}

func TestHandshakeReplayedM2Rejected(t *testing.T) {
	pdus, a, _, err := driveHandshake(t, "hunter2hunter2", "hunter2hunter2")
	if err != nil {
		t.Fatal(err)
	}
	// Re-delivering M2 after completion must fail (stale replay counter /
	// state).
	if _, err := a.Handle(pdus[1]); err == nil {
		t.Fatal("replayed M2 accepted after completion")
	}
}

func TestSupplicantRejectsTamperedM3(t *testing.T) {
	aa := [6]byte{1}
	spa := [6]byte{2}
	var anonce, snonce [NonceLen]byte
	var gtk [GTKLen]byte
	a := NewAuthenticator(PSK("p@ssphrase", "x"), aa, spa, anonce, gtk)
	s := NewSupplicant(PSK("p@ssphrase", "x"), aa, spa, snonce)
	m2, err := s.Handle(a.Message1())
	if err != nil {
		t.Fatal(err)
	}
	m3, err := a.Handle(m2)
	if err != nil {
		t.Fatal(err)
	}
	m3[len(m3)-1] ^= 1 // corrupt wrapped GTK
	if _, err := s.Handle(m3); err == nil {
		t.Fatal("tampered M3 accepted")
	}
}

// BenchmarkPSKDerivation times one uncached PMK derivation; PSK itself
// would time a cache hit after the first iteration.
func BenchmarkPSKDerivation(b *testing.B) {
	pass, ssid := []byte("correct horse battery staple"), []byte("lab-net")
	for i := 0; i < b.N; i++ {
		PBKDF2SHA1(pass, ssid, 4096, PSKLen)
	}
}

func BenchmarkFourWayHandshake(b *testing.B) {
	pmk := PSK("correct horse battery staple", "lab-net")
	aa := [6]byte{1}
	spa := [6]byte{2}
	var anonce, snonce [NonceLen]byte
	var gtk [GTKLen]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewAuthenticator(pmk, aa, spa, anonce, gtk)
		s := NewSupplicant(pmk, aa, spa, snonce)
		m2, err := s.Handle(a.Message1())
		if err != nil {
			b.Fatal(err)
		}
		m3, err := a.Handle(m2)
		if err != nil {
			b.Fatal(err)
		}
		m4, err := s.Handle(m3)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Handle(m4); err != nil {
			b.Fatal(err)
		}
	}
}
