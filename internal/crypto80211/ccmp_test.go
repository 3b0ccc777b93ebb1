package crypto80211

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

// RFC 3610 Packet Vector #1: M=8, L=2, the exact CCM parameters 802.11
// CCMP uses.
func TestCCMRFC3610Vector1(t *testing.T) {
	key := fromHex(t, "c0c1c2c3c4c5c6c7c8c9cacbcccdcecf")
	nonce := fromHex(t, "00000003020100a0a1a2a3a4a5")
	aad := fromHex(t, "0001020304050607")
	plaintext := fromHex(t, "08090a0b0c0d0e0f101112131415161718191a1b1c1d1e")
	want := fromHex(t, "588c979a61c663d2f066d0c2c0f989806d5f6b61dac384"+
		"17e8d12cfdf926e0")
	got, err := CCMEncrypt(key, nonce, aad, plaintext)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("CCM encrypt:\n got %x\nwant %x", got, want)
	}
	back, err := CCMDecrypt(key, nonce, aad, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, plaintext) {
		t.Fatalf("CCM decrypt round trip: %x", back)
	}
}

// RFC 3610 Packet Vector #2 (24-byte payload → full final block).
func TestCCMRFC3610Vector2(t *testing.T) {
	key := fromHex(t, "c0c1c2c3c4c5c6c7c8c9cacbcccdcecf")
	nonce := fromHex(t, "00000004030201a0a1a2a3a4a5")
	aad := fromHex(t, "0001020304050607")
	plaintext := fromHex(t, "08090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
	want := fromHex(t, "72c91a36e135f8cf291ca894085c87e3cc15c439c9e43a3b"+
		"a091d56e10400916")
	got, err := CCMEncrypt(key, nonce, aad, plaintext)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("CCM encrypt:\n got %x\nwant %x", got, want)
	}
}

func TestCCMDetectsTampering(t *testing.T) {
	key := make([]byte, 16)
	nonce := make([]byte, 13)
	aad := []byte("header-bytes")
	sealed, err := CCMEncrypt(key, nonce, aad, []byte("the msdu"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sealed {
		bad := append([]byte(nil), sealed...)
		bad[i] ^= 0x01
		if _, err := CCMDecrypt(key, nonce, aad, bad); !errors.Is(err, ErrCCMAuth) {
			t.Fatalf("tampered byte %d: %v", i, err)
		}
	}
	// AAD binding.
	if _, err := CCMDecrypt(key, nonce, []byte("other-header"), sealed); !errors.Is(err, ErrCCMAuth) {
		t.Fatal("AAD change undetected")
	}
	// Nonce binding.
	nonce2 := append([]byte(nil), nonce...)
	nonce2[0] = 1
	if _, err := CCMDecrypt(key, nonce2, aad, sealed); !errors.Is(err, ErrCCMAuth) {
		t.Fatal("nonce change undetected")
	}
}

func TestCCMNoAAD(t *testing.T) {
	key := make([]byte, 16)
	nonce := make([]byte, 13)
	sealed, err := CCMEncrypt(key, nonce, nil, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := CCMDecrypt(key, nonce, nil, sealed)
	if err != nil || string(got) != "payload" {
		t.Fatalf("no-AAD round trip: %q, %v", got, err)
	}
}

func TestCCMBadInputs(t *testing.T) {
	key := make([]byte, 16)
	if _, err := CCMEncrypt(key, make([]byte, 12), nil, nil); err == nil {
		t.Error("12-byte nonce accepted")
	}
	if _, err := CCMDecrypt(key, make([]byte, 13), nil, make([]byte, 4)); err == nil {
		t.Error("sub-tag-length input accepted")
	}
}

func TestPropertyCCMRoundTrip(t *testing.T) {
	f := func(key [16]byte, nonce [13]byte, aad, plaintext []byte) bool {
		if len(aad) > 1000 {
			aad = aad[:1000]
		}
		if len(plaintext) > 2000 {
			plaintext = plaintext[:2000]
		}
		sealed, err := CCMEncrypt(key[:], nonce[:], aad, plaintext)
		if err != nil {
			return false
		}
		got, err := CCMDecrypt(key[:], nonce[:], aad, sealed)
		return err == nil && bytes.Equal(got, plaintext)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- CCMP session layer ---

func testMeta() CCMPFrameMeta {
	return CCMPFrameMeta{
		FC:     0x4108, // data, ToDS, Protected
		A1:     [6]byte{0xaa, 0xbb, 0xcc, 0, 0, 1},
		A2:     [6]byte{0x02, 0x57, 0, 0, 0, 1},
		A3:     [6]byte{0xaa, 0xbb, 0xcc, 0, 0, 1},
		SeqCtl: 0,
	}
}

func TestCCMPSessionRoundTrip(t *testing.T) {
	var tk [16]byte
	copy(tk[:], "temporal-key-16b")
	tx := NewCCMPSession(tk)
	rx := NewCCMPSession(tk)
	meta := testMeta()

	for i := 0; i < 5; i++ {
		msdu := []byte{byte(i), 1, 2, 3}
		body, err := tx.Encapsulate(meta, msdu)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) != len(msdu)+CCMPOverhead {
			t.Fatalf("overhead = %d", len(body)-len(msdu))
		}
		got, err := rx.Decapsulate(meta, body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msdu) {
			t.Fatalf("frame %d: %x", i, got)
		}
	}
	if tx.TxPN() != 5 {
		t.Fatalf("TxPN = %d", tx.TxPN())
	}
}

func TestCCMPReplayRejected(t *testing.T) {
	var tk [16]byte
	tx := NewCCMPSession(tk)
	rx := NewCCMPSession(tk)
	meta := testMeta()
	b1, _ := tx.Encapsulate(meta, []byte("one"))
	b2, _ := tx.Encapsulate(meta, []byte("two"))
	if _, err := rx.Decapsulate(meta, b1); err != nil {
		t.Fatal(err)
	}
	// Replaying frame 1 after frame 1 must fail.
	if _, err := rx.Decapsulate(meta, b1); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay: %v", err)
	}
	if _, err := rx.Decapsulate(meta, b2); err != nil {
		t.Fatal(err)
	}
	// Replaying an older PN after a newer one also fails.
	if _, err := rx.Decapsulate(meta, b1); !errors.Is(err, ErrReplay) {
		t.Fatalf("stale replay: %v", err)
	}
}

func TestCCMPWrongKeyFails(t *testing.T) {
	var tk1, tk2 [16]byte
	tk2[0] = 1
	tx := NewCCMPSession(tk1)
	rx := NewCCMPSession(tk2)
	body, _ := tx.Encapsulate(testMeta(), []byte("secret"))
	if _, err := rx.Decapsulate(testMeta(), body); err == nil {
		t.Fatal("wrong TK accepted")
	}
}

func TestCCMPHeaderBindsAddresses(t *testing.T) {
	var tk [16]byte
	tx := NewCCMPSession(tk)
	rx := NewCCMPSession(tk)
	meta := testMeta()
	body, _ := tx.Encapsulate(meta, []byte("data"))
	// A frame captured and re-addressed to a different BSS must fail.
	forged := meta
	forged.A1 = [6]byte{9, 9, 9, 9, 9, 9}
	if _, err := rx.Decapsulate(forged, body); err == nil {
		t.Fatal("re-addressed frame accepted")
	}
}

func TestCCMPHeaderParsing(t *testing.T) {
	h := appendCCMPHeader(nil, 0x0000123456789abc, 0)
	pn, err := parseCCMPHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	if pn != 0x123456789abc {
		t.Fatalf("PN = %012x", pn)
	}
	if _, err := parseCCMPHeader(h[:4]); err == nil {
		t.Error("short header accepted")
	}
	bad := append([]byte(nil), h...)
	bad[3] = 0 // clear ExtIV
	if _, err := parseCCMPHeader(bad); err == nil {
		t.Error("missing ExtIV accepted")
	}
}

func BenchmarkCCMPEncapsulate(b *testing.B) {
	var tk [16]byte
	s := NewCCMPSession(tk)
	meta := testMeta()
	msdu := make([]byte, 300)
	b.ReportAllocs()
	b.SetBytes(int64(len(msdu)))
	for i := 0; i < b.N; i++ {
		if _, err := s.Encapsulate(meta, msdu); err != nil {
			b.Fatal(err)
		}
	}
}
