package crypto80211

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzParseEAPOLKey feeds the EAPOL-Key decoder arbitrary bytes: any radio
// in range can transmit an EAPOL frame, so the decoder and what receivers
// do next with a decoded key (MIC check, GTK unwrap) must never panic. A
// key the decoder accepts must survive Append and a second parse
// unchanged. The seed corpus in testdata/fuzz holds the four PDUs of a
// real 4-way handshake.
func FuzzParseEAPOLKey(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var kck, kek [16]byte
		VerifyMIC(data, kck)
		k, err := ParseEAPOLKey(data)
		if err != nil {
			return
		}
		_, _ = KeyUnwrap(kek[:], k.KeyData) // garbage must fail cleanly, not panic
		raw := k.Append(nil)
		back, err := ParseEAPOLKey(raw)
		if err != nil {
			t.Fatalf("re-serialized key does not parse: %v\n in  %x\n out %x", err, data, raw)
		}
		if !reflect.DeepEqual(back, k) {
			t.Fatalf("key changed across Append and parse:\n got  %+v\n want %+v", back, k)
		}
		if again := back.Append(nil); !bytes.Equal(again, raw) {
			t.Fatalf("serialization not canonical:\n first  %x\n second %x", raw, again)
		}
	})
}

// fuzzTK is the temporal key behind the FuzzCCMPDecapsulate seed corpus.
var fuzzTK = [16]byte([]byte("temporal-key-16b"))

// FuzzCCMPDecapsulate feeds CCMP decapsulation arbitrary frame bodies: any
// radio in range can send a protected data frame, so a forged, truncated
// or replayed body must fail cleanly, never panic. A body that verifies
// must fail with ErrReplay when it arrives again. Taken as plaintext, the
// input must survive Encapsulate, decapsulate once to itself, and fail
// with ErrReplay on replay. The seed corpus in testdata/fuzz holds
// Encapsulate output under fuzzTK and testMeta.
func FuzzCCMPDecapsulate(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		meta := testMeta()
		rx := NewCCMPSession(fuzzTK)
		if _, err := rx.Decapsulate(meta, body); err == nil {
			if _, err := rx.Decapsulate(meta, body); !errors.Is(err, ErrReplay) {
				t.Fatalf("replayed body %x: err = %v, want ErrReplay", body, err)
			}
		}

		tx, rx := NewCCMPSession(fuzzTK), NewCCMPSession(fuzzTK)
		sealed, err := tx.Encapsulate(meta, body)
		if err != nil {
			t.Fatalf("Encapsulate: %v", err)
		}
		plain, err := rx.Decapsulate(meta, sealed)
		if err != nil {
			t.Fatalf("sealed body does not decapsulate: %v", err)
		}
		if !bytes.Equal(plain, body) {
			t.Fatalf("round trip changed the MSDU:\n got  %x\n want %x", plain, body)
		}
		if _, err := rx.Decapsulate(meta, sealed); !errors.Is(err, ErrReplay) {
			t.Fatalf("replayed sealed body: err = %v, want ErrReplay", err)
		}
	})
}
