package crypto80211

import (
	"bytes"
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
