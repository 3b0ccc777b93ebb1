package dot11

import (
	"bytes"
	"testing"
)

// Fuzz targets: decoders must never panic on arbitrary bytes, and every
// successfully decoded frame must re-serialize to something that decodes
// to the same kind. Seeds cover each frame family; `go test` runs the
// seeds, `go test -fuzz` explores.

func fuzzSeeds(f *testing.F) {
	add := func(fr Frame) {
		raw, err := Marshal(fr)
		if err == nil {
			f.Add(raw)
		}
	}
	ve, _ := VendorElement([3]byte{0x52, 0x49, 0x4c}, []byte("payload"))
	add(NewBeacon(MustParseMAC("02:57:00:00:00:01"), 100, CapESS,
		Elements{SSIDElement(""), DefaultRates(), DSParamElement(6), ve}))
	add(NewACK(MustParseMAC("02:57:00:00:00:01")))
	add(NewDataToAP(MustParseMAC("aa:bb:cc:00:00:01"), MustParseMAC("02:57:00:00:00:01"),
		Broadcast, []byte{0xaa, 0xaa, 0x03, 0, 0, 0, 0x08, 0x00}))
	add(NewNull(MustParseMAC("aa:bb:cc:00:00:01"), MustParseMAC("02:57:00:00:00:01"), true))
	auth := &Auth{Algorithm: AuthOpen, Seq: 1}
	auth.Header.Addr1 = MustParseMAC("aa:bb:cc:00:00:01")
	add(auth)
	add(&PSPoll{AID: 1, BSSID: MustParseMAC("aa:bb:cc:00:00:01")})
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
}

func FuzzDecode(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err != nil {
			return
		}
		// Round-trip: re-marshal and decode again; the kind must survive.
		raw, err := Marshal(fr)
		if err != nil {
			t.Fatalf("decoded frame does not marshal: %v", err)
		}
		back, err := Decode(raw)
		if err != nil {
			t.Fatalf("re-marshaled frame does not decode: %v", err)
		}
		if back.Kind() != fr.Kind() {
			t.Fatalf("kind changed: %v → %v", fr.Kind(), back.Kind())
		}
		if back.RA() != fr.RA() {
			t.Fatalf("RA changed: %v → %v", fr.RA(), back.RA())
		}
	})
}

func FuzzParseElements(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 'n', 'e', 't', 3, 1, 6})
	f.Add([]byte{221, 4, 0x52, 0x49, 0x4c, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		els, err := ParseElements(data)
		if err != nil {
			return
		}
		// Parsed elements re-serialize to the identical bytes.
		out, err := els.Append(nil)
		if err != nil {
			t.Fatalf("parsed elements do not serialize: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("element round trip changed bytes:\n in  %x\n out %x", data, out)
		}
		// Typed accessors must not panic on arbitrary element content.
		els.SSID()
		els.DSChannel()
		els.Vendor([3]byte{0x52, 0x49, 0x4c})
		if info, ok := els.Find(ElementRSN); ok {
			ParseRSN(info)
		}
		if info, ok := els.Find(ElementHTCapabilities); ok {
			ParseHTCapabilities(info)
		}
	})
}
