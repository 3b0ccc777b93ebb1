package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"wile/internal/dot11"
)

func FuzzParseFragment(f *testing.F) {
	m := &Message{DeviceID: 0x1001, Seq: 7, Readings: []Reading{Temperature(17), Battery(3000)}}
	frags, _ := m.Encode(nil)
	for _, fr := range frags {
		f.Add(fr)
	}
	key, _ := NewKey([]byte("0123456789abcdef"))
	sealed, _ := m.Encode(key)
	for _, fr := range sealed {
		f.Add(fr)
	}
	f.Add([]byte{})
	f.Add([]byte{Version, 0, 0, 0, 0, 1, 0, 1, 0x11})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseFragment(data)
		if err != nil {
			return
		}
		// A parseable single-fragment message must reassemble without
		// panicking (errors are fine — bodies are arbitrary).
		if h.Total == 1 {
			Reassemble([]*FragmentHeader{h}, nil)
		}
	})
}

func FuzzReadingsRoundTrip(f *testing.F) {
	body, _ := (&Message{Readings: []Reading{Temperature(21.5), Humidity(40), Counter(9)}}).body()
	f.Add(body)
	f.Add([]byte{1, 2, 0x08, 0x6d})
	f.Add([]byte{255, 3, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		readings, err := parseReadings(data)
		if err != nil {
			return
		}
		// Whatever parsed must re-encode and re-parse to the same values.
		var out []byte
		for _, r := range readings {
			var err error
			out, err = appendReading(out, r)
			if err != nil {
				t.Fatalf("parsed reading does not encode: %v", err)
			}
		}
		back, err := parseReadings(out)
		if err != nil {
			t.Fatalf("re-encoded readings do not parse: %v", err)
		}
		if len(back) != len(readings) {
			t.Fatalf("reading count changed: %d → %d", len(readings), len(back))
		}
		for i := range back {
			if back[i].Type != readings[i].Type || back[i].Value != readings[i].Value ||
				!bytes.Equal(back[i].Raw, readings[i].Raw) {
				t.Fatalf("reading %d changed: %+v → %+v", i, readings[i], back[i])
			}
		}
	})
}

// FuzzDecodeBeacon runs a frame through the scanner's decode path,
// dot11.Decode then DecodeBeacon, with a key for every device, so sealed
// and multi-fragment messages reach Reassemble and Key.Open. An input is a
// frame without its FCS: the target appends the FCS, so mutations reach
// the beacon decoder instead of dying at the checksum. Nothing may panic,
// and a message that decodes must come back unchanged from BuildBeacon,
// dot11.Marshal and a second decode. The seed corpus in testdata holds a
// plaintext, a sealed and a sealed multi-fragment beacon.
func FuzzDecodeBeacon(f *testing.F) {
	key, err := NewKey([]byte("0123456789abcdef"))
	if err != nil {
		f.Fatal(err)
	}
	keyFor := func(uint32) *Key { return key }
	decode := func(mpdu []byte) (*Message, *dot11.Beacon, error) {
		fr, err := dot11.Decode(mpdu)
		if err != nil {
			return nil, nil, err
		}
		b, ok := fr.(*dot11.Beacon)
		if !ok {
			return nil, nil, ErrNotWiLE
		}
		msg, err := DecodeBeacon(b, keyFor)
		return msg, b, err
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		msg, b, err := decode(binary.LittleEndian.AppendUint32(slices.Clip(frame), dot11.FCS(frame)))
		if err != nil {
			return
		}
		var sealWith *Key
		if msg.Sealed {
			sealWith = key
		}
		rebuilt, err := BuildBeacon(b.Header.Addr3, 6, msg, sealWith)
		if err != nil {
			t.Fatalf("decoded message %+v does not rebuild: %v", msg, err)
		}
		raw, err := dot11.Marshal(rebuilt)
		if err != nil {
			t.Fatalf("rebuilt beacon does not marshal: %v", err)
		}
		back, _, err := decode(raw)
		if err != nil {
			t.Fatalf("rebuilt beacon does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, msg) {
			t.Fatalf("message changed across a rebuild:\n got  %+v\n want %+v", back, msg)
		}
	})
}
