package dot11

import (
	"bytes"
	"reflect"
	"testing"
)

func TestElementListRoundTrip(t *testing.T) {
	els := Elements{
		SSIDElement("net"),
		DefaultRates(),
		DSParamElement(11),
		{ID: ElementERP, Info: []byte{0x04}},
	}
	raw, err := els.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseElements(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, els) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, els)
	}
}

func TestElementTooLong(t *testing.T) {
	if _, err := AppendElement(nil, ElementSSID, make([]byte, 256)); err == nil {
		t.Fatal("256-byte element accepted")
	}
	if _, err := VendorElement([3]byte{1, 2, 3}, make([]byte, MaxVendorData+1)); err == nil {
		t.Fatal("oversized vendor payload accepted")
	}
	// The boundary case must succeed.
	if _, err := VendorElement([3]byte{1, 2, 3}, make([]byte, MaxVendorData)); err != nil {
		t.Fatalf("max-size vendor payload rejected: %v", err)
	}
}

func TestParseElementsTruncated(t *testing.T) {
	for _, raw := range [][]byte{
		{0},          // header cut short
		{0, 5, 1, 2}, // claims 5 info bytes, has 2
	} {
		if _, err := ParseElements(raw); !ErrTruncated(err) {
			t.Errorf("ParseElements(%x) = %v, want truncated", raw, err)
		}
	}
	// Empty list is valid.
	if got, err := ParseElements(nil); err != nil || len(got) != 0 {
		t.Errorf("empty list: %v, %v", got, err)
	}
}

func TestVendorsMultiple(t *testing.T) {
	oui := [3]byte{0x57, 0x49, 0x4c}
	other := [3]byte{0x00, 0x50, 0xf2}
	v1, _ := VendorElement(oui, []byte("one"))
	v2, _ := VendorElement(other, []byte("wps"))
	v3, _ := VendorElement(oui, []byte("two"))
	els := Elements{v1, v2, v3}
	got := els.Vendors(oui)
	if len(got) != 2 || string(got[0]) != "one" || string(got[1]) != "two" {
		t.Fatalf("Vendors = %q", got)
	}
	first, ok := els.Vendor(oui)
	if !ok || string(first) != "one" {
		t.Fatalf("Vendor = %q, %v", first, ok)
	}
	if _, ok := els.Vendor([3]byte{9, 9, 9}); ok {
		t.Fatal("found vendor data for unknown OUI")
	}
}

func TestTIMEmpty(t *testing.T) {
	// The standard's minimum: DTIM count, DTIM period, bitmap control 0
	// and one empty bitmap byte.
	e := TIMElement(1, 3)
	if e.ID != ElementTIM || !bytes.Equal(e.Info, []byte{1, 3, 0, 0}) {
		t.Fatalf("empty TIM = %d %x, want %d 01030000", e.ID, e.Info, ElementTIM)
	}
}

func TestRSNRoundTrip(t *testing.T) {
	r := RSN{
		Version:         1,
		GroupCipher:     CipherTKIP,
		PairwiseCiphers: []uint32{CipherCCMP, CipherTKIP},
		AKMs:            []uint32{AKMPSK},
		Capabilities:    0x000c,
	}
	got, err := ParseRSN(RSNElement(r).Info)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("RSN round trip:\n got %+v\nwant %+v", got, r)
	}
}

func TestParseRSNTruncated(t *testing.T) {
	full := RSNElement(DefaultRSN()).Info
	for _, n := range []int{0, 4, 7, 9, 13} {
		if n > len(full) {
			continue
		}
		if _, err := ParseRSN(full[:n]); err == nil {
			t.Errorf("ParseRSN of %d-byte prefix succeeded", n)
		}
	}
}

func TestDefaultRSNIsWPA2PSKCCMP(t *testing.T) {
	r := DefaultRSN()
	if r.GroupCipher != CipherCCMP || len(r.PairwiseCiphers) != 1 ||
		r.PairwiseCiphers[0] != CipherCCMP || len(r.AKMs) != 1 || r.AKMs[0] != AKMPSK {
		t.Fatalf("DefaultRSN = %+v", r)
	}
}

func TestVendorElementLayout(t *testing.T) {
	oui := [3]byte{0xaa, 0xbb, 0xcc}
	e, err := VendorElement(oui, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != ElementVendor {
		t.Fatalf("ID = %d", e.ID)
	}
	if !bytes.Equal(e.Info, []byte{0xaa, 0xbb, 0xcc, 1, 2, 3}) {
		t.Fatalf("info = %x", e.Info)
	}
}

func TestFindMissing(t *testing.T) {
	els := Elements{SSIDElement("x")}
	if _, ok := els.Find(ElementTIM); ok {
		t.Fatal("found absent element")
	}
	if _, ok := els.DSChannel(); ok {
		t.Fatal("found absent channel")
	}
}

func TestHTCapabilitiesRoundTrip(t *testing.T) {
	c := SingleStreamHTCapabilities()
	got, err := ParseHTCapabilities(HTCapabilitiesElement(c).Info)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ShortGI20 {
		t.Error("short GI lost")
	}
	for mcs := 0; mcs <= 7; mcs++ {
		if !got.SupportsMCS(mcs) {
			t.Errorf("MCS %d not supported", mcs)
		}
	}
	for _, mcs := range []int{8, 15, 76, 77, -1} {
		if got.SupportsMCS(mcs) {
			t.Errorf("MCS %d spuriously supported", mcs)
		}
	}
	if len(HTCapabilitiesElement(c).Info) != 26 {
		t.Errorf("HT cap element is %d bytes", len(HTCapabilitiesElement(c).Info))
	}
}

func TestHTOperationRoundTrip(t *testing.T) {
	o := HTOperation{PrimaryChannel: 6}
	o.BasicMCSSet[0] = 0xff
	got, err := ParseHTOperation(HTOperationElement(o).Info)
	if err != nil {
		t.Fatal(err)
	}
	if got.PrimaryChannel != 6 || got.BasicMCSSet[0] != 0xff {
		t.Fatalf("round trip: %+v", got)
	}
	if len(HTOperationElement(o).Info) != 22 {
		t.Errorf("HT op element is %d bytes", len(HTOperationElement(o).Info))
	}
}

func TestHTParseTruncated(t *testing.T) {
	if _, err := ParseHTCapabilities(make([]byte, 10)); !ErrTruncated(err) {
		t.Error("short HT caps accepted")
	}
	if _, err := ParseHTOperation(make([]byte, 10)); !ErrTruncated(err) {
		t.Error("short HT op accepted")
	}
}
