package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wile"
	"wile/internal/dot11"
	"wile/internal/pcap"
)

// TestScanSkipsFrameFailingFCS: in a capture whose frames carry an FCS, a
// frame that fails it is skipped, never re-read as a frame without one.
// The capture holds device 0x1001's 17.00 °C beacons for seq 356, intact,
// and seq 357 with bit 0x40 of its last body byte flipped, which reads as
// 17.64 °C. Read without an FCS, that corrupted body still parses: the
// stale FCS 48 02 ab fe is taken for one more element.
func TestScanSkipsFrameFailingFCS(t *testing.T) {
	bad := beacon(t, 357)
	if fcs := bad[len(bad)-4:]; !bytes.Equal(fcs, []byte{0x48, 0x02, 0xab, 0xfe}) {
		t.Fatalf("seq 357 beacon's FCS is % x, want 48 02 ab fe", fcs)
	}
	bad[len(bad)-5] ^= 0x40
	if _, err := dot11.Decode(bad); err == nil {
		t.Fatal("the corrupted beacon passes its FCS")
	}
	out := scan(t, pcap.LinkTypeIEEE80211, beacon(t, 356), bad)
	if !strings.Contains(out, "seq=356") || strings.Contains(out, "seq=357") ||
		!strings.HasSuffix(out, "1 Wi-LE messages decoded, 1 other frames skipped\n") {
		t.Errorf("wile-scan printed:\n%s", out)
	}
}

// TestScanReadsCaptureWithoutFCS: a capture whose frames carry no FCS
// decodes in full.
func TestScanReadsCaptureWithoutFCS(t *testing.T) {
	a, b := beacon(t, 356), beacon(t, 357)
	out := scan(t, pcap.LinkTypeIEEE80211, a[:len(a)-4], b[:len(b)-4])
	if !strings.HasSuffix(out, "2 Wi-LE messages decoded, 0 other frames skipped\n") {
		t.Errorf("wile-scan printed:\n%s", out)
	}
}

// TestScanReadsRadiotapFCSFlag: a radiotap record's Flags field says
// whether its frame ends in an FCS, so a lone frame that fails its FCS is
// skipped. Read by the per-capture rule, that capture would hold no frame
// passing the check, and the corrupted seq-357 beacon of
// TestScanSkipsFrameFailingFCS would decode as 17.64 °C.
func TestScanReadsRadiotapFCSFlag(t *testing.T) {
	bad := beacon(t, 357)
	bad[len(bad)-5] ^= 0x40
	clean := beacon(t, 357)
	for _, tc := range []struct {
		name  string
		flags byte
		frame []byte
		want  string
	}{
		{"corrupted, FCS flag set", pcap.RadiotapFlagFCS, bad, "0 Wi-LE messages decoded, 1 other frames skipped\n"},
		{"intact, FCS flag set", pcap.RadiotapFlagFCS, clean, "1 Wi-LE messages decoded, 0 other frames skipped\n"},
		{"no FCS, FCS flag clear", 0, clean[:len(clean)-4], "1 Wi-LE messages decoded, 0 other frames skipped\n"},
	} {
		// Radiotap header: version, pad, length 9, present word (Flags), Flags.
		rec := append([]byte{0, 0, 9, 0, 0x02, 0, 0, 0, tc.flags}, tc.frame...)
		if out := scan(t, pcap.LinkTypeRadiotap, rec); !strings.HasSuffix(out, tc.want) {
			t.Errorf("%s: wile-scan printed:\n%s", tc.name, out)
		}
	}
}

// beacon marshals device 0x1001's channel-6 beacon for seq, one 17.00 °C
// reading, with its FCS.
func beacon(t *testing.T, seq uint16) []byte {
	t.Helper()
	msg := &wile.Message{DeviceID: 0x1001, Seq: seq, Readings: []wile.Reading{wile.Temperature(17)}}
	b, err := wile.BuildBeacon(0x1001, 6, msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := dot11.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// scan writes frames to a pcap of the given link type, runs wile-scan on
// it and returns what it printed.
func scan(t *testing.T, link pcap.LinkType, frames ...[]byte) string {
	t.Helper()
	dir := t.TempDir()
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, link)
	for _, f := range frames {
		if err := w.WritePacket(pcap.Packet{Data: f}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "capture.pcap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	saved := os.Stdout
	os.Stdout = stdout
	err = run(path, "")
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
