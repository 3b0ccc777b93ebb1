package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"wile"
	"wile/internal/capture"
	"wile/internal/dot11"
)

// TestSensorCapturesDecode: what wile-sensor -pcap writes, with and
// without -radiotap, reads back through the capture loader as one Wi-LE
// message per reading, in order.
func TestSensorCapturesDecode(t *testing.T) {
	for _, radiotap := range []bool{false, true} {
		channelMHz := 0 // a raw capture has no radiotap header
		if radiotap {
			channelMHz = 2437
		}
		path := filepath.Join(t.TempDir(), "sensor.pcap")
		if err := run(3, 0x1001, time.Minute, 21.5, 0.1, 6, path, radiotap, false, ""); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		frames, err := capture.ReadPcap(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) != 3 {
			t.Fatalf("radiotap=%v: %d frames, want 3", radiotap, len(frames))
		}
		for i, fr := range frames {
			b, ok := fr.Frame.(*dot11.Beacon)
			if !ok {
				t.Fatalf("radiotap=%v: frame %d is %T (%v), want a beacon", radiotap, i, fr.Frame, fr.Err)
			}
			msg, err := wile.DecodeBeacon(b, func(uint32) *wile.Key { return nil })
			if err != nil || msg.DeviceID != 0x1001 || msg.Seq != uint16(i) {
				t.Errorf("radiotap=%v: frame %d decodes to %+v, %v", radiotap, i, msg, err)
			}
			if fr.Radiotap.ChannelMHz != channelMHz {
				t.Errorf("radiotap=%v: frame %d on %d MHz, want %d", radiotap, i, fr.Radiotap.ChannelMHz, channelMHz)
			}
		}
	}
}
