// Command wile-scan decodes Wi-LE sensor data from captured 802.11 frames —
// the "simple application" of §4 that "looks for special beacon frames
// transmitted by IoT devices and extracts their data".
//
// Input is a pcap file (wile-sensor -pcap writes one) or hex frames on
// stdin, one per line:
//
//	wile-scan capture.pcap
//	wile-sensor -n 3 -hex | grep '^8000' | wile-scan -
//
// With -key a 16-byte pre-shared key (hex) unseals encrypted messages.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"

	"wile"
	"wile/internal/capture"
	"wile/internal/dot11"
)

func main() {
	keyHex := flag.String("key", "", "16-byte pre-shared key (hex)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wile-scan [-key hex] {capture.pcap | -}")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *keyHex); err != nil {
		fmt.Fprintln(os.Stderr, "wile-scan:", err)
		os.Exit(1)
	}
}

func run(path, keyHex string) error {
	var key *wile.Key
	if keyHex != "" {
		secret, err := hex.DecodeString(keyHex)
		if err != nil {
			return fmt.Errorf("parsing -key: %w", err)
		}
		if key, err = wile.NewKey(secret); err != nil {
			return err
		}
	}
	frames, err := loadFrames(path)
	if err != nil {
		return err
	}
	keyFor := func(uint32) *wile.Key { return key }
	decoded, skipped := 0, 0
	for _, fr := range frames {
		beacon, ok := fr.Frame.(*dot11.Beacon)
		if !ok {
			skipped++
			continue
		}
		msg, err := wile.DecodeBeacon(beacon, keyFor)
		if err != nil {
			skipped++
			continue
		}
		decoded++
		fmt.Printf("t=%-12v device=%08x seq=%-4d", fr.Time, msg.DeviceID, msg.Seq)
		for _, r := range msg.Readings {
			fmt.Printf("  %s", formatReading(r))
		}
		if msg.RxWindow > 0 {
			fmt.Printf("  [rx-window %v]", msg.RxWindow)
		}
		if msg.Downlink {
			fmt.Printf("  [downlink]")
		}
		fmt.Println()
	}
	fmt.Printf("%d Wi-LE messages decoded, %d other frames skipped\n", decoded, skipped)
	return nil
}

func formatReading(r wile.Reading) string {
	switch r.Type {
	case wile.ReadingTemperature:
		return fmt.Sprintf("%.2f°C", r.Celsius())
	case wile.ReadingHumidity:
		return fmt.Sprintf("%.1f%%RH", r.Percent())
	case wile.ReadingBatteryMV:
		return fmt.Sprintf("%dmV", r.Value)
	case wile.ReadingCounter:
		return fmt.Sprintf("count=%d", r.Value)
	default:
		return fmt.Sprintf("raw=%q", r.Raw)
	}
}

// loadFrames reads the capture at path, or hex frames from stdin for "-".
func loadFrames(path string) ([]capture.Frame, error) {
	if path == "-" {
		frames, err := capture.ReadHex(os.Stdin)
		if err != nil {
			return nil, fmt.Errorf("stdin %w", err)
		}
		return frames, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return capture.ReadPcap(f)
}
