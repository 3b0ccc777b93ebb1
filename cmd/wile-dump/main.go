// Command wile-dump prints every 802.11 frame in a pcap capture, one line
// per frame in tcpdump style, with Wi-LE message contents decoded inline —
// the debugging loupe for anything the other tools produce.
//
// Usage:
//
//	wile-sensor -n 3 -pcap cap.pcap && wile-dump cap.pcap
//	wile-dump -key <hex> cap.pcap        # unseal encrypted Wi-LE payloads
//
// Raw (LINKTYPE_IEEE80211) and radiotap captures are both accepted; for
// radiotap the rate/channel metadata is shown when present.
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
	keyHex := flag.String("key", "", "16-byte pre-shared key (hex) for sealed Wi-LE payloads")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wile-dump [-key hex] capture.pcap")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *keyHex); err != nil {
		fmt.Fprintln(os.Stderr, "wile-dump:", err)
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
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	frames, err := capture.ReadPcap(f)
	if err != nil {
		return err
	}
	keyFor := func(uint32) *wile.Key { return key }
	undecoded := 0
	for _, fr := range frames {
		if fr.Err != nil {
			undecoded++
			fmt.Printf("%-12v undecodable %d-byte frame: %v\n", fr.Time, len(fr.Data), fr.Err)
			continue
		}
		meta := ""
		if rt := fr.Radiotap; rt.RateKbps > 0 {
			meta = fmt.Sprintf(" (%.1f Mb/s, %d MHz)", float64(rt.RateKbps)/1000, rt.ChannelMHz)
		}
		fmt.Printf("%-12v %s%s\n", fr.Time, dot11.Summarize(fr.Frame), meta)
		// Inline Wi-LE decode for beacons that carry our elements; foreign
		// beacons and undecryptable payloads stay as their summary line.
		if b, ok := fr.Frame.(*dot11.Beacon); ok {
			if msg, err := wile.DecodeBeacon(b, keyFor); err == nil {
				fmt.Printf("%12s └─ wile device=%08x seq=%d readings=%d%s\n",
					"", msg.DeviceID, msg.Seq, len(msg.Readings), wileFlags(msg))
			}
		}
	}
	fmt.Printf("%d frames, %d undecodable\n", len(frames), undecoded)
	return nil
}

func wileFlags(m *wile.Message) string {
	out := ""
	if m.RxWindow > 0 {
		out += fmt.Sprintf(" rx-window=%v", m.RxWindow)
	}
	if m.Downlink {
		out += " downlink"
	}
	return out
}
