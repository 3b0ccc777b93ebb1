package experiment

import (
	"fmt"
	"io"
	"sort"
	"time"

	"wile/internal/dot11"
	"wile/internal/medium"
	"wile/internal/netstack"
	"wile/internal/pcap"
	"wile/internal/sim"
)

// ClaimsResult checks the §3.1 protocol-cost claims against the simulated
// join, counting every frame on the air with a monitor-mode receiver.
type ClaimsResult struct {
	// ByKind counts non-beacon frames by kind during the join.
	ByKind map[string]int
	// MACLayerFrames is the §3.1 "20 MAC-layer frames" count: everything
	// on the air during the join except AP beacons and the higher-layer
	// data frames.
	MACLayerFrames int
	// FourWayFrames is the 802.1X exchange size including ACKs
	// (paper: "at least 8 frames").
	FourWayFrames int
	// HigherLayerFrames is the DHCP+ARP count (paper: 7). With CCMP
	// active these frames are encrypted on the air, so the monitor counts
	// protected data frames — during a join the only protected
	// client↔AP traffic is the DHCP/ARP exchange.
	HigherLayerFrames int
	// GroupRelays counts the AP's GTK-protected re-broadcasts of the
	// client's broadcast ARPs — distribution-system traffic the paper's
	// per-client count does not include.
	GroupRelays int
	EAPOLFrames int
	// BeaconsDuringJoin counts the AP beacons that also occupied the
	// channel while the client joined.
	BeaconsDuringJoin int
	Run
}

// RunClaims joins once under a monitor and tallies the § 3.1 counts.
func RunClaims() (*ClaimsResult, error) { return newWiFiBed(nil).claims() }

// claims runs the join under a monitor on the bed (see RunClaims).
func (b *wifiBed) claims() (*ClaimsResult, error) {
	res := &ClaimsResult{ByKind: map[string]int{}}
	b.monitor(func(f dot11.Frame, _ medium.Reception) {
		if b.sta.Joined() {
			return // the join's frames only
		}
		kind := f.Kind().String()
		if kind == "beacon" {
			res.BeaconsDuringJoin++
			return
		}
		res.ByKind[kind]++
		d, ok := f.(*dot11.Data)
		if !ok || len(d.Payload) == 0 {
			return
		}
		if d.Header.FC.Protected {
			if d.Header.FC.FromDS && d.RA().IsGroup() {
				// The AP re-broadcasting the client's ARPs under the GTK:
				// BSS housekeeping, not part of the client's join cost.
				res.GroupRelays++
				return
			}
			// CCMP ciphertext: during a join, necessarily DHCP or ARP.
			res.HigherLayerFrames++
			return
		}
		if et, _, err := netstack.UnwrapSNAP(d.Payload); err == nil && et == netstack.EtherTypeEAPOL {
			res.EAPOLFrames++
		}
	})

	if err := b.join("claims", 5*sim.Second); err != nil {
		return nil, err
	}
	res.Run = b.run()

	total := 0
	for _, v := range res.ByKind {
		total += v
	}
	// Every higher-layer frame is unicast and therefore ACKed; the paper's
	// "20 MAC-layer frames" excludes the network-layer exchange entirely,
	// so both the frames and their ACKs come out of the MAC-layer count,
	// as do the AP's unACKed group relays.
	res.MACLayerFrames = total - 2*res.HigherLayerFrames - res.GroupRelays
	// EAPOL data frames are each ACKed; their ACKs are inside ByKind["ack"].
	res.FourWayFrames = res.EAPOLFrames + res.EAPOLFrames
	return res, nil
}

// Render prints the claim check.
func (c *ClaimsResult) Render(w io.Writer) {
	fmt.Fprintln(w, "§3.1 claim check: frames to establish an 802.11 connection")
	fmt.Fprintln(w, "------------------------------------------------------------")
	kinds := make([]string, 0, len(c.ByKind))
	for k := range c.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-12s %3d\n", k, c.ByKind[k])
	}
	fmt.Fprintln(w, "------------------------------------------------------------")
	fmt.Fprintf(w, "MAC-layer frames:      %2d   (paper: \"these 20 MAC-layer frames\";\n", c.MACLayerFrames)
	fmt.Fprintf(w, "                             our broadcast probe draws no ACK → 19)\n")
	fmt.Fprintf(w, "802.1X exchange:       %2d   (paper: \"at least 8 frames\")\n", c.FourWayFrames)
	fmt.Fprintf(w, "Higher-layer frames:   %2d   (paper: 7, \"including DHCP and ARP\";\n", c.HigherLayerFrames)
	fmt.Fprintf(w, "                             CCMP-encrypted on the air: 4 DHCP + 3 ARP)\n")
	fmt.Fprintf(w, "AP beacons meanwhile:  %2d\n", c.BeaconsDuringJoin)
}

// RunJoinCapture records the complete Figure-3a join as a pcap packet
// list — every beacon, management frame, EAPOL message, ACK and
// CCMP-protected data frame as raw bytes with timestamps. Feed the output
// to cmd/wile-dump or any pcap tool.
func RunJoinCapture() ([]pcap.Packet, error) { return newWiFiBed(nil).capture() }

// capture records the join on the bed (see RunJoinCapture).
func (b *wifiBed) capture() ([]pcap.Packet, error) {
	var packets []pcap.Packet
	b.monitor(func(_ dot11.Frame, rx medium.Reception) {
		packets = append(packets, pcap.Packet{
			Time: b.sched.Now().Sub(0),
			Data: append([]byte(nil), rx.Data...),
		})
	})

	if err := b.join("capture", 2*sim.Second); err != nil {
		return nil, err
	}
	// One sensor reading on top, so the capture ends with app data.
	if err := b.sta.SendReading([]byte("temp=17.0"), 5683, nil); err != nil {
		return nil, fmt.Errorf("experiment: capture send: %w", err)
	}
	b.sched.RunFor(100 * time.Millisecond)
	return packets, nil
}
