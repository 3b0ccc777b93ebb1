package netstack

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"
)

// DHCP (RFC 2131) — the four-message DISCOVER/OFFER/REQUEST/ACK exchange a
// reconnecting WiFi-DC client runs on every wake. Figure 3a's long 20–30 mA
// plateau is mostly the client idling in automatic light sleep while it
// waits for these messages.

// DHCPOp is the BOOTP op field.
type DHCPOp uint8

// BOOTP ops.
const (
	BootRequest DHCPOp = 1
	BootReply   DHCPOp = 2
)

// DHCPType is option 53, the DHCP message type.
type DHCPType uint8

// DHCP message types.
const (
	DHCPDiscover DHCPType = 1
	DHCPOffer    DHCPType = 2
	DHCPRequest  DHCPType = 3
	DHCPDecline  DHCPType = 4
	DHCPAck      DHCPType = 5
	DHCPNak      DHCPType = 6
	DHCPRelease  DHCPType = 7
)

// DHCP option codes used by this stack.
const (
	OptSubnetMask   = 1
	OptRouter       = 3
	OptDNS          = 6
	OptRequestedIP  = 50
	OptLeaseTime    = 51
	OptMessageType  = 53
	OptServerID     = 54
	OptParamRequest = 55
	OptEnd          = 255
)

var dhcpMagic = [4]byte{99, 130, 83, 99}

// UDP ports.
const (
	DHCPServerPort = 67
	DHCPClientPort = 68
)

// DHCPOption is one TLV option.
type DHCPOption struct {
	Code byte
	Data []byte
}

// DHCP is a decoded DHCP message.
type DHCP struct {
	Op      DHCPOp
	XID     uint32
	Secs    uint16
	Flags   uint16
	CIAddr  IP // client's current address
	YIAddr  IP // "your" address (assigned)
	SIAddr  IP // next server
	GIAddr  IP // relay
	CHAddr  [6]byte
	Options []DHCPOption
}

const dhcpFixedLen = 236 + 4 // BOOTP fields + magic

// Append serializes the message.
func (d *DHCP) Append(dst []byte) []byte {
	dst = append(dst, byte(d.Op), 1, 6, 0) // htype Ethernet, hlen 6, hops 0
	dst = binary.BigEndian.AppendUint32(dst, d.XID)
	dst = binary.BigEndian.AppendUint16(dst, d.Secs)
	dst = binary.BigEndian.AppendUint16(dst, d.Flags)
	dst = append(dst, d.CIAddr[:]...)
	dst = append(dst, d.YIAddr[:]...)
	dst = append(dst, d.SIAddr[:]...)
	dst = append(dst, d.GIAddr[:]...)
	dst = append(dst, d.CHAddr[:]...)
	dst = append(dst, make([]byte, 10)...)  // chaddr padding
	dst = append(dst, make([]byte, 64)...)  // sname
	dst = append(dst, make([]byte, 128)...) // file
	dst = append(dst, dhcpMagic[:]...)
	for _, o := range d.Options {
		dst = append(dst, o.Code, byte(len(o.Data)))
		dst = append(dst, o.Data...)
	}
	return append(dst, OptEnd)
}

// ParseDHCP decodes a DHCP message.
func ParseDHCP(b []byte) (*DHCP, error) {
	if len(b) < dhcpFixedLen {
		return nil, fmt.Errorf("netstack: DHCP too short: %d bytes", len(b))
	}
	if !bytes.Equal(b[236:240], dhcpMagic[:]) {
		return nil, fmt.Errorf("netstack: DHCP magic cookie missing")
	}
	d := &DHCP{
		Op:    DHCPOp(b[0]),
		XID:   binary.BigEndian.Uint32(b[4:]),
		Secs:  binary.BigEndian.Uint16(b[8:]),
		Flags: binary.BigEndian.Uint16(b[10:]),
	}
	copy(d.CIAddr[:], b[12:16])
	copy(d.YIAddr[:], b[16:20])
	copy(d.SIAddr[:], b[20:24])
	copy(d.GIAddr[:], b[24:28])
	copy(d.CHAddr[:], b[28:34])
	opts := b[240:]
	for len(opts) > 0 {
		code := opts[0]
		if code == OptEnd {
			break
		}
		if code == 0 { // pad
			opts = opts[1:]
			continue
		}
		if len(opts) < 2 {
			return nil, fmt.Errorf("netstack: DHCP option %d truncated", code)
		}
		n := int(opts[1])
		if len(opts) < 2+n {
			return nil, fmt.Errorf("netstack: DHCP option %d claims %d bytes, have %d", code, n, len(opts)-2)
		}
		d.Options = append(d.Options, DHCPOption{Code: code, Data: opts[2 : 2+n]})
		opts = opts[2+n:]
	}
	return d, nil
}

// Option returns the first option with the given code.
func (d *DHCP) Option(code byte) ([]byte, bool) {
	for _, o := range d.Options {
		if o.Code == code {
			return o.Data, true
		}
	}
	return nil, false
}

// Type returns the message type from option 53.
func (d *DHCP) Type() (DHCPType, bool) {
	data, ok := d.Option(OptMessageType)
	if !ok || len(data) != 1 {
		return 0, false
	}
	return DHCPType(data[0]), true
}

// typeOption builds option 53.
func typeOption(t DHCPType) DHCPOption {
	return DHCPOption{Code: OptMessageType, Data: []byte{byte(t)}}
}

// ipOption builds a 4-byte IP option.
func ipOption(code byte, ip IP) DHCPOption {
	return DHCPOption{Code: code, Data: append([]byte(nil), ip[:]...)}
}

// NewDiscover builds a DHCPDISCOVER for the given client hardware address.
func NewDiscover(xid uint32, chaddr [6]byte) *DHCP {
	return &DHCP{
		Op: BootRequest, XID: xid, Flags: 0x8000 /* broadcast */, CHAddr: chaddr,
		Options: []DHCPOption{
			typeOption(DHCPDiscover),
			{Code: OptParamRequest, Data: []byte{OptSubnetMask, OptRouter, OptDNS}},
		},
	}
}

// NewRequest builds a DHCPREQUEST accepting offer.
func NewRequest(offer *DHCP) *DHCP {
	req := &DHCP{
		Op: BootRequest, XID: offer.XID, Flags: 0x8000, CHAddr: offer.CHAddr,
		Options: []DHCPOption{
			typeOption(DHCPRequest),
			ipOption(OptRequestedIP, offer.YIAddr),
		},
	}
	if sid, ok := offer.Option(OptServerID); ok && len(sid) == 4 {
		req.Options = append(req.Options, DHCPOption{Code: OptServerID, Data: append([]byte(nil), sid...)})
	}
	return req
}

// DHCPServer hands out addresses from a /24 pool, mirroring the Google
// WiFi AP's built-in server.
type DHCPServer struct {
	// ServerIP is the server (and router) address.
	ServerIP IP
	// Mask is the subnet mask.
	Mask IP
	// Lease is the offered lease duration.
	Lease time.Duration

	nextHost byte
	leases   map[[6]byte]IP
}

// NewDHCPServer builds a server for serverIP's /24.
func NewDHCPServer(serverIP IP) *DHCPServer {
	return &DHCPServer{
		ServerIP: serverIP,
		Mask:     IP{255, 255, 255, 0},
		Lease:    24 * time.Hour,
		nextHost: 100,
		leases:   make(map[[6]byte]IP),
	}
}

// lookupOrAssign finds or creates a lease for chaddr.
func (s *DHCPServer) lookupOrAssign(chaddr [6]byte) IP {
	if ip, ok := s.leases[chaddr]; ok {
		return ip
	}
	ip := s.ServerIP
	ip[3] = s.nextHost
	s.nextHost++
	s.leases[chaddr] = ip
	return ip
}

// Handle consumes a client message and returns the server's reply, or nil
// for messages that need none.
func (s *DHCPServer) Handle(msg *DHCP) *DHCP {
	t, ok := msg.Type()
	if !ok || msg.Op != BootRequest {
		return nil
	}
	common := func(t DHCPType, ip IP) *DHCP {
		lease := uint32(s.Lease / time.Second)
		var leaseBytes [4]byte
		binary.BigEndian.PutUint32(leaseBytes[:], lease)
		return &DHCP{
			Op: BootReply, XID: msg.XID, Flags: msg.Flags,
			YIAddr: ip, SIAddr: s.ServerIP, CHAddr: msg.CHAddr,
			Options: []DHCPOption{
				typeOption(t),
				ipOption(OptServerID, s.ServerIP),
				{Code: OptLeaseTime, Data: leaseBytes[:]},
				ipOption(OptSubnetMask, s.Mask),
				ipOption(OptRouter, s.ServerIP),
				ipOption(OptDNS, s.ServerIP),
			},
		}
	}
	switch t {
	case DHCPDiscover:
		return common(DHCPOffer, s.lookupOrAssign(msg.CHAddr))
	case DHCPRequest:
		want, ok := msg.Option(OptRequestedIP)
		assigned := s.lookupOrAssign(msg.CHAddr)
		if ok && len(want) == 4 && (IP{want[0], want[1], want[2], want[3]}) != assigned {
			nak := common(DHCPNak, IPZero)
			nak.Options = nak.Options[:2] // type + server id only
			return nak
		}
		return common(DHCPAck, assigned)
	case DHCPRelease:
		delete(s.leases, msg.CHAddr)
		return nil
	}
	return nil
}

// DHCPClient drives the client half of the exchange. The caller feeds it
// received messages and transmits the messages it returns.
type DHCPClient struct {
	xid    uint32
	chaddr [6]byte
	// Assigned is the leased address; valid once Done.
	Assigned IP
	// Router is the default gateway from the ACK.
	Router IP
	state  int // 0 idle, 1 discovering, 2 requesting, 3 bound
}

// NewDHCPClient builds a client for the given hardware address.
func NewDHCPClient(xid uint32, chaddr [6]byte) *DHCPClient {
	return &DHCPClient{xid: xid, chaddr: chaddr}
}

// Discover produces the initial DISCOVER.
func (c *DHCPClient) Discover() *DHCP {
	c.state = 1
	return NewDiscover(c.xid, c.chaddr)
}

// Handle consumes a server message and returns the client's next message,
// or nil when the exchange is complete (or the message is not for us).
func (c *DHCPClient) Handle(msg *DHCP) (*DHCP, error) {
	if msg.XID != c.xid || msg.Op != BootReply || msg.CHAddr != c.chaddr {
		return nil, nil // not ours; ignore silently like a real client
	}
	t, ok := msg.Type()
	if !ok {
		return nil, fmt.Errorf("netstack: DHCP reply without message type")
	}
	switch {
	case c.state == 1 && t == DHCPOffer:
		c.state = 2
		return NewRequest(msg), nil
	case c.state == 2 && t == DHCPAck:
		c.state = 3
		c.Assigned = msg.YIAddr
		if r, ok := msg.Option(OptRouter); ok && len(r) == 4 {
			c.Router = IP{r[0], r[1], r[2], r[3]}
		}
		return nil, nil
	case c.state == 2 && t == DHCPNak:
		c.state = 0
		return nil, fmt.Errorf("netstack: DHCP NAK")
	}
	return nil, nil
}

// Done reports whether the client holds a lease.
func (c *DHCPClient) Done() bool { return c.state == 3 }
