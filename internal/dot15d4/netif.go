package dot15d4

import (
	"blemesh/internal/coap"
	"blemesh/internal/ip6"
	"blemesh/internal/phy"
	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
	"blemesh/internal/sixlo"
)

// NetIfStats counts adapter events.
type NetIfStats struct {
	TXPackets     uint64
	RXPackets     uint64
	QueueDrops    uint64 // pktbuf or MAC queue full
	TXFailures    uint64 // MAC gave up (CCA fail / no ack)
	CompressErr   uint64
	DecompressErr uint64
	Fragmented    uint64 // packets that needed 6LoWPAN fragmentation
}

// NetIf adapts the 802.15.4 MAC to the ip6 stack: IPHC compression plus
// RFC 4944 fragmentation when a compressed packet exceeds one frame.
type NetIf struct {
	s     *sim.Sim
	stack *ip6.Stack
	mac   *MAC
	ctxs  []sixlo.Context
	reasm *sixlo.Reassembler
	tag   uint16
	stats NetIfStats
}

// NewNetIf builds the adapter and attaches it to the stack.
func NewNetIf(s *sim.Sim, stack *ip6.Stack, mac *MAC) *NetIf {
	n := &NetIf{
		s:     s,
		stack: stack,
		mac:   mac,
		ctxs:  sixlo.DefaultContexts,
		reasm: sixlo.NewReassembler(s, 8),
	}
	mac.SetReceiver(n.input)
	stack.AddInterface(n)
	return n
}

// Stats returns a copy of the adapter counters.
func (n *NetIf) Stats() NetIfStats { return n.stats }

// MTU implements ip6.NetIf: 6LoWPAN fragmentation restores the 1280-byte
// IPv6 MTU over 127-byte frames.
func (n *NetIf) MTU() int { return 1280 }

// HasNeighbor implements ip6.NetIf: the PAN is a single broadcast domain,
// every address is reachable.
func (n *NetIf) HasNeighbor(uint64) bool { return true }

// Output implements ip6.NetIf. Ownership of pkt passes to the adapter in
// every case. A packet that fits one frame rides its pooled buffer through
// the MAC untouched; a larger one goes out as RFC 4944 fragments.
func (n *NetIf) Output(mac uint64, pkt *pktbuf.Buf, pid uint64) bool {
	if err := sixlo.CompressBuf(pkt, n.mac.Addr(), mac, n.ctxs); err != nil {
		n.stats.CompressErr++
		pkt.Put()
		return false
	}
	n.tag++
	frags, err := sixlo.Fragment(pkt, MaxPayload, n.tag)
	if err != nil {
		n.stats.CompressErr++
		pkt.Put()
		return false
	}
	if len(frags) > 1 {
		n.stats.Fragmented++
	}
	// Charge the whole packet to the pktbuf until the MAC is done.
	total := 0
	for _, f := range frags {
		total += f.Len()
	}
	if !n.stack.Pktbuf.Alloc(total) {
		n.stats.QueueDrops++
		for _, f := range frags {
			f.Put()
		}
		return false
	}
	left := len(frags)
	release := func(ok bool) {
		if !ok {
			n.stats.TXFailures++
		}
		left--
		if left == 0 {
			n.stack.Pktbuf.Free(total)
		}
	}
	for _, f := range frags {
		if !n.mac.SendBuf(mac, f, pid, release) {
			n.stats.QueueDrops++
			release(false)
		}
	}
	n.stats.TXPackets++
	return true
}

// input reassembles (if fragmented), decompresses in place, and delivers.
// The provenance ID of the first fragment survives reassembly.
func (n *NetIf) input(src uint64, frame []byte, pid uint64) {
	var b *pktbuf.Buf
	if sixlo.IsFragment(frame) {
		b, pid = n.reasm.InputBufPID(src, frame, pid)
		if b == nil {
			return
		}
	} else {
		b = pktbuf.FromBytes(frame)
	}
	if err := sixlo.DecompressBuf(b, src, n.mac.Addr(), n.ctxs); err != nil {
		n.stats.DecompressErr++
		b.Put()
		return
	}
	n.stats.RXPackets++
	n.stack.InputBuf(b, pid)
}

// Node is a complete 802.15.4 node: MAC, IP stack, CoAP endpoint — the m3
// node equivalent used by the Fig. 10 comparison.
type Node struct {
	Name  string
	Sim   *sim.Sim
	MAC   *MAC
	NetIf *NetIf
	Stack *ip6.Stack
	Coap  *coap.Endpoint
}

// NewNode assembles an 802.15.4 node on the medium.
func NewNode(s *sim.Sim, medium *phy.Medium, name string, addr uint64) *Node {
	mac := NewMAC(s, medium, addr)
	stack := ip6.NewStack(s, addr)
	netif := NewNetIf(s, stack, mac)
	ep := coap.NewEndpoint(s, stack, 0)
	return &Node{Name: name, Sim: s, MAC: mac, NetIf: netif, Stack: stack, Coap: ep}
}

// Addr returns the node's mesh address.
func (n *Node) Addr() ip6.Addr { return n.Stack.GlobalAddr() }

// AddHostRoute installs a host route to dst via nextHop.
func (n *Node) AddHostRoute(dst, nextHop *Node) {
	_ = n.Stack.AddRoute(ip6.Route{Dst: dst.Addr(), PrefixLen: 128, NextHop: nextHop.Addr()})
}
