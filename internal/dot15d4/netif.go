package dot15d4

import (
	"blemesh/internal/ip6"
	"blemesh/internal/pktbuf"
	"blemesh/internal/sixlo"
)

// NetIfStats counts adapter events.
type NetIfStats struct {
	TXPackets     uint64
	RXPackets     uint64
	QueueDrops    uint64 // pktbuf or MAC queue full
	CompressErr   uint64
	DecompressErr uint64
	Oversize      uint64 // compressed packet larger than one frame
}

// NetIf adapts the 802.15.4 MAC to the ip6 stack with IPHC compression.
// There is no RFC 4944 fragmentation: the paper sizes its packets to fit
// one frame (§4.3), and a packet that does not is dropped.
type NetIf struct {
	stack *ip6.Stack
	mac   *MAC
	ctxs  []sixlo.Context
	stats NetIfStats
}

// NewNetIf builds the adapter and attaches it to the stack.
func NewNetIf(stack *ip6.Stack, mac *MAC) *NetIf {
	n := &NetIf{
		stack: stack,
		mac:   mac,
		ctxs:  sixlo.DefaultContexts,
	}
	mac.SetReceiver(n)
	stack.AddInterface(n)
	return n
}

// Stats returns a copy of the adapter counters.
func (n *NetIf) Stats() NetIfStats { return n.stats }

// HasNeighbor implements ip6.NetIf: the PAN is a single broadcast domain,
// every address is reachable.
func (n *NetIf) HasNeighbor(uint64) bool { return true }

// Output implements ip6.NetIf. Ownership of pkt passes to the adapter in
// every case. The compressed packet rides its pooled buffer through the MAC
// untouched; one larger than a frame's payload is dropped.
func (n *NetIf) Output(mac uint64, pkt *pktbuf.Buf, pid uint64) bool {
	if err := sixlo.CompressBuf(pkt, n.mac.Addr(), mac, n.ctxs); err != nil {
		n.stats.CompressErr++
		pkt.Put()
		return false
	}
	size := pkt.Len()
	if size > MaxPayload {
		n.stats.Oversize++
		pkt.Put()
		return false
	}
	// Charge the packet to the pktbuf on its buffer, which the MAC puts
	// when it is done with the frame.
	if !n.stack.Pktbuf.Alloc(size) {
		n.stats.QueueDrops++
		pkt.Put()
		return false
	}
	pkt.Charge(&n.stack.Pktbuf, size)
	if !n.mac.SendBuf(mac, pkt, pid) {
		n.stats.QueueDrops++
		return false
	}
	n.stats.TXPackets++
	return true
}

// Receive implements Receiver: it decompresses a received frame in a pooled
// copy and delivers it to the stack.
func (n *NetIf) Receive(src uint64, frame []byte, pid uint64) {
	b := pktbuf.FromBytes(frame)
	if err := sixlo.DecompressBuf(b, src, n.mac.Addr(), n.ctxs); err != nil {
		n.stats.DecompressErr++
		b.Put()
		return
	}
	n.stats.RXPackets++
	n.stack.InputBuf(b, pid)
}
