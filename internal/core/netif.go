// Package core is the platform glue — the equivalent of the paper's
// nimble_netif module (§3): it exposes BLE L2CAP connection-oriented
// channels as a 6LoWPAN link layer to the IP stack, forwarding IP packets
// between the stack and the per-neighbor IPSP channels, with IPHC
// compression on the wire and GNRC-pktbuf-accounted interface queues.
//
// The package also assembles complete nodes (radio, clock, controller,
// statconn manager, netif, IP stack, CoAP endpoint) and provides the
// analytic connection-shading model of §6.2.
package core

import (
	"fmt"
	"slices"
	"sort"

	"blemesh/internal/ble"
	"blemesh/internal/gatt"
	"blemesh/internal/ip6"
	"blemesh/internal/l2cap"
	"blemesh/internal/pktbuf"
	"blemesh/internal/ring"
	"blemesh/internal/sim"
	"blemesh/internal/sixlo"
	"blemesh/internal/trace"
)

// NetIfStats counts adapter-level events.
type NetIfStats struct {
	TXPackets     uint64 `metric:"tx_packets"`  // IPv6 packets handed to L2CAP
	RXPackets     uint64 `metric:"rx_packets"`  // IPv6 packets delivered to the stack
	QueueDrops    uint64 `metric:"queue_drops"` // pktbuf full: packet rejected
	LinkDrops     uint64 `metric:"link_drops"`  // queue flushed because the link died
	IPSSRefused   uint64 // peers whose GATT database lacked the IPSS
	CompressErr   uint64
	DecompressErr uint64
}

// link is the per-neighbor state: one BLE connection, its L2CAP endpoint,
// the ATT mux with the IPSS database, and the IPSP channel once open. It is
// also the endpoint's l2cap.Server, the channel's l2cap.ChannelEvents and the
// coordinator's gatt.Client, so the upcalls of a link end allocate nothing
// beyond it.
type link struct {
	n       *NetIf
	conn    *ble.Conn
	ep      *l2cap.Endpoint
	att     *gatt.ATT
	ch      *l2cap.Channel
	queue   ring.Ring[outFrame] // compressed frames awaiting the channel, pktbuf-charged
	peerMAC uint64
}

// outFrame is one queued compressed frame (in its pooled buffer) with the
// provenance ID of the packet it carries.
type outFrame struct {
	buf *pktbuf.Buf
	pid uint64
}

// NetIf adapts BLE+L2CAP to the ip6.NetIf interface.
type NetIf struct {
	s     *sim.Sim
	stack *ip6.Stack
	mac   uint64
	ctxs  []sixlo.Context
	// links is the neighbor table: a short slice scanned linearly — a BLE
	// node sustains a handful of links.
	links []*link
	stats NetIfStats
	tr    *trace.Log
	node  string
}

// ipssDB is the GATT/IPSS attribute database every node serves. A
// gatt.Server never changes after construction, so one instance is shared by
// all nodes of all networks, including across goroutines.
var ipssDB = gatt.NewServer(gatt.UUIDIPSS)

// SetTrace wires the adapter to a shared trace log (for link-down drop
// records), emitting under the given node name.
func (n *NetIf) SetTrace(l *trace.Log, node string) {
	n.tr = l
	n.node = node
}

// NewNetIf creates the adapter and attaches it to the stack.
func NewNetIf(s *sim.Sim, stack *ip6.Stack) *NetIf {
	n := &NetIf{
		s:     s,
		stack: stack,
		mac:   stack.MAC(),
		ctxs:  sixlo.DefaultContexts,
	}
	stack.AddInterface(n)
	return n
}

// linkFor returns the link toward mac, or nil.
func (n *NetIf) linkFor(mac uint64) *link {
	for _, l := range n.links {
		if l.peerMAC == mac {
			return l
		}
	}
	return nil
}

// delLinkEntry removes the link toward mac. The vacated tail slot is
// cleared, so a dead link and its L2CAP, ATT and queue state are not kept
// reachable until the next link-up.
func (n *NetIf) delLinkEntry(mac uint64) {
	if i := slices.IndexFunc(n.links, func(l *link) bool { return l.peerMAC == mac }); i >= 0 {
		n.links = slices.Delete(n.links, i, i+1)
	}
}

// Stats returns a copy of the adapter counters.
func (n *NetIf) Stats() NetIfStats { return n.stats }

// HasNeighbor implements ip6.NetIf.
func (n *NetIf) HasNeighbor(mac uint64) bool {
	return n.linkFor(mac) != nil
}

// Links returns the neighbor MACs with active BLE connections.
func (n *NetIf) Links() []uint64 {
	out := make([]uint64, 0, len(n.links))
	for _, l := range n.links {
		out = append(out, l.peerMAC)
	}
	return out
}

// AddLink wires a fresh BLE connection into the adapter: an L2CAP endpoint
// and the ATT/IPSS database are created; the coordinator side first checks
// the peer's IP capability via GATT service discovery (as the Internet
// Protocol Support Profile prescribes) and then dials the IPSP channel.
func (n *NetIf) AddLink(conn *ble.Conn) {
	peerMAC := uint64(conn.Peer())
	l := &link{n: n, conn: conn, peerMAC: peerMAC}
	l.ep = l2cap.NewEndpoint(n.s, conn)
	l.ep.OnChannelOpen = l
	l.att = gatt.NewATT(l.ep, ipssDB)
	if conn.Role() == ble.Coordinator {
		_ = l.att.DiscoverPrimaryServices(n.s, l)
	}
	n.links = append(n.links, l)
}

// Discovered implements gatt.Client: IPSP is dialled only to an IPSS peer.
func (l *link) Discovered(svcs []gatt.Service, err error) {
	if err != nil || !gatt.SupportsIPSS(svcs) {
		l.n.stats.IPSSRefused++
		return
	}
	l.ep.Dial(l2cap.PSMIPSP)
}

// RemoveLink tears the adapter state for a dead BLE connection down,
// flushing its queue.
func (n *NetIf) RemoveLink(conn *ble.Conn) {
	peerMAC := uint64(conn.Peer())
	l := n.linkFor(peerMAC)
	if l == nil || l.conn != conn {
		return
	}
	n.delLinkEntry(peerMAC)
	l.ep.Teardown()
	n.flushQueue(l)
}

// flushQueue drops a dead link's queued frames, releasing their buffers
// (and with them their pktbuf charges) and recording the drops.
func (n *NetIf) flushQueue(l *link) {
	for i := 0; i < l.queue.Len(); i++ {
		f := l.queue.At(i)
		f.buf.Put()
		n.stats.LinkDrops++
		if f.pid != 0 && n.tr.Keeps(f.pid) {
			n.tr.Add(n.node, f.pid, 0, trace.DropLinkDown(l.peerMAC))
		}
	}
	l.queue.Reset()
}

// Reset tears down every link, as a reboot dropping the adapter's RAM:
// queued frames release their pktbuf charges and all L2CAP/ATT state goes.
// Links are removed in MAC order so teardown side effects are deterministic.
func (n *NetIf) Reset() {
	macs := n.Links()
	sort.Slice(macs, func(i, j int) bool { return macs[i] < macs[j] })
	for _, mac := range macs {
		l := n.linkFor(mac)
		n.delLinkEntry(mac)
		l.ep.Teardown()
		n.flushQueue(l)
	}
}

// channelUp installs the IPSP channel on a link and starts draining.
func (n *NetIf) channelUp(l *link, ch *l2cap.Channel) {
	l.ch = ch
	ch.OnEvents = l
	n.drain(l)
}

// Accept implements l2cap.Server: a link serves the IPSP channel alone.
func (l *link) Accept(psm uint16) bool {
	return psm == l2cap.PSMIPSP
}

// ChannelOpen implements l2cap.Server: the IPSP channel, dialled or
// accepted, carries the link's packets.
func (l *link) ChannelOpen(ch *l2cap.Channel) { l.n.channelUp(l, ch) }

// ReceiveSDU implements l2cap.ChannelEvents.
func (l *link) ReceiveSDU(sdu *pktbuf.Buf, pid uint64) { l.n.input(l, sdu, pid) }

// Unblocked implements l2cap.ChannelEvents.
func (l *link) Unblocked() { l.n.drain(l) }

// Closed implements l2cap.ChannelEvents: the adapter learns of a dead link
// from statconn, which also flushes its queue (RemoveLink).
func (l *link) Closed() {}

// Output implements ip6.NetIf: compress in place, charge the pktbuf on the
// buffer, queue, drain. The packet's pooled buffer is carried through to the
// LL without copying; ownership of pkt passes to the adapter in every case.
func (n *NetIf) Output(mac uint64, pkt *pktbuf.Buf, pid uint64) bool {
	l := n.linkFor(mac)
	if l == nil {
		pkt.Put()
		return false
	}
	if err := sixlo.CompressBuf(pkt, n.mac, mac, n.ctxs); err != nil {
		n.stats.CompressErr++
		pkt.Put()
		return false
	}
	size := pkt.Len()
	if !n.stack.Pktbuf.Alloc(size) {
		// GNRC pktbuf exhausted: this is the §5.2 loss process.
		n.stats.QueueDrops++
		pkt.Put()
		return false
	}
	// The charge travels with the buffer down to the LL, whose Put of the
	// frame's last piece returns it.
	pkt.Charge(&n.stack.Pktbuf, size)
	l.queue.Push(outFrame{buf: pkt, pid: pid})
	n.drain(l)
	return true
}

// drain pushes queued frames into the IPSP channel while it accepts them.
func (n *NetIf) drain(l *link) {
	for l.queue.Len() > 0 && l.ch != nil && l.ch.Writable() {
		f := l.queue.Pop()
		if err := l.ch.SendSDUBuf(f.buf, f.pid, nil); err != nil {
			n.stats.LinkDrops++
			continue
		}
		n.stats.TXPackets++
	}
}

// input decompresses a received frame in place and hands it to the IP stack.
func (n *NetIf) input(l *link, sdu *pktbuf.Buf, pid uint64) {
	if err := sixlo.DecompressBuf(sdu, l.peerMAC, n.mac, n.ctxs); err != nil {
		n.stats.DecompressErr++
		sdu.Put()
		return
	}
	n.stats.RXPackets++
	n.stack.InputBuf(sdu, pid)
}

// QueueDepth returns the number of frames queued toward a neighbor.
func (n *NetIf) QueueDepth(mac uint64) int {
	if l := n.linkFor(mac); l != nil {
		return l.queue.Len()
	}
	return 0
}

func (n *NetIf) String() string {
	return fmt.Sprintf("ble-netif(%012x links=%d)", n.mac, len(n.links))
}

// Channel returns the IPSP channel toward a neighbor, or nil (diagnostics).
func (n *NetIf) Channel(mac uint64) *l2cap.Channel {
	if l := n.linkFor(mac); l != nil {
		return l.ch
	}
	return nil
}
