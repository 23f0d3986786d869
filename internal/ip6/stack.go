package ip6

import (
	"encoding/binary"
	"errors"
	"fmt"

	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
	"blemesh/internal/trace"
)

// Pool is a byte-budget packet buffer, the moral equivalent of GNRC's
// pktbuf: every queued packet occupies its size in a fixed byte pool, and an
// allocation failure means the packet is dropped. The paper leaves the GNRC
// buffer at its default of 6144 bytes and attributes the high-load losses of
// §5.2 to exactly this overflow.
type Pool struct {
	Capacity int
	used     int
	peak     int
	fails    uint64
}

// Alloc reserves n bytes, failing when the pool would overflow.
func (p *Pool) Alloc(n int) bool {
	if p.used+n > p.Capacity {
		p.fails++
		return false
	}
	p.used += n
	if p.used > p.peak {
		p.peak = p.used
	}
	return true
}

// Free returns n bytes to the pool.
func (p *Pool) Free(n int) {
	p.used -= n
	if p.used < 0 {
		panic("ip6: pktbuf underflow")
	}
}

// Reset discards all outstanding allocations, as a device reboot clearing
// its packet RAM. Peak and failure counters survive (observer state). Any
// Free of a pre-reset allocation afterwards is a bug — the underflow panic
// in Free is the leak detector for stale references.
func (p *Pool) Reset() { p.used = 0 }

// Used returns the bytes currently allocated.
func (p *Pool) Used() int { return p.used }

// Peak returns the high-water mark.
func (p *Pool) Peak() int { return p.peak }

// Fails returns the number of failed allocations (dropped packets).
func (p *Pool) Fails() uint64 { return p.fails }

// NetIf is a network interface below the stack: the BLE 6LoWPAN adapter
// (internal/core) or the IEEE 802.15.4 adapter (internal/dot15d4).
type NetIf interface {
	// Output queues pkt (a full IPv6 packet in a pooled buffer) for
	// transmission to the neighbor with link-layer address nextHopMAC,
	// tagged with the packet's provenance ID (0 = untagged). It returns
	// false when the interface has no link to that neighbor or no queue
	// space; the stack counts the drop. Output takes ownership of pkt in
	// every case: the interface releases the buffer (pktbuf.Buf.Put)
	// whether it queues, transmits, or drops.
	Output(nextHopMAC uint64, pkt *pktbuf.Buf, pid uint64) bool
	// HasNeighbor reports whether a usable link to the neighbor exists.
	HasNeighbor(nextHopMAC uint64) bool
}

// Route is one routing table entry: a host route or a prefix route.
type Route struct {
	Dst       Addr
	PrefixLen int // bits; 128 = host route, 0 = default route
	NextHop   Addr
	If        NetIf
}

// StackStats counts network-layer events.
type StackStats struct {
	Sent        uint64 `metric:"sent"`      // locally originated packets handed to a netif
	Received    uint64 `metric:"received"`  // packets delivered to local upper layers
	Forwarded   uint64 `metric:"forwarded"` // packets routed onward
	NoRoute     uint64 `metric:"no_route"`
	NoNeighbor  uint64 `metric:"no_neighbor"`
	HopLimit    uint64 `metric:"hop_limit"`   // dropped: hop limit exhausted
	QueueDrops  uint64 `metric:"queue_drops"` // netif rejected (queue/pktbuf full downstream)
	PktbufDrops uint64 // local pktbuf exhausted
	HdrErrors   uint64
}

// UDPHandler receives a datagram's source address/port and payload.
type UDPHandler func(src Addr, srcPort uint16, payload []byte)

// EchoHandler observes echo replies (for ping-style tooling).
type EchoHandler func(src Addr, e ICMPEcho)

// Stack is one node's IPv6 stack: addresses, routes, UDP demultiplexing,
// and forwarding, in the spirit of GNRC with the 6LoWPAN router role enabled
// (§4.2 of the paper). Next hops resolve from the BLE device address in
// their interface identifier (RFC 7668), so there is no neighbour table.
type Stack struct {
	linkLocal Addr
	global    Addr
	mac       uint64

	routes []Route

	Pktbuf Pool

	// UDP demux: a tiny association list. A node binds one or two ports,
	// so the list beats a map on both memory (no hmap header + bucket per
	// node) and lookup cost.
	udpPorts []uint16
	udpHs    []UDPHandler
	onEcho   EchoHandler
	stats    StackStats
	ifaces   []NetIf
	// HopLimitDefault is used for locally originated packets.
	HopLimitDefault byte

	// Flight-recorder wiring. pidSeq advances for every locally
	// originated packet whether or not tracing records anything, so a
	// traced run and an untraced run of the same seed stay byte-identical.
	tr     *trace.Log
	node   string
	pidSeq uint64
}

// SetTrace wires the stack to a shared trace log, emitting under the given
// node name.
func (st *Stack) SetTrace(l *trace.Log, node string) {
	st.tr = l
	st.node = node
}

// mintPID assigns the next provenance ID for a locally originated packet:
// the low 16 bits of the node's MAC in the high word, a per-stack sequence
// below — unique across the network and stable across traced/untraced runs.
// The sampling verdict is registered here, once per packet, so the trace
// log's kept/dropped population counts are exact; the sequence advances
// unconditionally to keep IDs identical under any sample rate.
func (st *Stack) mintPID() uint64 {
	st.pidSeq++
	pid := (st.mac&0xFFFF)<<48 | st.pidSeq
	if st.tr.Enabled() {
		st.tr.DecidePkt(st.node, pid)
	}
	return pid
}

// NewStack builds a stack for a node with the given 48-bit link-layer
// address. The node gets fe80::IID and fd00::IID (DefaultPrefix) addresses.
// The stack keeps no timers, so it does not use the simulator it is given.
func NewStack(_ *sim.Sim, mac uint64) *Stack {
	return &Stack{
		mac:             mac,
		linkLocal:       LinkLocal(mac),
		global:          ULA(DefaultPrefix, mac),
		Pktbuf:          Pool{Capacity: 6144},
		HopLimitDefault: 64,
	}
}

// ReserveRoutes hands the stack a pre-carved backing array for its route
// table (len 0, exact capacity): the normal AddRoute append path then fills
// it without allocating. Appending past the reserved capacity falls
// back to ordinary slice growth, so an under-counted reservation degrades
// to the historical behaviour instead of failing.
func (st *Stack) ReserveRoutes(buf []Route) {
	if len(st.routes) > 0 {
		panic("ip6: ReserveRoutes after routes were installed")
	}
	st.routes = buf[:0]
}

// GlobalAddr returns the node's mesh-prefix (fd00::) address.
func (st *Stack) GlobalAddr() Addr { return st.global }

// MAC returns the node's link-layer address.
func (st *Stack) MAC() uint64 { return st.mac }

// Stats returns a copy of the stack counters.
func (st *Stack) Stats() StackStats { return st.stats }

// AddInterface attaches a netif to the stack.
func (st *Stack) AddInterface(ifc NetIf) { st.ifaces = append(st.ifaces, ifc) }

// AddRoute installs a route, upserting on (Dst, PrefixLen): re-adding a
// destination replaces the previous entry in place instead of shadowing it
// forever. Host routes (prefix length 128) are how the experiments build
// their tree/line forwarding state; dynamic routing (internal/rpl) refreshes
// routes through this same call.
func (st *Stack) AddRoute(r Route) error {
	if r.PrefixLen < 0 || r.PrefixLen > 128 {
		return fmt.Errorf("ip6: prefix length %d", r.PrefixLen)
	}
	if r.If == nil && len(st.ifaces) == 1 {
		r.If = st.ifaces[0]
	}
	for i := range st.routes {
		if st.routes[i].Dst == r.Dst && st.routes[i].PrefixLen == r.PrefixLen {
			st.routes[i] = r
			return nil
		}
	}
	st.routes = append(st.routes, r)
	return nil
}

// RemoveRoute deletes the route matching (dst, prefixLen) exactly,
// reporting whether one existed.
func (st *Stack) RemoveRoute(dst Addr, prefixLen int) bool {
	for i := range st.routes {
		if st.routes[i].Dst == dst && st.routes[i].PrefixLen == prefixLen {
			st.routes = append(st.routes[:i], st.routes[i+1:]...)
			return true
		}
	}
	return false
}

// RemoveRoutesVia deletes every route whose next hop is nexthop and returns
// how many were removed — the bulk invalidation a dead link triggers during
// dynamic-route repair.
func (st *Stack) RemoveRoutesVia(nexthop Addr) int {
	kept := st.routes[:0]
	removed := 0
	for _, r := range st.routes {
		if r.NextHop == nexthop {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	st.routes = kept
	return removed
}

// Routes returns a copy of the routing table in installation order.
func (st *Stack) Routes() []Route { return append([]Route(nil), st.routes...) }

// LookupRoute returns the longest-prefix match for dst (diagnostics and the
// experiment harness's convergence probes).
func (st *Stack) LookupRoute(dst Addr) (Route, bool) { return st.lookupRoute(dst) }

// Reset drops all volatile stack state — routes and every pktbuf
// allocation — as a node reboot would. Code-like wiring (UDP handlers,
// interfaces, addresses) survives: it models the firmware, not the RAM.
// Callers must have torn interface queues down first, or their later frees
// will underflow the freshly emptied pktbuf.
func (st *Stack) Reset() {
	st.routes = nil
	st.Pktbuf.Reset()
}

// lookupRoute returns the longest-prefix match for dst; among routes of equal
// length the first installed wins. Entries are visited in place (a Route is
// 56 bytes) and a host-route hit returns at once: nothing can be longer.
func (st *Stack) lookupRoute(dst Addr) (Route, bool) {
	hi, lo := binary.BigEndian.Uint64(dst[:8]), binary.BigEndian.Uint64(dst[8:])
	best, bestLen := -1, -1
	for i := range st.routes {
		r := &st.routes[i]
		if r.PrefixLen <= bestLen || !prefixMatch(hi, lo, &r.Dst, r.PrefixLen) {
			continue
		}
		if r.PrefixLen == 128 {
			return *r, true
		}
		best, bestLen = i, r.PrefixLen
	}
	if best < 0 {
		return Route{}, false
	}
	return st.routes[best], true
}

// prefixMatch reports whether the address whose big-endian halves are hi and
// lo agrees with p on the first bits bits (0..128, as AddRoute admits). It
// compares a word at a time: a differing bit inside the prefix survives the
// shift that discards the bits outside it.
func prefixMatch(hi, lo uint64, p *Addr, bits int) bool {
	dhi := hi ^ binary.BigEndian.Uint64(p[:8])
	if bits <= 64 {
		return dhi>>(64-bits) == 0
	}
	return dhi == 0 && (lo^binary.BigEndian.Uint64(p[8:]))>>(128-bits) == 0
}

// resolve maps a next-hop (or on-link destination) address to (MAC, netif).
func (st *Stack) resolve(nh Addr) (uint64, NetIf, bool) {
	// Link-local and mesh-local addresses embed the MAC in their IID:
	// 6LoWPAN's address-derived resolution needs no NDP round trip.
	if mac, ok := nh.MAC(); ok {
		for _, ifc := range st.ifaces {
			if ifc.HasNeighbor(mac) {
				return mac, ifc, true
			}
		}
	}
	return 0, nil, false
}

// ListenUDP registers a handler for a UDP port.
func (st *Stack) ListenUDP(port uint16, h UDPHandler) {
	for i, p := range st.udpPorts {
		if p == port {
			st.udpHs[i] = h
			return
		}
	}
	st.udpPorts = append(st.udpPorts, port)
	st.udpHs = append(st.udpHs, h)
}

// lookupUDP returns the handler bound to a port, or nil.
func (st *Stack) lookupUDP(port uint16) UDPHandler {
	for i, p := range st.udpPorts {
		if p == port {
			return st.udpHs[i]
		}
	}
	return nil
}

// OnEchoReply registers the echo-reply observer.
func (st *Stack) OnEchoReply(h EchoHandler) { st.onEcho = h }

// SendUDPPID emits a UDP datagram and returns the provenance ID assigned
// to it, letting application layers (CoAP) correlate their own span events
// with the packet's journey through the network.
func (st *Stack) SendUDPPID(dst Addr, srcPort, dstPort uint16, payload []byte) (uint64, error) {
	src := st.srcFor(dst)
	// Build the packet back-to-front in one pooled buffer: payload first,
	// then the UDP and IPv6 headers prepended into the reserved headroom.
	b := pktbuf.Get(pktbuf.DefaultHeadroom, len(payload))
	copy(b.Bytes(), payload)
	b.Prepend(UDPHeaderLen)
	PutUDP(src, dst, srcPort, dstPort, b.Bytes())
	h := Header{NextHeader: ProtoUDP, HopLimit: st.HopLimitDefault, Src: src, Dst: dst}
	pl := b.Len()
	h.Put(b.Prepend(HeaderLen), pl)
	pid := st.mintPID()
	return pid, st.output(b, pid)
}

// SendEcho emits an ICMPv6 echo request.
func (st *Stack) SendEcho(dst Addr, id, seq uint16, data []byte) error {
	return st.sendEcho(dst, ICMPEcho{Type: ICMPEchoRequest, ID: id, Seq: seq, Data: data})
}

// sendEcho emits an ICMPv6 echo message, built in one pooled buffer the way
// SendUDPPID builds a datagram.
func (st *Stack) sendEcho(dst Addr, e ICMPEcho) error {
	src := st.srcFor(dst)
	b := pktbuf.Get(pktbuf.DefaultHeadroom, 8+len(e.Data))
	putEcho(b.Bytes(), src, dst, e)
	h := Header{NextHeader: ProtoICMPv6, HopLimit: st.HopLimitDefault, Src: src, Dst: dst}
	pl := b.Len()
	h.Put(b.Prepend(HeaderLen), pl)
	return st.output(b, st.mintPID())
}

// srcFor selects the source address for a destination (link-local stays
// link-local; everything else uses the mesh address).
func (st *Stack) srcFor(dst Addr) Addr {
	if dst.IsLinkLocal() {
		return st.linkLocal
	}
	return st.global
}

// output routes and transmits a locally originated packet. It takes
// ownership of b.
func (st *Stack) output(b *pktbuf.Buf, pid uint64) error {
	h, payload, err := Decode(b.Bytes())
	if err != nil {
		st.stats.HdrErrors++
		b.Put()
		return err
	}
	if st.tr.Keeps(pid) {
		st.tr.Add(st.node, pid, 0, trace.PktTX(h.Dst, b.Len()))
	}
	if st.isLocal(h.Dst) {
		// Loopback delivery.
		if st.tr.Keeps(pid) {
			st.tr.Add(st.node, pid, 0, trace.PktLoopback(h.Src))
		}
		st.deliver(h, payload, pid)
		b.Put()
		return nil
	}
	if err := st.transmit(h.Dst, b, pid); err != nil {
		return err
	}
	st.stats.Sent++
	return nil
}

// The drops transmit reports. They are fixed values, so a drop formats and
// allocates nothing; the trace records the address a drop concerned.
var (
	errNoRoute    = errors.New("ip6: no route to destination")
	errNoNeighbor = errors.New("ip6: no neighbor for next hop")
	errQueueFull  = errors.New("ip6: interface queue full toward next hop")
)

// transmit resolves the next hop for dst and hands pkt to the right netif.
// It takes ownership of pkt.
func (st *Stack) transmit(dst Addr, pkt *pktbuf.Buf, pid uint64) error {
	nh := dst
	var viaIf NetIf
	// Link-local destinations are on-link by definition (RFC 4861 §5.2):
	// they must resolve directly, never through the route table — a default
	// route would otherwise bounce a neighbor's fe80:: address upstream.
	if !dst.IsLinkLocal() {
		if r, ok := st.lookupRoute(dst); ok {
			if !r.NextHop.IsUnspecified() {
				nh = r.NextHop
			}
			viaIf = r.If
		}
	}
	mac, ifc, ok := st.resolve(nh)
	if !ok {
		pkt.Put()
		if viaIf == nil {
			st.stats.NoRoute++
			if st.tr.Keeps(pid) {
				st.tr.Add(st.node, pid, 0, trace.Drop(trace.CauseNoRoute, dst))
			}
			return errNoRoute
		}
		st.stats.NoNeighbor++
		if st.tr.Keeps(pid) {
			st.tr.Add(st.node, pid, 0, trace.Drop(trace.CauseNoNeighbor, nh))
		}
		return errNoNeighbor
	}
	if viaIf != nil {
		ifc = viaIf
	}
	if !ifc.Output(mac, pkt, pid) {
		st.stats.QueueDrops++
		if st.tr.Keeps(pid) {
			st.tr.Add(st.node, pid, 0, trace.Drop(trace.CauseQueueFull, nh))
		}
		return errQueueFull
	}
	return nil
}

// isLocal reports whether dst addresses this node.
func (st *Stack) isLocal(dst Addr) bool {
	return dst == st.linkLocal || dst == st.global || dst == AllNodes
}

// InputBuf accepts an IPv6 packet from a netif (already decompressed),
// tagged with the provenance ID it arrived under (0 = untagged). It is the
// forwarding plane: local delivery, hop-limit handling, and routing. It
// takes ownership of b.
func (st *Stack) InputBuf(b *pktbuf.Buf, pid uint64) {
	pkt := b.Bytes()
	h, payload, err := Decode(pkt)
	if err != nil {
		st.stats.HdrErrors++
		b.Put()
		return
	}
	if st.isLocal(h.Dst) {
		st.stats.Received++
		if st.tr.Keeps(pid) {
			st.tr.Add(st.node, pid, 0, trace.PktRX(h.Src, len(pkt)))
		}
		st.deliver(h, payload, pid)
		b.Put()
		return
	}
	// Forwarding: decrement the hop limit in place and pass the same
	// buffer down — the zero-copy fast path a forwarder spends its life on.
	if h.HopLimit <= 1 {
		st.stats.HopLimit++
		if st.tr.Keeps(pid) {
			st.tr.Add(st.node, pid, 0, trace.Drop(trace.CauseHopLimit, h.Dst))
		}
		b.Put()
		return
	}
	pkt[7] = h.HopLimit - 1
	if st.tr.Keeps(pid) {
		st.tr.Add(st.node, pid, 0, trace.PktFwd(h.Dst, h.HopLimit-1))
	}
	if err := st.transmit(h.Dst, b, pid); err == nil {
		st.stats.Forwarded++
	}
}

// deliver hands a local packet's payload to the upper layers.
func (st *Stack) deliver(h Header, payload []byte, pid uint64) {
	switch h.NextHeader {
	case ProtoUDP:
		uh, data, err := DecodeUDP(h.Src, h.Dst, payload)
		if err != nil {
			st.stats.HdrErrors++
			return
		}
		if handler := st.lookupUDP(uh.DstPort); handler != nil {
			handler(h.Src, uh.SrcPort, data)
		}
	case ProtoICMPv6:
		e, err := DecodeICMPEcho(h.Src, h.Dst, payload)
		if err != nil {
			st.stats.HdrErrors++
			return
		}
		switch e.Type {
		case ICMPEchoRequest:
			e.Type = ICMPEchoReply
			_ = st.sendEcho(h.Src, e)
		case ICMPEchoReply:
			if st.onEcho != nil {
				st.onEcho(h.Src, e)
			}
		}
	}
}
