package ip6

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
)

func TestAddrHelpers(t *testing.T) {
	ll := LinkLocal(0x0102030405FF)
	if !ll.IsLinkLocal() || ll.IsMulticast() || ll.IsUnspecified() {
		t.Fatalf("link-local classification wrong: %v", ll)
	}
	if ll.String() != "fe80::302:3ff:fe04:5ff" {
		t.Fatalf("link-local = %v", ll)
	}
	if !AllNodes.IsMulticast() {
		t.Fatal("ff02::1 not multicast")
	}
	if !Unspecified.IsUnspecified() {
		t.Fatal(":: not unspecified")
	}
}

func TestIIDMACRoundTrip(t *testing.T) {
	for _, mac := range []uint64{0, 1, 0x0102030405FF, 0xFFFFFFFFFFFF} {
		got, ok := MACFromIID(IIDFromMAC(mac))
		if !ok || got != mac {
			t.Fatalf("MAC %012x round trip -> %012x ok=%v", mac, got, ok)
		}
	}
	if _, ok := MACFromIID([8]byte{1, 2, 3, 4, 5, 6, 7, 8}); ok {
		t.Fatal("non-EUI IID accepted")
	}
}

func TestAddrMAC(t *testing.T) {
	a := ULA(DefaultPrefix, 0xABCDEF123456)
	mac, ok := a.MAC()
	if !ok || mac != 0xABCDEF123456 {
		t.Fatalf("MAC from ULA = %012x ok=%v", mac, ok)
	}
	if !SamePrefix(a, DefaultPrefix) {
		t.Fatal("ULA lost its prefix")
	}
}

func TestParseAddr(t *testing.T) {
	if _, err := ParseAddr("fd00::1"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "10.0.0.1", "zz::1"} {
		if _, err := ParseAddr(bad); err == nil {
			t.Fatalf("ParseAddr(%q) accepted", bad)
		}
	}
}

// packet builds the IPv6 packet h carrying payload in a pooled buffer, the
// way the stack builds the packets it sends.
func packet(h Header, payload []byte) *pktbuf.Buf {
	b := pktbuf.Get(pktbuf.DefaultHeadroom, len(payload))
	copy(b.Bytes(), payload)
	pl := b.Len()
	h.Put(b.Prepend(HeaderLen), pl)
	return b
}

// udp returns the UDP datagram from port sp to dp carrying payload,
// checksummed for the src→dst pseudo-header.
func udp(src, dst Addr, sp, dp uint16, payload []byte) []byte {
	d := make([]byte, UDPHeaderLen+len(payload))
	copy(d[UDPHeaderLen:], payload)
	PutUDP(src, dst, sp, dp, d)
	return d
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		TrafficClass: 0x12, FlowLabel: 0xABCDE, NextHeader: ProtoUDP,
		HopLimit: 64, Src: MustParseAddr("fd00::1"), Dst: MustParseAddr("fd00::2"),
	}
	payload := []byte{1, 2, 3, 4, 5}
	b := packet(h, payload)
	defer b.Put()
	pkt := b.Bytes()
	if len(pkt) != HeaderLen+5 {
		t.Fatalf("encoded length %d", len(pkt))
	}
	got, pl, err := Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.TrafficClass != h.TrafficClass || got.FlowLabel != h.FlowLabel ||
		got.NextHeader != h.NextHeader || got.HopLimit != h.HopLimit ||
		got.Src != h.Src || got.Dst != h.Dst || got.PayloadLen != 5 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(pl, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(make([]byte, 10)); err == nil {
		t.Fatal("short packet accepted")
	}
	bad := packet(Header{HopLimit: 1}, nil)
	defer bad.Put()
	bad.Bytes()[0] = 0x40 // IPv4 version
	if _, _, err := Decode(bad.Bytes()); err == nil {
		t.Fatal("wrong version accepted")
	}
	trunc := packet(Header{}, make([]byte, 10))
	defer trunc.Put()
	if _, _, err := Decode(trunc.Bytes()[:45]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(tc byte, fl uint32, nh byte, hl byte, src, dst [16]byte, n uint8) bool {
		h := Header{TrafficClass: tc, FlowLabel: fl & 0xFFFFF, NextHeader: nh,
			HopLimit: hl, Src: Addr(src), Dst: Addr(dst)}
		b := packet(h, make([]byte, n))
		defer b.Put()
		got, _, err := Decode(b.Bytes())
		if err != nil {
			return false
		}
		return got.TrafficClass == h.TrafficClass && got.FlowLabel == h.FlowLabel &&
			got.NextHeader == nh && got.HopLimit == hl && got.Src == h.Src && got.Dst == h.Dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUDPRoundTripAndChecksum(t *testing.T) {
	src, dst := MustParseAddr("fd00::1"), MustParseAddr("fd00::2")
	d := udp(src, dst, 1234, 5683, []byte("payload"))
	h, pl, err := DecodeUDP(src, dst, d)
	if err != nil {
		t.Fatal(err)
	}
	if h.SrcPort != 1234 || h.DstPort != 5683 || string(pl) != "payload" {
		t.Fatalf("UDP round trip: %+v %q", h, pl)
	}
	// Corrupt one payload byte: the checksum must catch it.
	d[9]++
	if _, _, err := DecodeUDP(src, dst, d); err == nil {
		t.Fatal("corrupted UDP datagram accepted")
	}
	// Wrong pseudo-header (different dst) must also fail.
	d[9]--
	if _, _, err := DecodeUDP(src, MustParseAddr("fd00::3"), d); err == nil {
		t.Fatal("UDP with wrong pseudo-header accepted")
	}
	// A zero checksum field is "not computed", which IPv6 forbids: the
	// datagram is discarded, not accepted unverified.
	d[6], d[7] = 0, 0
	if _, _, err := DecodeUDP(src, dst, d); err == nil {
		t.Fatal("UDP with a zero checksum accepted")
	}
}

func TestICMPEchoRoundTrip(t *testing.T) {
	src, dst := MustParseAddr("fe80::1"), MustParseAddr("fe80::2")
	b := make([]byte, 8+2)
	putEcho(b, src, dst, ICMPEcho{Type: ICMPEchoRequest, ID: 7, Seq: 9, Data: []byte{1, 2}})
	e, err := DecodeICMPEcho(src, dst, b)
	if err != nil {
		t.Fatal(err)
	}
	if e.Type != ICMPEchoRequest || e.ID != 7 || e.Seq != 9 || !bytes.Equal(e.Data, []byte{1, 2}) {
		t.Fatalf("echo mismatch: %+v", e)
	}
	b[8]++
	if _, err := DecodeICMPEcho(src, dst, b); err == nil {
		t.Fatal("corrupted echo accepted")
	}
}

func TestPool(t *testing.T) {
	p := Pool{Capacity: 100}
	if !p.Alloc(60) || !p.Alloc(40) {
		t.Fatal("allocations within capacity failed")
	}
	if p.Alloc(1) {
		t.Fatal("over-capacity allocation succeeded")
	}
	if p.Fails() != 1 || p.Peak() != 100 {
		t.Fatalf("fails=%d peak=%d", p.Fails(), p.Peak())
	}
	p.Free(60)
	if !p.Alloc(50) {
		t.Fatal("allocation after free failed")
	}
	if p.Used() != 90 {
		t.Fatalf("used=%d", p.Used())
	}
}

func TestQuickPoolNeverOverflows(t *testing.T) {
	f := func(ops []int16) bool {
		p := Pool{Capacity: 1000}
		var held []int
		for _, op := range ops {
			if op >= 0 {
				n := int(op) % 400
				if p.Alloc(n) {
					held = append(held, n)
				}
			} else if len(held) > 0 {
				p.Free(held[len(held)-1])
				held = held[:len(held)-1]
			}
			if p.Used() > p.Capacity || p.Used() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// fakeIf is a loop-free test interface that records outputs.
type fakeIf struct {
	neighbors map[uint64]bool
	sent      []struct {
		mac uint64
		pkt []byte
	}
	reject bool
}

func (f *fakeIf) Output(mac uint64, pkt *pktbuf.Buf, pid uint64) bool {
	defer pkt.Put()
	if f.reject {
		return false
	}
	cp := append([]byte(nil), pkt.Bytes()...)
	f.sent = append(f.sent, struct {
		mac uint64
		pkt []byte
	}{mac, cp})
	return true
}
func (f *fakeIf) HasNeighbor(mac uint64) bool { return f.neighbors[mac] }

func TestRoutingLongestPrefix(t *testing.T) {
	s := sim.New(1)
	st := NewStack(s, 0x01)
	ifc := &fakeIf{neighbors: map[uint64]bool{0x02: true, 0x03: true}}
	st.AddInterface(ifc)
	// Default route via node 2, host route to one address via node 3.
	target := ULA(DefaultPrefix, 0x99)
	st.AddRoute(Route{Dst: DefaultPrefix, PrefixLen: 0, NextHop: ULA(DefaultPrefix, 0x02)})
	st.AddRoute(Route{Dst: target, PrefixLen: 128, NextHop: ULA(DefaultPrefix, 0x03)})
	if _, err := st.SendUDPPID(target, 1, 2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SendUDPPID(ULA(DefaultPrefix, 0x77), 1, 2, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if len(ifc.sent) != 2 {
		t.Fatalf("sent %d packets", len(ifc.sent))
	}
	if ifc.sent[0].mac != 0x03 {
		t.Fatalf("host route not preferred: went via %x", ifc.sent[0].mac)
	}
	if ifc.sent[1].mac != 0x02 {
		t.Fatalf("default route not used: went via %x", ifc.sent[1].mac)
	}
}

func TestAddRouteUpserts(t *testing.T) {
	s := sim.New(1)
	st := NewStack(s, 0x01)
	ifc := &fakeIf{neighbors: map[uint64]bool{0x02: true, 0x03: true}}
	st.AddInterface(ifc)
	target := ULA(DefaultPrefix, 0x99)
	st.AddRoute(Route{Dst: target, PrefixLen: 128, NextHop: ULA(DefaultPrefix, 0x02)})
	// Re-adding the same (Dst, PrefixLen) must replace, not shadow.
	st.AddRoute(Route{Dst: target, PrefixLen: 128, NextHop: ULA(DefaultPrefix, 0x03)})
	if n := len(st.Routes()); n != 1 {
		t.Fatalf("routes=%d after upsert, want 1", n)
	}
	if _, err := st.SendUDPPID(target, 1, 2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if ifc.sent[0].mac != 0x03 {
		t.Fatalf("upserted next hop ignored: went via %x", ifc.sent[0].mac)
	}
	// Same Dst under a different prefix length is a distinct entry.
	st.AddRoute(Route{Dst: target, PrefixLen: 64, NextHop: ULA(DefaultPrefix, 0x02)})
	if n := len(st.Routes()); n != 2 {
		t.Fatalf("routes=%d after distinct prefix add, want 2", n)
	}
}

func TestRemoveRoute(t *testing.T) {
	s := sim.New(1)
	st := NewStack(s, 0x01)
	st.AddInterface(&fakeIf{neighbors: map[uint64]bool{}})
	target := ULA(DefaultPrefix, 0x99)
	st.AddRoute(Route{Dst: target, PrefixLen: 128, NextHop: ULA(DefaultPrefix, 0x02)})
	st.AddRoute(Route{Dst: Unspecified, PrefixLen: 0, NextHop: ULA(DefaultPrefix, 0x03)})
	if !st.RemoveRoute(target, 128) {
		t.Fatal("RemoveRoute of existing host route returned false")
	}
	if st.RemoveRoute(target, 128) {
		t.Fatal("RemoveRoute of absent route returned true")
	}
	if _, ok := st.LookupRoute(target); !ok {
		t.Fatal("default route should still match after host-route removal")
	}
	if !st.RemoveRoute(Unspecified, 0) {
		t.Fatal("RemoveRoute of default route returned false")
	}
	if _, ok := st.LookupRoute(target); ok {
		t.Fatal("route table should be empty")
	}
}

func TestRemoveRoutesVia(t *testing.T) {
	s := sim.New(1)
	st := NewStack(s, 0x01)
	st.AddInterface(&fakeIf{neighbors: map[uint64]bool{}})
	via2, via3 := LinkLocal(0x02), LinkLocal(0x03)
	st.AddRoute(Route{Dst: ULA(DefaultPrefix, 0x10), PrefixLen: 128, NextHop: via2})
	st.AddRoute(Route{Dst: ULA(DefaultPrefix, 0x11), PrefixLen: 128, NextHop: via2})
	st.AddRoute(Route{Dst: ULA(DefaultPrefix, 0x12), PrefixLen: 128, NextHop: via3})
	if n := st.RemoveRoutesVia(via2); n != 2 {
		t.Fatalf("RemoveRoutesVia removed %d, want 2", n)
	}
	if n := len(st.Routes()); n != 1 {
		t.Fatalf("routes=%d after bulk removal, want 1", n)
	}
	if r, ok := st.LookupRoute(ULA(DefaultPrefix, 0x12)); !ok || r.NextHop != via3 {
		t.Fatal("unrelated route lost in bulk removal")
	}
	if n := st.RemoveRoutesVia(via2); n != 0 {
		t.Fatalf("second RemoveRoutesVia removed %d, want 0", n)
	}
}

// refLookup is the lookup oracle: every entry visited, prefixes compared bit
// by bit, the first of the longest matches kept.
func refLookup(routes []Route, dst Addr) (Route, bool) {
	best, hit := -1, Route{}
	for _, r := range routes {
		match := true
		for b := 0; b < r.PrefixLen; b++ {
			if (dst[b/8]^r.Dst[b/8])&(0x80>>(b%8)) != 0 {
				match = false
				break
			}
		}
		if match && r.PrefixLen > best {
			best, hit = r.PrefixLen, r
		}
	}
	return hit, best >= 0
}

// TestLookupRouteMatchesReference drives random tables — every prefix
// length 0..128, destinations differing in one chosen bit, upserts and
// removals — and holds the word-at-a-time, early-exit lookup to the oracle.
func TestLookupRouteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	st := NewStack(sim.New(1), 0x01)
	st.AddInterface(&fakeIf{neighbors: map[uint64]bool{}})
	base := ULA(DefaultPrefix, 0xA1B2C3D4E5F6)
	flip := func(a Addr, bit int) Addr {
		if bit < 128 {
			a[bit/8] ^= 0x80 >> (bit % 8)
		}
		return a
	}
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			// A prefix that agrees with base up to a random bit.
			r := Route{Dst: flip(base, rng.Intn(129)), PrefixLen: rng.Intn(129),
				NextHop: LinkLocal(uint64(step))}
			if err := st.AddRoute(r); err != nil {
				t.Fatal(err)
			}
		case op < 7 && len(st.routes) > 0:
			r := st.routes[rng.Intn(len(st.routes))]
			if op == 5 {
				st.RemoveRoute(r.Dst, r.PrefixLen)
			} else {
				r.NextHop = LinkLocal(uint64(step)) // upsert in place
				st.AddRoute(r)
			}
		case op == 7 && rng.Intn(40) == 0:
			st.Reset()
		}
		dst := flip(flip(base, rng.Intn(129)), rng.Intn(129))
		got, ok := st.LookupRoute(dst)
		want, wantOK := refLookup(st.routes, dst)
		if ok != wantOK || got != want {
			t.Fatalf("step %d (%d routes) dst %v: got %+v/%v, want %+v/%v",
				step, len(st.routes), dst, got, ok, want, wantOK)
		}
	}
}

func TestNoRouteCounted(t *testing.T) {
	s := sim.New(1)
	st := NewStack(s, 0x01)
	st.AddInterface(&fakeIf{neighbors: map[uint64]bool{}})
	if _, err := st.SendUDPPID(ULA(DefaultPrefix, 0x42), 1, 2, nil); err == nil {
		t.Fatal("send without route succeeded")
	}
	if st.Stats().NoRoute != 1 {
		t.Fatalf("NoRoute=%d", st.Stats().NoRoute)
	}
}

func TestAddressDerivedNeighborResolution(t *testing.T) {
	// 6LoWPAN: the IID embeds the MAC, so an on-link mesh address
	// resolves with no neighbour table.
	s := sim.New(1)
	st := NewStack(s, 0x01)
	ifc := &fakeIf{neighbors: map[uint64]bool{0x55: true}}
	st.AddInterface(ifc)
	if _, err := st.SendUDPPID(ULA(DefaultPrefix, 0x55), 1, 2, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if len(ifc.sent) != 1 || ifc.sent[0].mac != 0x55 {
		t.Fatalf("address-derived resolution failed: %+v", ifc.sent)
	}
}

func TestForwardingDecrementsHopLimit(t *testing.T) {
	s := sim.New(1)
	st := NewStack(s, 0x02)
	ifc := &fakeIf{neighbors: map[uint64]bool{0x03: true}}
	st.AddInterface(ifc)
	dst := ULA(DefaultPrefix, 0x99)
	st.AddRoute(Route{Dst: dst, PrefixLen: 128, NextHop: ULA(DefaultPrefix, 0x03)})
	h := Header{NextHeader: ProtoUDP, HopLimit: 5, Src: ULA(DefaultPrefix, 0x01), Dst: dst}
	st.InputBuf(packet(h, udp(h.Src, h.Dst, 1, 2, nil)), 0)
	if len(ifc.sent) != 1 {
		t.Fatalf("not forwarded")
	}
	fh, _, _ := Decode(ifc.sent[0].pkt)
	if fh.HopLimit != 4 {
		t.Fatalf("hop limit %d, want 4", fh.HopLimit)
	}
	if st.Stats().Forwarded != 1 {
		t.Fatalf("Forwarded=%d", st.Stats().Forwarded)
	}
}

func TestHopLimitExhaustionDrops(t *testing.T) {
	s := sim.New(1)
	st := NewStack(s, 0x02)
	ifc := &fakeIf{neighbors: map[uint64]bool{0x03: true}}
	st.AddInterface(ifc)
	dst := ULA(DefaultPrefix, 0x99)
	st.AddRoute(Route{Dst: dst, PrefixLen: 128, NextHop: ULA(DefaultPrefix, 0x03)})
	h := Header{NextHeader: ProtoUDP, HopLimit: 1, Src: ULA(DefaultPrefix, 0x01), Dst: dst}
	st.InputBuf(packet(h, nil), 0)
	if len(ifc.sent) != 0 || st.Stats().HopLimit != 1 {
		t.Fatalf("hop-limit-1 packet forwarded (sent=%d)", len(ifc.sent))
	}
}

func TestUDPDelivery(t *testing.T) {
	s := sim.New(1)
	st := NewStack(s, 0x02)
	var gotSrc Addr
	var gotPort uint16
	var gotData []byte
	st.ListenUDP(5683, func(src Addr, sport uint16, data []byte) {
		gotSrc, gotPort, gotData = src, sport, data
	})
	src := ULA(DefaultPrefix, 0x01)
	h := Header{NextHeader: ProtoUDP, HopLimit: 64, Src: src, Dst: st.GlobalAddr()}
	st.InputBuf(packet(h, udp(src, st.GlobalAddr(), 4444, 5683, []byte("coap"))), 0)
	if gotSrc != src || gotPort != 4444 || string(gotData) != "coap" {
		t.Fatalf("UDP delivery: src=%v port=%d data=%q", gotSrc, gotPort, gotData)
	}
	if st.Stats().Received != 1 {
		t.Fatalf("Received=%d", st.Stats().Received)
	}
}

func TestLoopbackDelivery(t *testing.T) {
	s := sim.New(1)
	st := NewStack(s, 0x02)
	got := false
	st.ListenUDP(99, func(Addr, uint16, []byte) { got = true })
	if _, err := st.SendUDPPID(st.GlobalAddr(), 1, 99, []byte("self")); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("loopback UDP not delivered")
	}
}

func TestEchoRequestGeneratesReply(t *testing.T) {
	s := sim.New(1)
	st := NewStack(s, 0x02)
	ifc := &fakeIf{neighbors: map[uint64]bool{0x01: true}}
	st.AddInterface(ifc)
	src := ULA(DefaultPrefix, 0x01)
	icmp := make([]byte, 8)
	putEcho(icmp, src, st.GlobalAddr(), ICMPEcho{Type: ICMPEchoRequest, ID: 3, Seq: 4})
	h := Header{NextHeader: ProtoICMPv6, HopLimit: 64, Src: src, Dst: st.GlobalAddr()}
	st.InputBuf(packet(h, icmp), 0)
	if len(ifc.sent) != 1 {
		t.Fatal("no echo reply emitted")
	}
	rh, pl, _ := Decode(ifc.sent[0].pkt)
	e, err := DecodeICMPEcho(rh.Src, rh.Dst, pl)
	if err != nil || e.Type != ICMPEchoReply || e.ID != 3 || e.Seq != 4 {
		t.Fatalf("bad echo reply: %+v err=%v", e, err)
	}
	if rh.Src != st.GlobalAddr() || rh.Dst != src || rh.HopLimit != st.HopLimitDefault {
		t.Fatalf("echo reply header %+v", rh)
	}
}

func TestSendEcho(t *testing.T) {
	st := NewStack(sim.New(1), 0x02)
	ifc := &fakeIf{neighbors: map[uint64]bool{0x01: true}}
	st.AddInterface(ifc)
	dst := LinkLocal(0x01)
	if err := st.SendEcho(dst, 5, 6, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if len(ifc.sent) != 1 {
		t.Fatal("no echo request emitted")
	}
	h, pl, err := Decode(ifc.sent[0].pkt)
	if err != nil || h.NextHeader != ProtoICMPv6 || h.Src != LinkLocal(0x02) || h.Dst != dst {
		t.Fatalf("echo request header %+v err=%v", h, err)
	}
	e, err := DecodeICMPEcho(h.Src, h.Dst, pl)
	if err != nil || e.Type != ICMPEchoRequest || e.ID != 5 || e.Seq != 6 || string(e.Data) != "ping" {
		t.Fatalf("bad echo request: %+v err=%v", e, err)
	}
}

func TestQueueDropCounted(t *testing.T) {
	s := sim.New(1)
	st := NewStack(s, 0x02)
	ifc := &fakeIf{neighbors: map[uint64]bool{0x03: true}, reject: true}
	st.AddInterface(ifc)
	dst := ULA(DefaultPrefix, 0x03)
	if _, err := st.SendUDPPID(dst, 1, 2, nil); err == nil {
		t.Fatal("send into full queue succeeded")
	}
	if st.Stats().QueueDrops != 1 {
		t.Fatalf("QueueDrops=%d", st.Stats().QueueDrops)
	}
}
