package sixlo

import (
	"bytes"
	"testing"
	"testing/quick"

	"blemesh/internal/ip6"
	"blemesh/internal/pktbuf"
)

const (
	macA = 0x0000A1A2A3A4
	macB = 0x0000B1B2B3B4
)

// packet builds the IPv6 packet h carrying payload in a pooled buffer, back
// to front as ip6.Stack builds the packets it sends. A UDP packet
// (h.NextHeader == ip6.ProtoUDP) gets a UDP header with ports sp and dp.
func packet(h ip6.Header, sp, dp uint16, payload []byte) *pktbuf.Buf {
	b := pktbuf.Get(pktbuf.DefaultHeadroom, len(payload))
	copy(b.Bytes(), payload)
	if h.NextHeader == ip6.ProtoUDP {
		b.Prepend(ip6.UDPHeaderLen)
		ip6.PutUDP(h.Src, h.Dst, sp, dp, b.Bytes())
	}
	pl := b.Len()
	h.Put(b.Prepend(ip6.HeaderLen), pl)
	return b
}

// compressRoundTrip runs b through CompressBuf and DecompressBuf across the
// srcMAC→dstMAC hop and releases it. It returns the packet as built, the
// compressed frame and the packet decompression rebuilt.
func compressRoundTrip(b *pktbuf.Buf, srcMAC, dstMAC uint64) (orig, comp, back []byte, err error) {
	defer b.Put()
	orig = bytes.Clone(b.Bytes())
	if err := CompressBuf(b, srcMAC, dstMAC, DefaultContexts); err != nil {
		return nil, nil, nil, err
	}
	comp = bytes.Clone(b.Bytes())
	if err := DecompressBuf(b, srcMAC, dstMAC, DefaultContexts); err != nil {
		return nil, nil, nil, err
	}
	return orig, comp, bytes.Clone(b.Bytes()), nil
}

// roundTrip is compressRoundTrip across the A→B hop, failing the test unless
// the rebuilt packet equals the original. It returns the compressed frame.
func roundTrip(t *testing.T, b *pktbuf.Buf) []byte {
	t.Helper()
	orig, comp, back, err := compressRoundTrip(b, macA, macB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, orig) {
		t.Fatalf("round trip mismatch\n in: %x\nout: %x", orig, back)
	}
	return comp
}

func TestIPHCElidesEverythingOnBestCase(t *testing.T) {
	// Mesh-prefix addresses with MAC-derived IIDs, hop limit 64, UDP:
	// the entire 40-byte IPv6 header + 8-byte UDP header should shrink
	// to a handful of bytes.
	src := ip6.ULA(ip6.DefaultPrefix, macA)
	dst := ip6.ULA(ip6.DefaultPrefix, macB)
	h := ip6.Header{NextHeader: ip6.ProtoUDP, HopLimit: 64, Src: src, Dst: dst}
	comp := roundTrip(t, packet(h, 5683, 5683, []byte("hello coap")))
	// 2 IPHC + 1 CID + UDP NHC (1+4+2) + payload.
	overhead := len(comp) - len("hello coap")
	if overhead > 12 {
		t.Fatalf("best-case overhead %d bytes, want ≤ 12 (was %d uncompressed)",
			overhead, ip6.HeaderLen+ip6.UDPHeaderLen)
	}
}

func TestIPHCLinkLocalElision(t *testing.T) {
	src := ip6.LinkLocal(macA)
	dst := ip6.LinkLocal(macB)
	h := ip6.Header{NextHeader: ip6.ProtoICMPv6, HopLimit: 255, Src: src, Dst: dst}
	comp := roundTrip(t, packet(h, 0, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8}))
	// 2 IPHC + NH inline: both addresses and the hop limit elided.
	if len(comp) != 2+1+8 {
		t.Fatalf("link-local frame = %d bytes, want 11", len(comp))
	}
}

// TestIPHCMulticastDst: no program sends to a multicast group (RPL's DIOs
// go out as link-local unicasts), so the multicast address modes are not
// implemented — compression refuses such a packet and decompression a frame
// with M=1.
func TestIPHCMulticastDst(t *testing.T) {
	src := ip6.LinkLocal(macA)
	h := ip6.Header{NextHeader: ip6.ProtoICMPv6, HopLimit: 1, Src: src, Dst: ip6.AllNodes}
	b := packet(h, 0, 0, []byte{9})
	defer b.Put()
	orig := bytes.Clone(b.Bytes())
	if err := CompressBuf(b, macA, macB, DefaultContexts); err == nil {
		t.Fatal("multicast destination compressed")
	}
	if !bytes.Equal(b.Bytes(), orig) {
		t.Fatal("a refused packet was modified")
	}
	// dispatch + TF elided, NH inline, HLIM 1 | M=1, SAM=DAM=11; NH, 1-byte group.
	fr := pktbuf.FromBytes([]byte{dispatchIPHC | tfElided | hlim1, 0x30 | mcast | amElided, 58, 0x01})
	defer fr.Put()
	if err := DecompressBuf(fr, macA, macB, DefaultContexts); err == nil {
		t.Fatal("frame with a multicast destination decompressed")
	}
}

// TestIPHCForeignAddressesInline: a header outside the encodings the
// traffic takes — an address outside fe80::/64 and the context prefix, a
// traffic class, a flow label — goes out whole after the uncompressed
// dispatch, and comes back byte for byte.
func TestIPHCForeignAddressesInline(t *testing.T) {
	mesh := ip6.ULA(ip6.DefaultPrefix, macA)
	for _, h := range []ip6.Header{
		{NextHeader: 99, HopLimit: 17, Src: ip6.MustParseAddr("2001:db8::1"), Dst: ip6.MustParseAddr("2001:db8::2")},
		{NextHeader: ip6.ProtoUDP, HopLimit: 64, Src: mesh, Dst: ip6.MustParseAddr("fe81::2")},
		{NextHeader: ip6.ProtoUDP, HopLimit: 64, TrafficClass: 3, Src: mesh, Dst: mesh},
		{NextHeader: ip6.ProtoUDP, HopLimit: 64, FlowLabel: 0x12345, Src: mesh, Dst: mesh},
	} {
		b := packet(h, 5683, 5683, []byte("x"))
		pkt := bytes.Clone(b.Bytes())
		comp := roundTrip(t, b)
		if comp[0] != dispatchIPv6 || !bytes.Equal(comp[1:], pkt) {
			t.Fatalf("%+v: frame %x, want %#x and the packet", h, comp, dispatchIPv6)
		}
	}
}

func TestIPHCHopLimitVariants(t *testing.T) {
	src := ip6.ULA(ip6.DefaultPrefix, macA)
	dst := ip6.ULA(ip6.DefaultPrefix, macB)
	for _, hl := range []byte{1, 2, 63, 64, 65, 255} {
		h := ip6.Header{NextHeader: ip6.ProtoUDP, HopLimit: hl, Src: src, Dst: dst}
		roundTrip(t, packet(h, 1000, 2000, []byte("p")))
	}
}

// TestUDPNHCPortModes: UDP NHC carries both ports inline, 16 bits each,
// even those RFC 6282 could shorten to 4 or 8 bits (no program uses them).
func TestUDPNHCPortModes(t *testing.T) {
	src := ip6.ULA(ip6.DefaultPrefix, macA)
	dst := ip6.ULA(ip6.DefaultPrefix, macB)
	for _, ports := range [][2]uint16{{0xF0B1, 0xF0B2}, {1234, 0xF042}, {0xF042, 5683}, {5683, 5683}} {
		h := ip6.Header{NextHeader: ip6.ProtoUDP, HopLimit: 64, Src: src, Dst: dst}
		comp := roundTrip(t, packet(h, ports[0], ports[1], []byte("data")))
		// 2 IPHC + 1 CID; addresses and hop limit elided.
		if nhc := comp[3 : len(comp)-len("data")]; len(nhc) != 1+4+2 || nhc[0] != udpNHCBase {
			t.Fatalf("ports %d/%d: UDP NHC %x, want %#x, 4 bytes of ports, 2 of checksum", ports[0], ports[1], nhc, udpNHCBase)
		}
	}
}

func TestUncompressedDispatch(t *testing.T) {
	h := ip6.Header{NextHeader: 77, HopLimit: 7,
		Src: ip6.MustParseAddr("fd00::1"), Dst: ip6.MustParseAddr("fd00::2")}
	b := packet(h, 0, 0, []byte("raw"))
	defer b.Put()
	pkt := bytes.Clone(b.Bytes())
	b.Prepend(1)[0] = dispatchIPv6
	if err := DecompressBuf(b, macA, macB, DefaultContexts); err != nil || !bytes.Equal(b.Bytes(), pkt) {
		t.Fatalf("uncompressed dispatch failed: %v", err)
	}
}

// TestDecompressErrors: malformed frames, and the encodings CompressBuf
// never sends, are refused.
func TestDecompressErrors(t *testing.T) {
	// ll is a link-local ICMPv6 frame (TF elided, NH inline, HLIM 255,
	// SAM=DAM=11) with bytes 0 and 1 as given, then rest, then enough
	// bytes that no mode is refused as truncated.
	ll := func(b0, b1 byte, rest ...byte) []byte {
		return append([]byte{b0, b1}, append(rest, make([]byte, 24)...)...)
	}
	const b0, b1 = 0x7B, 0x33
	valid := pktbuf.FromBytes(ll(b0, b1, 58))
	if err := DecompressBuf(valid, macA, macB, DefaultContexts); err != nil {
		t.Fatalf("the frame the cases vary is refused: %v", err)
	}
	valid.Put()
	cases := [][]byte{
		nil,
		{0x99},                      // unknown dispatch
		{dispatchIPHC},              // truncated IPHC
		{0x7F, 0xFF, 0x00},          // CID byte + impossible trailing state
		ll(b0&^0x18, b1, 58),        // TF=00: traffic class and flow label inline
		ll(b0&^0x18|0x08, b1, 58),   // TF=01: ECN and flow label inline
		ll(b0&^0x18|0x10, b1, 58),   // TF=10: traffic class inline
		ll(b0, 0x03, 58),            // SAM=00: source inline
		ll(b0, 0x23, 58),            // SAM=10: 16-bit source
		ll(b0, 0x30, 58),            // DAM=00: destination inline
		ll(b0, 0x32, 58),            // DAM=10: 16-bit destination
		ll(b0, cidExt|b1, 0x10, 58), // a context other than 0
		ll(b0|nhComp, b1, 0xF1),     // UDP NHC: 8-bit destination port
		ll(b0|nhComp, b1, 0xF2),     // UDP NHC: 8-bit source port
		ll(b0|nhComp, b1, 0xF3),     // UDP NHC: 4-bit ports
		ll(b0|nhComp, b1, 0xF4),     // UDP NHC: checksum elided
	}
	for i, c := range cases {
		b := pktbuf.FromBytes(c)
		if err := DecompressBuf(b, macA, macB, DefaultContexts); err == nil {
			t.Errorf("case %d: bad frame accepted", i)
		}
		b.Put()
	}
}

func TestQuickIPHCRoundTripUDP(t *testing.T) {
	// Property: any UDP packet between mesh addresses survives the
	// compress/decompress round trip bit-exactly.
	f := func(sp, dp uint16, payload []byte, srcMAC, dstMAC uint32, hl byte) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		sm, dm := uint64(srcMAC), uint64(dstMAC)
		h := ip6.Header{NextHeader: ip6.ProtoUDP, HopLimit: hl,
			Src: ip6.ULA(ip6.DefaultPrefix, sm), Dst: ip6.ULA(ip6.DefaultPrefix, dm)}
		orig, comp, back, err := compressRoundTrip(packet(h, sp, dp, payload), sm, dm)
		return err == nil && bytes.Equal(back, orig) && len(comp) < len(orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
