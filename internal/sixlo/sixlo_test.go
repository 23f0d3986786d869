package sixlo

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"blemesh/internal/ip6"
	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
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

func TestIPHCMulticastDst(t *testing.T) {
	src := ip6.LinkLocal(macA)
	h := ip6.Header{NextHeader: ip6.ProtoICMPv6, HopLimit: 1, Src: src, Dst: ip6.AllNodes}
	comp := roundTrip(t, packet(h, 0, 0, []byte{9}))
	// ff02::1 compresses to a single byte.
	if len(comp) != 2+1+1+1 {
		t.Fatalf("multicast frame = %d bytes", len(comp))
	}
}

func TestIPHCForeignAddressesInline(t *testing.T) {
	// Addresses outside every context must survive as full 128 bits.
	src := ip6.MustParseAddr("2001:db8::1")
	dst := ip6.MustParseAddr("2001:db8::2")
	h := ip6.Header{NextHeader: 99, HopLimit: 17, TrafficClass: 3,
		FlowLabel: 0x12345, Src: src, Dst: dst}
	roundTrip(t, packet(h, 0, 0, []byte("x")))
}

func TestIPHCHopLimitVariants(t *testing.T) {
	src := ip6.ULA(ip6.DefaultPrefix, macA)
	dst := ip6.ULA(ip6.DefaultPrefix, macB)
	for _, hl := range []byte{1, 2, 63, 64, 65, 255} {
		h := ip6.Header{NextHeader: ip6.ProtoUDP, HopLimit: hl, Src: src, Dst: dst}
		roundTrip(t, packet(h, 1000, 2000, []byte("p")))
	}
}

func TestUDPNHCPortModes(t *testing.T) {
	src := ip6.ULA(ip6.DefaultPrefix, macA)
	dst := ip6.ULA(ip6.DefaultPrefix, macB)
	cases := []struct {
		sp, dp uint16
		nhc    int // UDP NHC bytes: dispatch + ports + checksum
	}{
		{0xF0B1, 0xF0B2, 1 + 1 + 2}, // both 4-bit
		{1234, 0xF042, 1 + 3 + 2},   // dst 8-bit
		{0xF042, 5683, 1 + 3 + 2},   // src 8-bit
		{5683, 5683, 1 + 4 + 2},     // both 16-bit
	}
	for _, c := range cases {
		h := ip6.Header{NextHeader: ip6.ProtoUDP, HopLimit: 64, Src: src, Dst: dst}
		comp := roundTrip(t, packet(h, c.sp, c.dp, []byte("data")))
		// 2 IPHC + 1 CID; addresses and hop limit elided.
		if got := len(comp) - 3 - len("data"); got != c.nhc {
			t.Fatalf("ports %d/%d: UDP NHC of %d bytes, want %d", c.sp, c.dp, got, c.nhc)
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

func TestDecompressErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x99},             // unknown dispatch
		{dispatchIPHC},     // truncated IPHC
		{0x7F, 0xFF, 0x00}, // CID byte + impossible trailing state
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

func TestFragmentSmallFrameUntouched(t *testing.T) {
	frame := pktbuf.FromBytes(make([]byte, 80))
	frags, err := Fragment(frame, 102, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 || frags[0] != frame {
		t.Fatalf("small frame fragmented into %d pieces", len(frags))
	}
	frame.Put()
}

func TestFragmentAndReassemble(t *testing.T) {
	s := sim.New(1)
	r := NewReassembler(s, 4)
	frame := make([]byte, 1000)
	for i := range frame {
		frame[i] = byte(i * 7)
	}
	frags := mustFrag(t, frame, 42)
	if len(frags) < 10 {
		t.Fatalf("1000 bytes over 102-byte MTU should be ≥10 fragments, got %d", len(frags))
	}
	for _, f := range frags {
		if len(f) > 102 {
			t.Fatalf("fragment exceeds MTU: %d", len(f))
		}
		if !IsFragment(f) {
			t.Fatal("fragment not recognized")
		}
	}
	var out *pktbuf.Buf
	var pid uint64
	for i, f := range frags {
		out, pid = r.InputBufPID(macA, f, uint64(100+i))
	}
	if out == nil || !bytes.Equal(out.Bytes(), frame) {
		t.Fatal("reassembly mismatch")
	}
	out.Put()
	if pid != 100 {
		t.Fatalf("reassembled datagram carries pid %d, want the first fragment's 100", pid)
	}
	if r.Stats().Completed != 1 {
		t.Fatalf("completed=%d", r.Stats().Completed)
	}
}

// RFC 4944's datagram_size field is 11 bits: 2 047 bytes is the largest
// frame that can be fragmented, and a larger one must be refused rather
// than spill its high bits into the dispatch byte.
func TestFragmentDatagramSizeLimit(t *testing.T) {
	for _, c := range []struct {
		size int
		ok   bool
	}{{2047, true}, {2048, false}} {
		data := make([]byte, c.size)
		for i := range data {
			data[i] = byte(i * 13)
		}
		frame := pktbuf.FromBytes(data)
		frags, err := Fragment(frame, 102, 5)
		if !c.ok {
			if err == nil {
				t.Fatalf("%d-byte frame fragmented, want an error", c.size)
			}
			frame.Put() // an error leaves the frame with the caller
			continue
		}
		if err != nil {
			t.Fatalf("%d-byte frame: %v", c.size, err)
		}
		r := NewReassembler(sim.New(1), 4)
		var out *pktbuf.Buf
		for _, f := range frags {
			out, _ = r.InputBufPID(macA, f.Bytes(), 0)
			f.Put()
		}
		if out == nil || !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("%d-byte frame did not reassemble", c.size)
		}
		out.Put()
	}
}

// A fragment that overlaps bytes already held, at another offset, must drop
// the datagram: counting its bytes as new would complete the reassembly
// with a hole no fragment ever wrote.
func TestReassemblyOverlapDropped(t *testing.T) {
	r := NewReassembler(sim.New(1), 4)
	frag := func(off, n int) []byte {
		hl, d := fragNHeaderLen, dispatchFragN
		if off == 0 {
			hl, d = frag1HeaderLen, dispatchFrag1
		}
		b := make([]byte, hl+n)
		b[0], b[1] = d, 200 // datagram_size 200
		binary.BigEndian.PutUint16(b[2:], 9)
		if off > 0 {
			b[4] = byte(off / 8)
		}
		return b
	}
	// [0,96) + [8,104) + [104,112): 200 payload bytes for a 200-byte
	// datagram, of which bytes 112–199 were never sent.
	for _, f := range [][]byte{frag(0, 96), frag(8, 96), frag(104, 8)} {
		if out, _ := r.InputBufPID(macA, f, 0); out != nil {
			t.Fatalf("overlapping fragments completed a %d-byte datagram", out.Len())
		}
	}
	if st := r.Stats(); st.Completed != 0 || st.Dropped != 1 {
		t.Fatalf("stats %+v, want the overlap dropped once", st)
	}
	r.Reset()
}

func TestReassemblyInterleavedSenders(t *testing.T) {
	s := sim.New(1)
	r := NewReassembler(s, 4)
	f1 := mustFrag(t, bytes.Repeat([]byte{1}, 500), 7)
	f2 := mustFrag(t, bytes.Repeat([]byte{2}, 500), 7) // same tag, other sender
	var out1, out2 *pktbuf.Buf
	for i := range f1 {
		out1, _ = r.InputBufPID(macA, f1[i], 0)
		out2, _ = r.InputBufPID(macB, f2[i], 0)
	}
	if out1 == nil || out2 == nil {
		t.Fatal("interleaved reassembly failed")
	}
	if out1.Bytes()[0] != 1 || out2.Bytes()[0] != 2 {
		t.Fatal("reassemblies crossed senders")
	}
	out1.Put()
	out2.Put()
}

func TestReassemblyTimeout(t *testing.T) {
	s := sim.New(1)
	r := NewReassembler(s, 4)
	frags := mustFrag(t, make([]byte, 500), 9)
	r.InputBufPID(macA, frags[0], 0)
	s.Run(10 * sim.Second) // past the 5s timeout
	// Completing after timeout restarts the reassembly instead.
	for _, f := range frags[1:] {
		if out, _ := r.InputBufPID(macA, f, 0); out != nil {
			t.Fatal("stale reassembly completed after timeout")
		}
	}
	if r.Stats().Timeouts == 0 {
		t.Fatal("timeout not counted")
	}
	r.Reset()
}

func TestReassemblyDuplicateFragmentIgnored(t *testing.T) {
	s := sim.New(1)
	r := NewReassembler(s, 4)
	frags := mustFrag(t, make([]byte, 400), 3)
	r.InputBufPID(macA, frags[0], 0)
	if out, _ := r.InputBufPID(macA, frags[0], 0); out != nil {
		t.Fatal("duplicate completed a datagram")
	}
	var out *pktbuf.Buf
	for _, f := range frags[1:] {
		out, _ = r.InputBufPID(macA, f, 0)
	}
	if out == nil {
		t.Fatal("reassembly failed after duplicate")
	}
	out.Put()
	if r.Stats().Dropped != 0 {
		t.Fatalf("duplicate counted as a drop: %+v", r.Stats())
	}
}

func TestReassemblerTableBounded(t *testing.T) {
	s := sim.New(1)
	r := NewReassembler(s, 2)
	for tag := uint16(0); tag < 5; tag++ {
		frags := mustFrag(t, make([]byte, 300), tag)
		r.InputBufPID(macA, frags[0], 0) // leave all incomplete
	}
	if len(r.table) > 2 {
		t.Fatalf("table grew to %d, cap 2", len(r.table))
	}
	if r.Stats().Dropped == 0 {
		t.Fatal("overflow not counted")
	}
	r.Reset()
}

func TestQuickFragmentReassembleIdentity(t *testing.T) {
	f := func(data []byte, tag uint16, mtuRaw uint8) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		if len(data) > 2000 {
			data = data[:2000]
		}
		mtu := 30 + int(mtuRaw)%120
		r := NewReassembler(sim.New(int64(tag)), 4)
		frags, err := Fragment(pktbuf.FromBytes(data), mtu, tag)
		if err != nil {
			return false
		}
		var out *pktbuf.Buf
		ok := true
		for _, fr := range frags {
			ok = ok && fr.Len() <= mtu
			if len(frags) == 1 {
				out = fr
				break
			}
			out, _ = r.InputBufPID(macA, fr.Bytes(), 0)
			fr.Put()
		}
		ok = ok && out != nil && bytes.Equal(out.Bytes(), data)
		if out != nil {
			out.Put()
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// mustFrag fragments a copy of frame over a 102-byte MTU and returns the
// fragments' bytes, failing unless it took more than one. The pooled
// fragments are released when the test ends.
func mustFrag(t *testing.T, frame []byte, tag uint16) [][]byte {
	t.Helper()
	frags, err := Fragment(pktbuf.FromBytes(frame), 102, tag)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, f := range frags {
			f.Put()
		}
	})
	if len(frags) < 2 {
		t.Fatal("test frame did not fragment")
	}
	out := make([][]byte, len(frags))
	for i, f := range frags {
		out[i] = f.Bytes()
	}
	return out
}
