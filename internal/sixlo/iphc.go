// Package sixlo implements the 6LoWPAN adaptation layer both link layers
// share: IPHC header compression with UDP next-header compression (RFC
// 6282) for unicast destinations. It has no RFC 4944 fragmentation: over
// BLE (RFC 7668) L2CAP segments the packet, and over IEEE 802.15.4 the
// paper's packets fit one frame (§4.3), so the adapter drops a larger one.
// No program sends to a multicast group, so the multicast address modes are
// not implemented either.
//
// Both entry points work on pooled pktbuf buffers: CompressBuf rewrites
// the leading IPv6(+UDP) headers of a packet into their IPHC form in place,
// inside the buffer's reserved headroom, and DecompressBuf reverses it.
package sixlo

import (
	"encoding/binary"
	"fmt"

	"blemesh/internal/ip6"
	"blemesh/internal/pktbuf"
)

// Dispatch values.
const (
	dispatchIPv6 byte = 0x41 // uncompressed IPv6 follows
	dispatchIPHC byte = 0x60 // 011xxxxx: IPHC compressed header
	maskIPHC     byte = 0xE0
)

// Context is one 6LoWPAN compression context: a shared prefix that can be
// elided from addresses. The experiments install fd00::/64 as context 0 on
// every node.
type Context struct {
	Prefix ip6.Addr
	Len    int // prefix length in bits (only /64 contexts are supported)
}

// DefaultContexts is the context table the experiments use.
var DefaultContexts = []Context{{Prefix: ip6.DefaultPrefix, Len: 64}}

// IPHC byte-0 fields.
const (
	tfElided byte = 0x18 // TF=11
	tfTCOnly byte = 0x10 // TF=10: traffic class inline (1 byte)
	tfFull   byte = 0x00 // TF=00: 4 bytes inline
	nhComp   byte = 0x04 // next header compressed (NHC follows)
	hlimIn   byte = 0x00
	hlim1    byte = 0x01
	hlim64   byte = 0x02
	hlim255  byte = 0x03
)

// IPHC byte-1 fields.
const (
	cidExt byte = 0x80
	sac    byte = 0x40
	samOff      = 4
	mcast  byte = 0x08
	dac    byte = 0x04
	damOff      = 0
)

// Address compression modes.
const (
	amFull   byte = 0 // 128 bits inline
	am64     byte = 1 // 64 bits inline, prefix from context/link-local
	am16     byte = 2 // 16 bits inline (::ff:fe00:XXXX IID)
	amElided byte = 3 // fully derived from the link-layer address
)

// udpNHCBase is the UDP NHC dispatch 11110CPP.
const udpNHCBase byte = 0xF0

// maxIPHCHeaderLen bounds the compressed header: dispatch(2) + CID(1) +
// TF(4) + NH(1) + HLIM(1) + src(16) + dst(16) + UDP NHC(7) = 48. A
// compressed UDP header always fits in the 48 bytes of IPv6+UDP header it
// replaces; a compressed non-UDP header may exceed the 40 bytes it replaces
// by at most 1 byte, which the pktbuf headroom absorbs.
const maxIPHCHeaderLen = 48

// compressInto computes the IPHC (and, for UDP, NHC) header for pkt and
// writes it into hdr, which must hold at least maxIPHCHeaderLen bytes. It
// returns the header length, the count of leading packet bytes the header
// replaces (40, or 48 when the UDP header is compressed too), and the
// packet's total length per its IPv6 length field. A multicast destination
// is an error.
func compressInto(pkt []byte, srcMAC, dstMAC uint64, ctxs []Context, hdr []byte) (hdrLen, consumed, total int, err error) {
	h, payload, err := ip6.Decode(pkt)
	if err != nil {
		return 0, 0, 0, err
	}
	if h.Dst.IsMulticast() {
		return 0, 0, 0, fmt.Errorf("sixlo: multicast destination %v", h.Dst)
	}
	var b0, b1 byte
	b0 = dispatchIPHC

	// Address modes first: they decide whether the CID byte is present.
	srcAM, srcCtx := addrMode(h.Src, srcMAC, ctxs)
	b1 |= srcAM << samOff
	if srcCtx >= 0 {
		b1 |= sac
	}
	dstAM, dstCtx := addrMode(h.Dst, dstMAC, ctxs)
	if dstCtx >= 0 {
		b1 |= dac
	}
	b1 |= dstAM << damOff

	// Next header: UDP gets NHC; everything else inline.
	compressUDP := h.NextHeader == ip6.ProtoUDP && len(payload) >= ip6.UDPHeaderLen
	if compressUDP {
		b0 |= nhComp
	}

	n := 2
	// Context extension byte (we only use context 0, so SCI=DCI=0, but
	// the byte must be present whenever SAC or DAC is set).
	if b1&(sac|dac) != 0 {
		b1 |= cidExt
		sci, dci := byte(0), byte(0)
		if srcCtx > 0 {
			sci = byte(srcCtx)
		}
		if dstCtx > 0 {
			dci = byte(dstCtx)
		}
		hdr[n] = sci<<4 | dci
		n++
	}

	// Traffic class / flow label.
	switch {
	case h.TrafficClass == 0 && h.FlowLabel == 0:
		b0 |= tfElided
	case h.FlowLabel == 0:
		b0 |= tfTCOnly
		hdr[n] = h.TrafficClass
		n++
	default:
		b0 |= tfFull
		hdr[n] = h.TrafficClass
		hdr[n+1] = byte(h.FlowLabel>>16) & 0x0F
		hdr[n+2] = byte(h.FlowLabel >> 8)
		hdr[n+3] = byte(h.FlowLabel)
		n += 4
	}

	if !compressUDP {
		hdr[n] = h.NextHeader
		n++
	}

	// Hop limit.
	switch h.HopLimit {
	case 1:
		b0 |= hlim1
	case 64:
		b0 |= hlim64
	case 255:
		b0 |= hlim255
	default:
		b0 |= hlimIn
		hdr[n] = h.HopLimit
		n++
	}

	n += putAddr(hdr[n:], h.Src, srcAM)
	n += putAddr(hdr[n:], h.Dst, dstAM)

	hdr[0], hdr[1] = b0, b1
	consumed = ip6.HeaderLen
	if compressUDP {
		srcPort := binary.BigEndian.Uint16(payload[0:])
		dstPort := binary.BigEndian.Uint16(payload[2:])
		switch {
		case srcPort&0xFFF0 == 0xF0B0 && dstPort&0xFFF0 == 0xF0B0:
			// Both ports in the 4-bit range.
			hdr[n] = udpNHCBase | 0x03
			hdr[n+1] = byte(srcPort&0x0F)<<4 | byte(dstPort&0x0F)
			n += 2
		case dstPort&0xFF00 == 0xF000:
			hdr[n] = udpNHCBase | 0x01
			hdr[n+1], hdr[n+2], hdr[n+3] = byte(srcPort>>8), byte(srcPort), byte(dstPort)
			n += 4
		case srcPort&0xFF00 == 0xF000:
			hdr[n] = udpNHCBase | 0x02
			hdr[n+1], hdr[n+2], hdr[n+3] = byte(srcPort), byte(dstPort>>8), byte(dstPort)
			n += 4
		default:
			hdr[n] = udpNHCBase
			hdr[n+1], hdr[n+2] = byte(srcPort>>8), byte(srcPort)
			hdr[n+3], hdr[n+4] = byte(dstPort>>8), byte(dstPort)
			n += 5
		}
		// The checksum is always carried inline (C=0) — RFC 6282 only
		// allows elision with upper-layer authorization.
		hdr[n], hdr[n+1] = payload[6], payload[7]
		n += 2
		consumed += ip6.UDPHeaderLen
	}
	return n, consumed, ip6.HeaderLen + h.PayloadLen, nil
}

// CompressBuf rewrites b in place into its 6LoWPAN IPHC form: the leading
// IPv6 (and, when compressible, UDP) headers are replaced by the compressed
// header, with any extra length taken from the buffer's headroom.
// Unsupported shapes fall back to less compressed but always valid
// encodings; a multicast destination is an error, and b is left as it was.
// srcMAC and dstMAC are the link-layer addresses of this hop, needed to
// elide IID-derived addresses.
func CompressBuf(b *pktbuf.Buf, srcMAC, dstMAC uint64, ctxs []Context) error {
	var hdr [maxIPHCHeaderLen]byte
	hl, consumed, total, err := compressInto(b.Bytes(), srcMAC, dstMAC, ctxs, hdr[:])
	if err != nil {
		return err
	}
	b.Trim(total) // honour the IPv6 length field
	b.TrimFront(consumed)
	copy(b.Prepend(hl), hdr[:hl])
	return nil
}

// linkLocalPrefix is fe80::/64, the prefix the stateless address modes
// rebuild; the rest of fe80::/10 is carried inline.
var linkLocalPrefix = ip6.Addr{0xfe, 0x80}

// addrMode picks the tightest stateless or context-based encoding.
func addrMode(a ip6.Addr, mac uint64, ctxs []Context) (am byte, ctx int) {
	ctx = -1
	var prefixOK bool
	if ip6.SamePrefix(a, linkLocalPrefix) {
		prefixOK = true
	} else {
		for i, c := range ctxs {
			if ip6.SamePrefix(a, c.Prefix) {
				ctx = i
				prefixOK = true
				break
			}
		}
	}
	if !prefixOK {
		return amFull, -1
	}
	if m, ok := a.MAC(); ok && m == mac {
		return amElided, ctx
	}
	// ::ff:fe00:XXXX style IIDs compress to 16 bits.
	if a[8] == 0 && a[9] == 0 && a[10] == 0 && a[11] == 0xff && a[12] == 0xfe && a[13] == 0 {
		return am16, ctx
	}
	return am64, ctx
}

// putAddr writes the inline bytes of a unicast address for the given mode.
func putAddr(dst []byte, a ip6.Addr, am byte) int {
	switch am {
	case amFull:
		return copy(dst, a[:])
	case am64:
		return copy(dst, a[8:16])
	case am16:
		return copy(dst, a[14:16])
	}
	return 0 // amElided
}

// udpNHCInfo carries a parsed UDP NHC header out of decompressHeader.
type udpNHCInfo struct {
	present          bool
	srcPort, dstPort uint16
	ck0, ck1         byte
}

// decompressHeader parses an IPHC frame's compressed header (including a
// trailing UDP NHC when present) and returns the reconstructed IPv6 header,
// the number of frame bytes consumed, and the UDP header fields.
func decompressHeader(frame []byte, srcMAC, dstMAC uint64, ctxs []Context) (h ip6.Header, consumed int, u udpNHCInfo, err error) {
	if len(frame) < 2 {
		return h, 0, u, fmt.Errorf("sixlo: IPHC frame too short")
	}
	b0, b1 := frame[0], frame[1]
	p := 2

	sci, dci := 0, 0
	if b1&cidExt != 0 {
		if p+1 > len(frame) {
			return h, 0, u, truncErr(p)
		}
		sci, dci = int(frame[p]>>4), int(frame[p]&0x0F)
		p++
	}

	switch b0 & 0x18 {
	case tfElided:
	case tfTCOnly:
		if p+1 > len(frame) {
			return h, 0, u, truncErr(p)
		}
		h.TrafficClass = frame[p]
		p++
	case tfFull:
		if p+4 > len(frame) {
			return h, 0, u, truncErr(p)
		}
		h.TrafficClass = frame[p]
		h.FlowLabel = uint32(frame[p+1]&0x0F)<<16 | uint32(frame[p+2])<<8 | uint32(frame[p+3])
		p += 4
	default:
		return h, 0, u, fmt.Errorf("sixlo: unsupported TF mode")
	}

	udpNHC := b0&nhComp != 0
	if !udpNHC {
		if p+1 > len(frame) {
			return h, 0, u, truncErr(p)
		}
		h.NextHeader = frame[p]
		p++
	}

	switch b0 & 0x03 {
	case hlim1:
		h.HopLimit = 1
	case hlim64:
		h.HopLimit = 64
	case hlim255:
		h.HopLimit = 255
	default:
		if p+1 > len(frame) {
			return h, 0, u, truncErr(p)
		}
		h.HopLimit = frame[p]
		p++
	}

	var n int
	h.Src, n, err = readAddr(frame[p:], (b1>>samOff)&0x03, b1&sac != 0, sci, srcMAC, ctxs, p)
	if err != nil {
		return h, 0, u, err
	}
	p += n
	if b1&mcast != 0 {
		return h, 0, u, fmt.Errorf("sixlo: multicast destination (M=1) not supported")
	}
	h.Dst, n, err = readAddr(frame[p:], (b1>>damOff)&0x03, b1&dac != 0, dci, dstMAC, ctxs, p)
	if err != nil {
		return h, 0, u, err
	}
	p += n

	if udpNHC {
		n, err = readUDPNHC(frame[p:], &u)
		if err != nil {
			return h, 0, u, err
		}
		p += n
		h.NextHeader = ip6.ProtoUDP
		u.present = true
	}
	return h, p, u, nil
}

func truncErr(p int) error {
	return fmt.Errorf("sixlo: IPHC truncated at offset %d", p)
}

// DecompressBuf reconstructs the full IPv6 packet in place: the compressed
// header at the front of b is replaced by the expanded IPv6 (and UDP)
// headers, drawing on the buffer's headroom. Received frames therefore need
// at least 48 bytes of headroom; pktbuf.DefaultHeadroom provides it.
func DecompressBuf(b *pktbuf.Buf, srcMAC, dstMAC uint64, ctxs []Context) error {
	fr := b.Bytes()
	if len(fr) == 0 {
		return fmt.Errorf("sixlo: empty frame")
	}
	if fr[0] == dispatchIPv6 {
		if _, _, err := ip6.Decode(fr[1:]); err != nil {
			return err
		}
		b.TrimFront(1)
		return nil
	}
	if fr[0]&maskIPHC != dispatchIPHC {
		return fmt.Errorf("sixlo: unknown dispatch %#x", fr[0])
	}
	h, consumed, u, err := decompressHeader(fr, srcMAC, dstMAC, ctxs)
	if err != nil {
		return err
	}
	b.TrimFront(consumed)
	if u.present {
		ud := b.Prepend(ip6.UDPHeaderLen)
		binary.BigEndian.PutUint16(ud[0:], u.srcPort)
		binary.BigEndian.PutUint16(ud[2:], u.dstPort)
		binary.BigEndian.PutUint16(ud[4:], uint16(b.Len()))
		ud[6], ud[7] = u.ck0, u.ck1
	}
	pl := b.Len()
	h.Put(b.Prepend(ip6.HeaderLen), pl)
	return nil
}

// readAddr decodes a unicast address's inline bytes. off is the absolute
// frame offset of b, for error messages only.
func readAddr(b []byte, am byte, hasCtx bool, ci int, mac uint64, ctxs []Context, off int) (ip6.Addr, int, error) {
	var prefix ip6.Addr
	if hasCtx {
		if ci >= len(ctxs) {
			return ip6.Addr{}, 0, fmt.Errorf("sixlo: unknown context %d", ci)
		}
		prefix = ctxs[ci].Prefix
	} else {
		prefix[0], prefix[1] = 0xfe, 0x80
	}
	switch am {
	case amFull:
		if len(b) < 16 {
			return ip6.Addr{}, 0, truncErr(off)
		}
		var a ip6.Addr
		copy(a[:], b[:16])
		return a, 16, nil
	case am64:
		if len(b) < 8 {
			return ip6.Addr{}, 0, truncErr(off)
		}
		a := prefix
		copy(a[8:], b[:8])
		return a, 8, nil
	case am16:
		if len(b) < 2 {
			return ip6.Addr{}, 0, truncErr(off)
		}
		a := prefix
		a[11], a[12] = 0xff, 0xfe
		a[14], a[15] = b[0], b[1]
		return a, 2, nil
	default: // amElided
		a := prefix
		iid := ip6.IIDFromMAC(mac)
		copy(a[8:], iid[:])
		return a, 0, nil
	}
}

// readUDPNHC parses a UDP NHC header into u (ports and inline checksum).
func readUDPNHC(b []byte, u *udpNHCInfo) (int, error) {
	if len(b) < 1 {
		return 0, fmt.Errorf("sixlo: missing UDP NHC")
	}
	if b[0]&0xF8 != udpNHCBase {
		return 0, fmt.Errorf("sixlo: bad UDP NHC dispatch %#x", b[0])
	}
	mode := b[0] & 0x03
	p := 1
	need := func(n int) error {
		if p+n > len(b) {
			return fmt.Errorf("sixlo: UDP NHC truncated")
		}
		return nil
	}
	switch mode {
	case 0x03:
		if err := need(1); err != nil {
			return 0, err
		}
		u.srcPort = 0xF0B0 | uint16(b[p]>>4)
		u.dstPort = 0xF0B0 | uint16(b[p]&0x0F)
		p++
	case 0x01:
		if err := need(3); err != nil {
			return 0, err
		}
		u.srcPort = uint16(b[p])<<8 | uint16(b[p+1])
		u.dstPort = 0xF000 | uint16(b[p+2])
		p += 3
	case 0x02:
		if err := need(3); err != nil {
			return 0, err
		}
		u.srcPort = 0xF000 | uint16(b[p])
		u.dstPort = uint16(b[p+1])<<8 | uint16(b[p+2])
		p += 3
	default:
		if err := need(4); err != nil {
			return 0, err
		}
		u.srcPort = uint16(b[p])<<8 | uint16(b[p+1])
		u.dstPort = uint16(b[p+2])<<8 | uint16(b[p+3])
		p += 4
	}
	if err := need(2); err != nil {
		return 0, err
	}
	u.ck0, u.ck1 = b[p], b[p+1]
	return p + 2, nil
}
