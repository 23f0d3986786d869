// Package sixlo implements the 6LoWPAN adaptation layer both link layers
// share: IPHC header compression with UDP next-header compression (RFC
// 6282) for unicast destinations. It has no RFC 4944 fragmentation: over
// BLE (RFC 7668) L2CAP segments the packet, and over IEEE 802.15.4 the
// paper's packets fit one frame (§4.3), so the adapter drops a larger one.
// No program sends to a multicast group, so the multicast address modes are
// not implemented either. Of the unicast encodings, only those the traffic
// takes are: traffic class and flow label elided, every hop-limit mode,
// fe80::/64 or context-0 addresses elided or with their IID inline, and UDP
// ports inline. Any other header goes out whole after the uncompressed
// dispatch, and the decoder refuses the other encodings.
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

// IPHC byte-0 fields. Only TF=11 is sent: a traffic class or flow label
// takes the uncompressed dispatch.
const (
	tfElided byte = 0x18 // TF=11
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

// Address compression modes: the two the traffic's addresses take, both
// with a fe80::/64 or context-0 prefix. An address under any other prefix
// takes the uncompressed dispatch.
const (
	am64     byte = 1 // 64 bits inline, prefix from context/link-local
	amElided byte = 3 // fully derived from the link-layer address
)

// udpNHCBase is the UDP NHC dispatch 11110CPP. Only C=0, P=00 is sent:
// both ports and the checksum inline.
const udpNHCBase byte = 0xF0

// maxIPHCHeaderLen bounds the compressed header: dispatch(2) + CID(1) +
// NH(1) + HLIM(1) + src(8) + dst(8) + UDP NHC(7) = 28, within the 40 bytes
// of IPv6 header it replaces. The uncompressed dispatch is 1 byte, which the
// pktbuf headroom absorbs.
const maxIPHCHeaderLen = 28

// compressInto computes the IPHC (and, for UDP, NHC) header for pkt and
// writes it into hdr, which must hold at least maxIPHCHeaderLen bytes. It
// returns the header length, the count of leading packet bytes the header
// replaces (40, or 48 when the UDP header is compressed too), and the
// packet's total length per its IPv6 length field. A header with a traffic
// class, a flow label or an address outside fe80::/64 and context 0's
// prefix gets the uncompressed dispatch, which replaces nothing. A
// multicast destination is an error.
func compressInto(pkt []byte, srcMAC, dstMAC uint64, ctxs []Context, hdr []byte) (hdrLen, consumed, total int, err error) {
	h, payload, err := ip6.Decode(pkt)
	if err != nil {
		return 0, 0, 0, err
	}
	if h.Dst.IsMulticast() {
		return 0, 0, 0, fmt.Errorf("sixlo: multicast destination %v", h.Dst)
	}
	total = ip6.HeaderLen + h.PayloadLen
	srcAM, srcCtx, srcOK := addrMode(h.Src, srcMAC, ctxs)
	dstAM, dstCtx, dstOK := addrMode(h.Dst, dstMAC, ctxs)
	if h.TrafficClass != 0 || h.FlowLabel != 0 || !srcOK || !dstOK {
		hdr[0] = dispatchIPv6
		return 1, 0, total, nil
	}
	b0 := dispatchIPHC | tfElided
	b1 := srcAM<<samOff | dstAM<<damOff
	n := 2
	// Context extension byte: SCI=DCI=0, but the byte is present whenever
	// SAC or DAC is set.
	if srcCtx || dstCtx {
		b1 |= cidExt
		if srcCtx {
			b1 |= sac
		}
		if dstCtx {
			b1 |= dac
		}
		hdr[n] = 0
		n++
	}

	// Next header: UDP gets NHC; everything else inline.
	compressUDP := h.NextHeader == ip6.ProtoUDP && len(payload) >= ip6.UDPHeaderLen
	if compressUDP {
		b0 |= nhComp
	} else {
		hdr[n] = h.NextHeader
		n++
	}

	// Hop limit. Routing loops during RPL repair bring packets down to 1.
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

	if srcAM == am64 {
		n += copy(hdr[n:], h.Src[8:])
	}
	if dstAM == am64 {
		n += copy(hdr[n:], h.Dst[8:])
	}

	hdr[0], hdr[1] = b0, b1
	consumed = ip6.HeaderLen
	if compressUDP {
		// Ports inline; the checksum too (C=0) — RFC 6282 only allows its
		// elision with upper-layer authorization.
		hdr[n] = udpNHCBase
		copy(hdr[n+1:n+5], payload[0:4])
		hdr[n+5], hdr[n+6] = payload[6], payload[7]
		n += 7
		consumed += ip6.UDPHeaderLen
	}
	return n, consumed, total, nil
}

// CompressBuf rewrites b in place into its 6LoWPAN form: the leading IPv6
// (and, when compressible, UDP) headers are replaced by the IPHC header, or
// prefixed by the uncompressed dispatch, with any extra length taken from
// the buffer's headroom. A multicast destination is an error, and b is left
// as it was. srcMAC and dstMAC are the link-layer addresses of this hop,
// needed to elide IID-derived addresses.
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
// rebuild; the rest of fe80::/10 takes the uncompressed dispatch.
var linkLocalPrefix = ip6.Addr{0xfe, 0x80}

// addrMode picks a unicast address's encoding: elided when this hop's
// link-layer address derives it, else its IID inline. ctx reports context
// 0's prefix rather than fe80::/64; ok is false for any other prefix.
func addrMode(a ip6.Addr, mac uint64, ctxs []Context) (am byte, ctx, ok bool) {
	switch {
	case ip6.SamePrefix(a, linkLocalPrefix):
	case len(ctxs) > 0 && ip6.SamePrefix(a, ctxs[0].Prefix):
		ctx = true
	default:
		return 0, false, false
	}
	if m, isMAC := a.MAC(); isMAC && m == mac {
		return amElided, ctx, true
	}
	return am64, ctx, true
}

// udpNHCInfo carries a parsed UDP NHC header out of decompressHeader.
type udpNHCInfo struct {
	present          bool
	srcPort, dstPort uint16
	ck0, ck1         byte
}

// decompressHeader parses an IPHC frame's compressed header (including a
// trailing UDP NHC when present) and returns the reconstructed IPv6 header,
// the number of frame bytes consumed, and the UDP header fields. The
// encodings compressInto never sends are errors.
func decompressHeader(frame []byte, srcMAC, dstMAC uint64, ctxs []Context) (h ip6.Header, consumed int, u udpNHCInfo, err error) {
	if len(frame) < 2 {
		return h, 0, u, fmt.Errorf("sixlo: IPHC frame too short")
	}
	b0, b1 := frame[0], frame[1]
	p := 2
	if b0&0x18 != tfElided {
		return h, 0, u, fmt.Errorf("sixlo: unsupported TF mode %#x", b0&0x18)
	}
	if b1&cidExt != 0 {
		if p+1 > len(frame) {
			return h, 0, u, truncErr(p)
		}
		if frame[p] != 0 {
			return h, 0, u, fmt.Errorf("sixlo: unsupported contexts %#x", frame[p])
		}
		p++
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
	h.Src, n, err = readAddr(frame[p:], (b1>>samOff)&0x03, b1&sac != 0, srcMAC, ctxs, p)
	if err != nil {
		return h, 0, u, err
	}
	p += n
	if b1&mcast != 0 {
		return h, 0, u, fmt.Errorf("sixlo: multicast destination (M=1) not supported")
	}
	h.Dst, n, err = readAddr(frame[p:], (b1>>damOff)&0x03, b1&dac != 0, dstMAC, ctxs, p)
	if err != nil {
		return h, 0, u, err
	}
	p += n

	if udpNHC {
		if len(frame) < p+7 {
			return h, 0, u, truncErr(p)
		}
		if frame[p] != udpNHCBase {
			return h, 0, u, fmt.Errorf("sixlo: unsupported UDP NHC %#x", frame[p])
		}
		u = udpNHCInfo{
			present: true,
			srcPort: binary.BigEndian.Uint16(frame[p+1:]),
			dstPort: binary.BigEndian.Uint16(frame[p+3:]),
			ck0:     frame[p+5],
			ck1:     frame[p+6],
		}
		p += 7
		h.NextHeader = ip6.ProtoUDP
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
func readAddr(b []byte, am byte, hasCtx bool, mac uint64, ctxs []Context, off int) (ip6.Addr, int, error) {
	prefix := linkLocalPrefix
	if hasCtx {
		if len(ctxs) == 0 {
			return ip6.Addr{}, 0, fmt.Errorf("sixlo: unknown context 0")
		}
		prefix = ctxs[0].Prefix
	}
	switch am {
	case am64:
		if len(b) < 8 {
			return ip6.Addr{}, 0, truncErr(off)
		}
		a := prefix
		copy(a[8:], b[:8])
		return a, 8, nil
	case amElided:
		a := prefix
		iid := ip6.IIDFromMAC(mac)
		copy(a[8:], iid[:])
		return a, 0, nil
	}
	return ip6.Addr{}, 0, fmt.Errorf("sixlo: unsupported address mode %d", am)
}
