package ip6

import (
	"encoding/binary"
	"fmt"
)

// Next-header protocol numbers.
const (
	ProtoUDP    byte = 17
	ProtoICMPv6 byte = 58
)

// HeaderLen is the fixed IPv6 header size.
const HeaderLen = 40

// UDPHeaderLen is the UDP header size.
const UDPHeaderLen = 8

// Header is a decoded IPv6 base header.
type Header struct {
	TrafficClass byte
	FlowLabel    uint32
	PayloadLen   int
	NextHeader   byte
	HopLimit     byte
	Src, Dst     Addr
}

// Put serialises the header into out (which must hold HeaderLen bytes) for
// a payload of payloadLen bytes, without touching the payload itself. This
// is the allocation-free core used by the pktbuf datapath to materialise a
// header directly into a buffer's headroom.
func (h *Header) Put(out []byte, payloadLen int) {
	out[0] = 0x60 | h.TrafficClass>>4
	out[1] = h.TrafficClass<<4 | byte(h.FlowLabel>>16)
	out[2] = byte(h.FlowLabel >> 8)
	out[3] = byte(h.FlowLabel)
	binary.BigEndian.PutUint16(out[4:], uint16(payloadLen))
	out[6] = h.NextHeader
	out[7] = h.HopLimit
	copy(out[8:24], h.Src[:])
	copy(out[24:40], h.Dst[:])
}

// Decode parses an IPv6 packet into its header and payload slice.
func Decode(pkt []byte) (Header, []byte, error) {
	if len(pkt) < HeaderLen {
		return Header{}, nil, fmt.Errorf("ip6: packet shorter than header (%d)", len(pkt))
	}
	if pkt[0]>>4 != 6 {
		return Header{}, nil, fmt.Errorf("ip6: version %d", pkt[0]>>4)
	}
	var h Header
	h.TrafficClass = pkt[0]<<4 | pkt[1]>>4
	h.FlowLabel = uint32(pkt[1]&0x0f)<<16 | uint32(pkt[2])<<8 | uint32(pkt[3])
	h.PayloadLen = int(binary.BigEndian.Uint16(pkt[4:]))
	h.NextHeader = pkt[6]
	h.HopLimit = pkt[7]
	copy(h.Src[:], pkt[8:24])
	copy(h.Dst[:], pkt[24:40])
	if len(pkt)-HeaderLen < h.PayloadLen {
		return Header{}, nil, fmt.Errorf("ip6: truncated payload (%d < %d)", len(pkt)-HeaderLen, h.PayloadLen)
	}
	return h, pkt[HeaderLen : HeaderLen+h.PayloadLen], nil
}

// UDPHeader is a decoded UDP header.
type UDPHeader struct {
	SrcPort, DstPort uint16
	Checksum         uint16
}

// PutUDP fills in the UDP header at the front of dgram (whose remaining
// bytes are the already-placed payload), computing the pseudo-header
// checksum without materialising the pseudo-header.
func PutUDP(src, dst Addr, srcPort, dstPort uint16, dgram []byte) {
	binary.BigEndian.PutUint16(dgram[0:], srcPort)
	binary.BigEndian.PutUint16(dgram[2:], dstPort)
	binary.BigEndian.PutUint16(dgram[4:], uint16(len(dgram)))
	dgram[6], dgram[7] = 0, 0
	ck := checksumPseudo(src, dst, len(dgram), ProtoUDP, dgram)
	if ck == 0 {
		ck = 0xffff
	}
	binary.BigEndian.PutUint16(dgram[6:], ck)
}

// DecodeUDP parses and verifies a UDP datagram.
func DecodeUDP(src, dst Addr, dgram []byte) (UDPHeader, []byte, error) {
	if len(dgram) < UDPHeaderLen {
		return UDPHeader{}, nil, fmt.Errorf("ip6: UDP datagram too short (%d)", len(dgram))
	}
	ln := int(binary.BigEndian.Uint16(dgram[4:]))
	if ln < UDPHeaderLen || ln > len(dgram) {
		return UDPHeader{}, nil, fmt.Errorf("ip6: UDP length field %d invalid", ln)
	}
	h := UDPHeader{
		SrcPort:  binary.BigEndian.Uint16(dgram[0:]),
		DstPort:  binary.BigEndian.Uint16(dgram[2:]),
		Checksum: binary.BigEndian.Uint16(dgram[6:]),
	}
	// A zero checksum field means "not computed", which IPv6 forbids
	// (RFC 8200 §8.1): such a datagram is discarded, not accepted unverified.
	if h.Checksum == 0 || checksumPseudo(src, dst, ln, ProtoUDP, dgram[:ln]) != 0 {
		return UDPHeader{}, nil, fmt.Errorf("ip6: UDP checksum mismatch")
	}
	return h, dgram[UDPHeaderLen:ln], nil
}

// ICMPv6 types we implement.
const (
	ICMPEchoRequest byte = 128
	ICMPEchoReply   byte = 129
)

// ICMPEcho is a decoded echo request/reply.
type ICMPEcho struct {
	Type    byte
	ID, Seq uint16
	Data    []byte
}

// putEcho writes the ICMPv6 echo message e, checksum included, into out,
// which must hold exactly 8+len(e.Data) bytes.
func putEcho(out []byte, src, dst Addr, e ICMPEcho) {
	out[0], out[1], out[2], out[3] = e.Type, 0, 0, 0
	binary.BigEndian.PutUint16(out[4:], e.ID)
	binary.BigEndian.PutUint16(out[6:], e.Seq)
	copy(out[8:], e.Data)
	binary.BigEndian.PutUint16(out[2:], checksumPseudo(src, dst, len(out), ProtoICMPv6, out))
}

// DecodeICMPEcho parses and verifies an ICMPv6 echo message.
func DecodeICMPEcho(src, dst Addr, b []byte) (ICMPEcho, error) {
	if len(b) < 8 {
		return ICMPEcho{}, fmt.Errorf("ip6: ICMPv6 too short")
	}
	if b[0] != ICMPEchoRequest && b[0] != ICMPEchoReply {
		return ICMPEcho{}, fmt.Errorf("ip6: unsupported ICMPv6 type %d", b[0])
	}
	if checksumPseudo(src, dst, len(b), ProtoICMPv6, b) != 0 {
		return ICMPEcho{}, fmt.Errorf("ip6: ICMPv6 checksum mismatch")
	}
	return ICMPEcho{
		Type: b[0],
		ID:   binary.BigEndian.Uint16(b[4:]),
		Seq:  binary.BigEndian.Uint16(b[6:]),
		Data: b[8:],
	}, nil
}

// checksumPseudo computes the Internet checksum of the IPv6 pseudo-header
// (source, destination, upper-layer length, next header) followed by data,
// without materialising the pseudo-header.
func checksumPseudo(src, dst Addr, upperLen int, proto byte, data []byte) uint16 {
	var sum uint32
	for i := 0; i < 16; i += 2 {
		sum += uint32(src[i])<<8 | uint32(src[i+1])
		sum += uint32(dst[i])<<8 | uint32(dst[i+1])
	}
	sum += uint32(upperLen >> 16)
	sum += uint32(upperLen & 0xffff)
	sum += uint32(proto)
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
