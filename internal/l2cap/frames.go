// Package l2cap implements the subset of the Logical Link Control and
// Adaptation Protocol that IPv6-over-BLE depends on: LE credit-based
// connection-oriented channels (RFC 7668's transport), including the
// channel-open handshake, SDU segmentation/reassembly into K-frames, and
// credit-based flow control. The paper calls this layer "a pipe" that
// guarantees full-duplex, reliable, in-order transfer of IP data (§2.1).
//
// Frames are encoded to real bytes (little-endian, per the Bluetooth
// specification layout) so the airtime the simulator charges matches what a
// production stack would put on the air.
package l2cap

import (
	"encoding/binary"
	"fmt"

	"blemesh/internal/pktbuf"
)

// Channel identifiers.
const (
	// CIDSignaling is the LE signaling channel.
	CIDSignaling uint16 = 0x0005
	// FirstDynamicCID is the first dynamically allocated channel ID.
	FirstDynamicCID uint16 = 0x0040
	// PSMIPSP is the protocol/service multiplexer of the Internet
	// Protocol Support Profile.
	PSMIPSP uint16 = 0x0023
)

// Signaling opcodes (LE subset).
const (
	codeConnReq    byte = 0x14 // LE credit based connection request
	codeConnRsp    byte = 0x15 // LE credit based connection response
	codeFlowCredit byte = 0x16 // LE flow control credit
)

// basicHeaderLen is the L2CAP basic header: Length(2) + CID(2).
const basicHeaderLen = 4

// sduHeaderLen is the SDU length prefix of the first K-frame of an SDU.
const sduHeaderLen = 2

// connResult codes for the connection response.
const (
	resultSuccess     uint16 = 0x0000
	resultRefusedPSM  uint16 = 0x0002
	resultNoResources uint16 = 0x0004
)

// pdu is a decoded L2CAP PDU.
type pdu struct {
	cid     uint16
	payload []byte
}

// prependBasicHeader turns the PDU payload in b into a PDU for channel cid by
// prepending the basic header in place.
func prependBasicHeader(b *pktbuf.Buf, cid uint16) {
	n := b.Len()
	hdr := b.Prepend(basicHeaderLen)
	binary.LittleEndian.PutUint16(hdr[0:], uint16(n))
	binary.LittleEndian.PutUint16(hdr[2:], cid)
}

// decodePDU parses a complete L2CAP PDU.
func decodePDU(b []byte) (pdu, error) {
	if len(b) < basicHeaderLen {
		return pdu{}, fmt.Errorf("l2cap: PDU shorter than basic header (%d bytes)", len(b))
	}
	ln := int(binary.LittleEndian.Uint16(b[0:]))
	cid := binary.LittleEndian.Uint16(b[2:])
	if len(b)-basicHeaderLen != ln {
		return pdu{}, fmt.Errorf("l2cap: PDU length field %d != payload %d", ln, len(b)-basicHeaderLen)
	}
	return pdu{cid: cid, payload: b[basicHeaderLen:]}, nil
}

// pduLength returns the total PDU size once the basic header of a partially
// received PDU is available.
func pduLength(header []byte) int {
	return basicHeaderLen + int(binary.LittleEndian.Uint16(header[0:]))
}

// signal is a decoded signaling command.
type signal struct {
	code byte
	id   byte
	// Connection request/response fields.
	psm     uint16
	scid    uint16
	dcid    uint16
	mtu     uint16
	mps     uint16
	credits uint16
	result  uint16
	// Flow credit fields reuse cid/credits.
	cid uint16
}

// encodeSignal writes a signaling command into a pooled buffer, with the
// default headroom for the basic header; ownership passes to the caller.
func encodeSignal(s signal) *pktbuf.Buf {
	var bodyLen int
	switch s.code {
	case codeConnReq, codeConnRsp:
		bodyLen = 10
	case codeFlowCredit:
		bodyLen = 4
	default:
		panic(fmt.Sprintf("l2cap: encode of unknown signal code %#x", s.code))
	}
	b := pktbuf.Get(pktbuf.DefaultHeadroom, 4+bodyLen)
	out := b.Bytes()
	out[0] = s.code
	out[1] = s.id
	binary.LittleEndian.PutUint16(out[2:], uint16(bodyLen))
	body := out[4:]
	switch s.code {
	case codeConnReq:
		binary.LittleEndian.PutUint16(body[0:], s.psm)
		binary.LittleEndian.PutUint16(body[2:], s.scid)
		binary.LittleEndian.PutUint16(body[4:], s.mtu)
		binary.LittleEndian.PutUint16(body[6:], s.mps)
		binary.LittleEndian.PutUint16(body[8:], s.credits)
	case codeConnRsp:
		binary.LittleEndian.PutUint16(body[0:], s.dcid)
		binary.LittleEndian.PutUint16(body[2:], s.mtu)
		binary.LittleEndian.PutUint16(body[4:], s.mps)
		binary.LittleEndian.PutUint16(body[6:], s.credits)
		binary.LittleEndian.PutUint16(body[8:], s.result)
	case codeFlowCredit:
		binary.LittleEndian.PutUint16(body[0:], s.cid)
		binary.LittleEndian.PutUint16(body[2:], s.credits)
	}
	return b
}

func decodeSignal(b []byte) (signal, error) {
	if len(b) < 4 {
		return signal{}, fmt.Errorf("l2cap: signal shorter than header")
	}
	s := signal{code: b[0], id: b[1]}
	ln := int(binary.LittleEndian.Uint16(b[2:]))
	body := b[4:]
	if len(body) != ln {
		return signal{}, fmt.Errorf("l2cap: signal length %d != body %d", ln, len(body))
	}
	switch s.code {
	case codeConnReq:
		if ln != 10 {
			return signal{}, fmt.Errorf("l2cap: bad conn req length %d", ln)
		}
		s.psm = binary.LittleEndian.Uint16(body[0:])
		s.scid = binary.LittleEndian.Uint16(body[2:])
		s.mtu = binary.LittleEndian.Uint16(body[4:])
		s.mps = binary.LittleEndian.Uint16(body[6:])
		s.credits = binary.LittleEndian.Uint16(body[8:])
	case codeConnRsp:
		if ln != 10 {
			return signal{}, fmt.Errorf("l2cap: bad conn rsp length %d", ln)
		}
		s.dcid = binary.LittleEndian.Uint16(body[0:])
		s.mtu = binary.LittleEndian.Uint16(body[2:])
		s.mps = binary.LittleEndian.Uint16(body[4:])
		s.credits = binary.LittleEndian.Uint16(body[6:])
		s.result = binary.LittleEndian.Uint16(body[8:])
	case codeFlowCredit:
		if ln != 4 {
			return signal{}, fmt.Errorf("l2cap: bad flow credit length %d", ln)
		}
		s.cid = binary.LittleEndian.Uint16(body[0:])
		s.credits = binary.LittleEndian.Uint16(body[2:])
	default:
		return signal{}, fmt.Errorf("l2cap: unknown signal code %#x", s.code)
	}
	return s, nil
}
