// Package rpl is an RPL-lite distance-vector routing protocol for the BLE
// mesh, the dynamic-routing half of ROADMAP item 3. It borrows the load-
// bearing ideas of RFC 6550 storing mode without the full ICMPv6 option
// machinery: DIO beacons on a trickle timer announce (version, rank, root),
// rank is monotone along every forwarding path (loop avoidance), DAO
// messages push host routes upward so the root reaches every node, and
// parent loss — detected by the statconn link-down signal or a missed-DIO
// deadline — triggers poisoning and local repair.
//
// Control messages ride plain ip6 UDP between link-local addresses, one hop
// at a time, so they share the data plane's pktbuf, 6LoWPAN, and L2CAP path
// and show up in provenance traces like any other packet.
package rpl

import (
	"fmt"

	"blemesh/internal/ip6"
)

// Control-message types. The zero value is invalid on purpose: an
// all-zeros buffer must not decode.
const (
	// TypeDIO announces the sender's DODAG membership: version, rank, and
	// the root's routable address. Rank RankInfinite is a poison DIO.
	TypeDIO = 0x01
	// TypeDAO advertises a target address reachable through the sender
	// (storing mode): each hop installs a host route and forwards upward.
	TypeDAO = 0x02
	// TypeDIS solicits an immediate unicast DIO from the receiver.
	TypeDIS = 0x03
)

// Message flags.
const (
	// FlagNoPath marks a DAO as a No-Path advertisement (RFC 6550 §6.4.3's
	// lifetime-0 DAO): the sender lost its route to Target, and every
	// ancestor holding a matching entry must purge it. Without this, stale
	// storing-mode state upstream of a broken branch keeps steering packets
	// into it, where they bounce between the stale entry and the default
	// route until the hop limit kills them.
	FlagNoPath = 0x01
)

// Wire sizes. Fixed-length messages keep the codec strict: every byte is
// meaningful and decode(encode(m)) == m exactly.
const (
	dioLen = 22 // type, flags, version u16, rank u16, root 16B
	daoLen = 20 // type, flags, seq u16, target 16B
	disLen = 2  // type, flags
)

// Message is one decoded control message. Which fields are meaningful
// depends on Type: DIO uses Version/Rank/Root, DAO uses Seq/Target, DIS
// carries nothing beyond its type. Flags is reserved (carried verbatim).
type Message struct {
	Type  byte
	Flags byte

	Version uint16 // DIO: DODAG version
	Rank    uint16 // DIO: sender's rank (RankInfinite = poison)
	Root    ip6.Addr

	Seq    uint16 // DAO: per-target freshness sequence
	Target ip6.Addr
}

// Encode serialises the message into its fixed-length wire form.
func (m Message) Encode() []byte {
	switch m.Type {
	case TypeDIO:
		b := make([]byte, dioLen)
		b[0], b[1] = m.Type, m.Flags
		b[2], b[3] = byte(m.Version>>8), byte(m.Version)
		b[4], b[5] = byte(m.Rank>>8), byte(m.Rank)
		copy(b[6:], m.Root[:])
		return b
	case TypeDAO:
		b := make([]byte, daoLen)
		b[0], b[1] = m.Type, m.Flags
		b[2], b[3] = byte(m.Seq>>8), byte(m.Seq)
		copy(b[4:], m.Target[:])
		return b
	case TypeDIS:
		return []byte{m.Type, m.Flags}
	}
	panic(fmt.Sprintf("rpl: encode of invalid message type %#x", m.Type))
}

// DecodeMessage parses a control message, strictly: the length must match
// the type exactly, and unknown types fail. Garbage from the network must
// never panic — this is the fuzzed surface.
func DecodeMessage(b []byte) (Message, error) {
	if len(b) < disLen {
		return Message{}, fmt.Errorf("rpl: message truncated (%d bytes)", len(b))
	}
	m := Message{Type: b[0], Flags: b[1]}
	switch m.Type {
	case TypeDIO:
		if len(b) != dioLen {
			return Message{}, fmt.Errorf("rpl: DIO length %d, want %d", len(b), dioLen)
		}
		m.Version = uint16(b[2])<<8 | uint16(b[3])
		m.Rank = uint16(b[4])<<8 | uint16(b[5])
		copy(m.Root[:], b[6:])
		return m, nil
	case TypeDAO:
		if len(b) != daoLen {
			return Message{}, fmt.Errorf("rpl: DAO length %d, want %d", len(b), daoLen)
		}
		m.Seq = uint16(b[2])<<8 | uint16(b[3])
		copy(m.Target[:], b[4:])
		return m, nil
	case TypeDIS:
		if len(b) != disLen {
			return Message{}, fmt.Errorf("rpl: DIS length %d, want %d", len(b), disLen)
		}
		return m, nil
	}
	return Message{}, fmt.Errorf("rpl: unknown message type %#x", m.Type)
}

// seqNewer reports whether a is fresher than b under serial-number
// arithmetic (RFC 1982 style, 16-bit).
func seqNewer(a, b uint16) bool { return int16(a-b) > 0 }
