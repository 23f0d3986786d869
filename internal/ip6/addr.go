// Package ip6 implements the network layer of the platform: IPv6 header
// processing, UDP, a minimal ICMPv6 (echo), static routing with host routes
// (the paper configures IP routes manually, §4.3), next-hop resolution from
// the BLE device address in the interface identifier (RFC 7668), and a
// GNRC-style byte-budget packet buffer whose overflow is the loss process of
// the paper's high-load scenarios (§5.2).
package ip6

import (
	"fmt"
	"net"
)

// Addr is a 16-byte IPv6 address.
type Addr [16]byte

// Unspecified is ::.
var Unspecified Addr

// AllNodes is the link-local all-nodes multicast group ff02::1.
var AllNodes = Addr{0xff, 0x02, 15: 0x01}

// String renders the address in standard notation.
func (a Addr) String() string { return net.IP(a[:]).String() }

// IsMulticast reports whether the address is in ff00::/8.
func (a Addr) IsMulticast() bool { return a[0] == 0xff }

// IsLinkLocal reports whether the address is in fe80::/10.
func (a Addr) IsLinkLocal() bool { return a[0] == 0xfe && a[1]&0xc0 == 0x80 }

// IsUnspecified reports whether the address is ::.
func (a Addr) IsUnspecified() bool { return a == Unspecified }

// ParseAddr parses a textual IPv6 address.
func ParseAddr(s string) (Addr, error) {
	ip := net.ParseIP(s)
	if ip == nil || ip.To16() == nil || ip.To4() != nil {
		return Addr{}, fmt.Errorf("ip6: invalid IPv6 address %q", s)
	}
	var a Addr
	copy(a[:], ip.To16())
	return a, nil
}

// MustParseAddr is ParseAddr that panics on error, for literals.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// IIDFromMAC derives a modified EUI-64 interface identifier from a 48-bit
// link-layer address, per RFC 4291 appendix A.
func IIDFromMAC(mac uint64) [8]byte {
	var iid [8]byte
	iid[0] = byte(mac>>40) ^ 0x02 // flip the universal/local bit
	iid[1] = byte(mac >> 32)
	iid[2] = byte(mac >> 24)
	iid[3] = 0xff
	iid[4] = 0xfe
	iid[5] = byte(mac >> 16)
	iid[6] = byte(mac >> 8)
	iid[7] = byte(mac)
	return iid
}

// MACFromIID inverts IIDFromMAC, recovering the 48-bit link-layer address
// from a modified EUI-64 interface identifier. ok is false when the IID was
// not formed from a MAC (missing ff:fe filler).
func MACFromIID(iid [8]byte) (uint64, bool) {
	if iid[3] != 0xff || iid[4] != 0xfe {
		return 0, false
	}
	mac := uint64(iid[0]^0x02)<<40 | uint64(iid[1])<<32 | uint64(iid[2])<<24 |
		uint64(iid[5])<<16 | uint64(iid[6])<<8 | uint64(iid[7])
	return mac, true
}

// LinkLocal builds fe80::/64 + IID(mac).
func LinkLocal(mac uint64) Addr {
	var a Addr
	a[0], a[1] = 0xfe, 0x80
	iid := IIDFromMAC(mac)
	copy(a[8:], iid[:])
	return a
}

// ULA builds an address under the given /64 prefix with IID(mac). The
// experiments use fd00::/64 as the mesh prefix (6LoWPAN context 0).
func ULA(prefix Addr, mac uint64) Addr {
	a := prefix
	iid := IIDFromMAC(mac)
	copy(a[8:], iid[:])
	return a
}

// DefaultPrefix is the mesh-wide ULA prefix used by the experiments.
var DefaultPrefix = MustParseAddr("fd00::")

// SamePrefix reports whether two addresses share their upper 64 bits.
func SamePrefix(a, b Addr) bool {
	for i := 0; i < 8; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// MAC extracts the link-layer address encoded in the IID, if any.
func (a Addr) MAC() (uint64, bool) {
	var iid [8]byte
	copy(iid[:], a[8:])
	return MACFromIID(iid)
}
