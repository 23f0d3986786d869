package ble

import (
	"math/rand"

	"blemesh/internal/phy"
)

// RandomHopIncrement draws a legal CSA#1 hop increment (5..16). Every
// CONNECT_IND carries one; the links use CSA #2, which ignores it, but the
// draw stays part of the initiator's random stream.
func RandomHopIncrement(rng *rand.Rand) int { return 5 + rng.Intn(12) }

// csa2 is Channel Selection Algorithm #2 (Bluetooth 5.0, Vol 6 Part B
// §4.5.8.3): a stateless pseudo-random permutation of the event counter
// seeded by the access address. It is the only algorithm: CSA #1 would be
// chosen only by a peer that does not support #2, and every node here does.
type csa2 struct {
	chanID uint16
}

// newCSA2 creates the CSA#2 selector for the given access address.
func newCSA2(accessAddress uint32) csa2 {
	return csa2{chanID: uint16(accessAddress>>16) ^ uint16(accessAddress)}
}

// perm bit-reverses each byte of a 16-bit value.
func perm(v uint16) uint16 {
	lo := reverseByte(byte(v))
	hi := reverseByte(byte(v >> 8))
	return uint16(hi)<<8 | uint16(lo)
}

func reverseByte(b byte) byte {
	b = b>>4 | b<<4
	b = (b&0xCC)>>2 | (b&0x33)<<2
	b = (b&0xAA)>>1 | (b&0x55)<<1
	return b
}

// mam is the multiply-add-modulo step of CSA#2.
func mam(a, b uint16) uint16 { return a*17 + b }

func (c csa2) prnE(ev uint16) uint16 {
	u := ev ^ c.chanID
	u = mam(perm(u), c.chanID)
	u = mam(perm(u), c.chanID)
	u = mam(perm(u), c.chanID)
	return u ^ c.chanID
}

// Channel returns the data channel for connection event counter ev under
// the channel map m.
func (c csa2) Channel(ev uint16, m ChannelMap) phy.Channel {
	prn := c.prnE(ev)
	un := phy.Channel(prn % NumDataChannels)
	n := m.Count()
	if n == 0 {
		n = 1
	}
	idx := int(uint32(n) * uint32(prn) >> 16)
	return remap(un, m, idx)
}

// remap returns un itself when it is in the map, otherwise the idx-th used
// channel.
func remap(un phy.Channel, m ChannelMap, idx int) phy.Channel {
	if m.Used(un) {
		return un
	}
	n := m.Count()
	if n == 0 {
		return un
	}
	return m.nth(idx % n)
}
