package ble

import (
	"math/rand"

	"blemesh/internal/phy"
)

// ChannelSelector yields the data channel for each connection event. Both
// standard algorithms are implemented; the coordinator picks one at
// connection initiation (CSA field of ConnParams).
type ChannelSelector interface {
	// Channel returns the data channel for connection event counter ev
	// under the given channel map.
	Channel(ev uint16, m ChannelMap) phy.Channel
}

// csa1 is Channel Selection Algorithm #1: a fixed hop increment walks the
// unmapped channel space; unused channels are remapped onto the used set by
// modulo indexing. The walk "lastUnmapped + hop (mod 37) each event" has the
// closed form hop·(ev+1) mod 37, which keeps both endpoints consistent even
// when one of them skips events (skipped events still consume counter
// values).
type csa1 struct {
	hop int
}

// NewCSA1 creates a CSA#1 selector. hopIncrement must be in 5..16 per the
// specification; the coordinator draws it randomly at connection setup.
func NewCSA1(hopIncrement int) ChannelSelector {
	if hopIncrement < 5 || hopIncrement > 16 {
		panic("ble: CSA#1 hop increment out of range 5..16")
	}
	return &csa1{hop: hopIncrement}
}

// RandomHopIncrement draws a legal CSA#1 hop increment.
func RandomHopIncrement(rng *rand.Rand) int { return 5 + rng.Intn(12) }

func (c *csa1) Channel(ev uint16, m ChannelMap) phy.Channel {
	un := (c.hop * (int(ev) + 1)) % NumDataChannels
	return remap(phy.Channel(un), m, un%max(1, m.Count()))
}

// csa2 is Channel Selection Algorithm #2 (Bluetooth 5.0, Vol 6 Part B
// §4.5.8.3): a stateless pseudo-random permutation of the event counter
// seeded by the access address.
type csa2 struct {
	chanID uint16
}

// NewCSA2 creates a CSA#2 selector for the given access address.
func NewCSA2(accessAddress uint32) ChannelSelector {
	return &csa2{chanID: uint16(accessAddress>>16) ^ uint16(accessAddress)}
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

func (c *csa2) prnE(ev uint16) uint16 {
	u := ev ^ c.chanID
	u = mam(perm(u), c.chanID)
	u = mam(perm(u), c.chanID)
	u = mam(perm(u), c.chanID)
	return u ^ c.chanID
}

func (c *csa2) Channel(ev uint16, m ChannelMap) phy.Channel {
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

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
