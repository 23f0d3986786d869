package ble

import (
	"math/bits"
	"strings"

	"blemesh/internal/phy"
)

// ChannelMap is a 37-bit mask of usable BLE data channels (bit i set means
// data channel i may be used). Adaptive channel hopping restricts the map;
// the Bluetooth standard defines how maps are distributed but leaves the
// adaptation algorithm to implementers.
type ChannelMap uint64

// AllDataChannels enables every data channel 0..36.
const AllDataChannels ChannelMap = (1 << 37) - 1

// WithoutChannel returns a copy of the map with data channel ch removed.
// The paper statically excludes channel 22, which was permanently jammed in
// the testbed.
func (m ChannelMap) WithoutChannel(ch phy.Channel) ChannelMap {
	return m &^ (1 << uint(ch))
}

// Used reports whether data channel ch is enabled.
func (m ChannelMap) Used(ch phy.Channel) bool {
	return ch >= 0 && ch < NumDataChannels && m&(1<<uint(ch)) != 0
}

// Count returns the number of enabled data channels.
func (m ChannelMap) Count() int { return bits.OnesCount64(uint64(m & AllDataChannels)) }

// Channels returns the enabled data channels in ascending order.
func (m ChannelMap) Channels() []phy.Channel {
	out := make([]phy.Channel, 0, m.Count())
	for ch := phy.Channel(0); ch < NumDataChannels; ch++ {
		if m.Used(ch) {
			out = append(out, ch)
		}
	}
	return out
}

// nth returns the k-th enabled data channel in ascending order, k < Count():
// Channels()[k] without building the slice — remap runs on the connection
// event path.
func (m ChannelMap) nth(k int) phy.Channel {
	w := uint64(m & AllDataChannels)
	for ; k > 0; k-- {
		w &= w - 1
	}
	return phy.Channel(bits.TrailingZeros64(w))
}

// String renders the map as a 37-character bitmap, channel 0 first.
func (m ChannelMap) String() string {
	var b strings.Builder
	for ch := phy.Channel(0); ch < NumDataChannels; ch++ {
		if m.Used(ch) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// NumDataChannels re-exports the PHY constant for callers of this package.
const NumDataChannels = phy.NumDataChannels
