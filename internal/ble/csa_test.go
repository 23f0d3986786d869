package ble

import (
	"math/rand"
	"testing"
	"testing/quick"

	"blemesh/internal/phy"
)

func TestChannelMapBasics(t *testing.T) {
	m := AllDataChannels
	if m.Count() != 37 {
		t.Fatalf("all-channels count = %d, want 37", m.Count())
	}
	m = m.WithoutChannel(22)
	if m.Count() != 36 || m.Used(22) {
		t.Fatalf("channel 22 not removed: %v", m)
	}
	if m.Used(37) || m.Used(-1) {
		t.Fatal("out-of-range channels must read unused")
	}
}

func TestChannelMapChannelsSorted(t *testing.T) {
	m := ChannelMap(1<<5 | 1<<1 | 1<<36)
	chs := m.Channels()
	if len(chs) != 3 || chs[0] != 1 || chs[1] != 5 || chs[2] != 36 {
		t.Fatalf("Channels() = %v", chs)
	}
}

func TestChannelMapString(t *testing.T) {
	m := ChannelMap(1<<0 | 1<<36)
	s := m.String()
	if len(s) != 37 || s[0] != '1' || s[36] != '1' || s[1] != '0' {
		t.Fatalf("String() = %q", s)
	}
}

func TestRandomHopIncrementRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		h := RandomHopIncrement(rng)
		if h < 5 || h > 16 {
			t.Fatalf("hop %d out of 5..16", h)
		}
	}
}

func TestCSA2Deterministic(t *testing.T) {
	a := newCSA2(0x8E89BED6)
	b := newCSA2(0x8E89BED6)
	for ev := uint16(0); ev < 500; ev++ {
		if a.Channel(ev, AllDataChannels) != b.Channel(ev, AllDataChannels) {
			t.Fatalf("CSA2 not deterministic at ev=%d", ev)
		}
	}
}

// TestCSA2MatchesSpecSampleData checks channel selection against the
// Bluetooth Core sample data (v5.0, Vol 6 Part C §3), the one exact oracle:
// the other CSA #2 tests check determinism, spread and map membership only.
func TestCSA2MatchesSpecSampleData(t *testing.T) {
	c := newCSA2(0x8E89BED6)
	if c.chanID != 0x305F {
		t.Fatalf("chanID = %#04x, want 0x305F", c.chanID)
	}
	var some ChannelMap
	for _, ch := range []int{9, 10, 21, 22, 23, 33, 34, 35, 36} {
		some |= 1 << ch
	}
	for _, tc := range []struct {
		m    ChannelMap
		ev   uint16
		want phy.Channel
	}{
		{AllDataChannels, 0, 25}, {AllDataChannels, 1, 20}, {AllDataChannels, 2, 6}, {AllDataChannels, 3, 21},
		{some, 6, 23}, {some, 7, 9}, {some, 8, 34},
	} {
		if got := c.Channel(tc.ev, tc.m); got != tc.want {
			t.Errorf("counter %d, map %v: channel %d, want %d", tc.ev, tc.m, got, tc.want)
		}
	}
}

func TestCSA2DifferentAccessAddressesDiffer(t *testing.T) {
	a := newCSA2(0x12345678)
	b := newCSA2(0x87654321)
	same := 0
	for ev := uint16(0); ev < 200; ev++ {
		if a.Channel(ev, AllDataChannels) == b.Channel(ev, AllDataChannels) {
			same++
		}
	}
	// Two independent hop sequences coincide ~1/37 of the time.
	if same > 30 {
		t.Fatalf("sequences coincide on %d/200 events — not independent", same)
	}
}

func TestCSA2RoughlyUniform(t *testing.T) {
	c := newCSA2(0xDEADBEEF)
	var hist [37]int
	const n = 37 * 1000
	for ev := 0; ev < n; ev++ {
		hist[c.Channel(uint16(ev), AllDataChannels)]++
	}
	for ch, cnt := range hist {
		if cnt < 600 || cnt > 1400 {
			t.Fatalf("channel %d hit %d times, expected ~1000", ch, cnt)
		}
	}
}

func TestQuickCSAOutputsAlwaysInMap(t *testing.T) {
	// Property: whatever the (legal) channel map and event counter, CSA #2
	// returns a channel from the used set.
	f := func(ev uint16, mapBits uint64, aa uint32) bool {
		m := ChannelMap(mapBits) & AllDataChannels
		if m.Count() < 2 {
			m = AllDataChannels.WithoutChannel(22)
		}
		return m.Used(newCSA2(aa).Channel(ev, m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCSARemapAvoidsExcludedChannel(t *testing.T) {
	// The paper excludes jammed channel 22 on all nodes: no event may
	// ever select it.
	m := AllDataChannels.WithoutChannel(22)
	c := newCSA2(0xCAFEBABE)
	for ev := uint16(0); ev < 2000; ev++ {
		if c.Channel(ev, m) == 22 {
			t.Fatalf("CSA2 selected excluded channel 22 at ev=%d", ev)
		}
	}
}

func TestPermIsInvolution(t *testing.T) {
	// perm bit-reverses each byte; applying it twice is the identity.
	for v := 0; v < 1<<16; v += 13 {
		if perm(perm(uint16(v))) != uint16(v) {
			t.Fatalf("perm not an involution at %#x", v)
		}
	}
}

func TestConnParamsValidate(t *testing.T) {
	good := ConnParams{Interval: 75 * 1000 * 1000} // 75ms in ns
	if err := good.Validate(); err != nil {
		t.Fatalf("75ms interval rejected: %v", err)
	}
	if good.Supervision == 0 || good.ChanMap == 0 || good.CoordSCA == 0 {
		t.Fatalf("defaults not applied: %+v", good)
	}
	cases := []ConnParams{
		{Interval: 5 * 1000 * 1000},                      // below 7.5ms
		{Interval: 5 * 1000 * 1000 * 1000},               // above 4s
		{Interval: 76 * 1000 * 1000},                     // not 1.25ms multiple
		{Interval: 75 * 1000 * 1000, Latency: 500},       // latency too large
		{Interval: 75 * 1000 * 1000, ChanMap: 1 << 4},    // single channel
		{Interval: 75 * 1000 * 1000, Supervision: 100e6}, // too short for interval
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail validation: %+v", i, p)
		}
	}
}

func TestAirtime(t *testing.T) {
	// Empty PDU: 10 bytes overhead at 8µs/byte = 80µs.
	if Airtime(0) != 80*1000 {
		t.Fatalf("empty PDU airtime = %v", Airtime(0))
	}
	// Full DLE PDU: 261 bytes = 2088µs.
	if Airtime(MaxDataLen) != 2088*1000 {
		t.Fatalf("max PDU airtime = %v", Airtime(MaxDataLen))
	}
}

func TestDevAddrString(t *testing.T) {
	if got := DevAddr(0x0102030405FF).String(); got != "01:02:03:04:05:ff" {
		t.Fatalf("DevAddr string = %q", got)
	}
}

// TestRemapMatchesChannelsSlice checks the allocation-free remap against the
// slice it replaced, Channels()[idx % n], over every map with one or two
// channels excluded, every unmapped channel and every index a selector can
// produce.
func TestRemapMatchesChannelsSlice(t *testing.T) {
	check := func(m ChannelMap) {
		used := m.Channels()
		for un := phy.Channel(0); un < NumDataChannels; un++ {
			for idx := 0; idx < 2*NumDataChannels; idx++ {
				want := un
				if !m.Used(un) {
					want = used[idx%len(used)]
				}
				if got := remap(un, m, idx); got != want {
					t.Fatalf("map %v un=%d idx=%d: remap = %d, want %d", m, un, idx, got, want)
				}
			}
		}
	}
	for a := phy.Channel(0); a < NumDataChannels; a++ {
		check(AllDataChannels.WithoutChannel(a))
		for b := a + 1; b < NumDataChannels; b++ {
			check(AllDataChannels.WithoutChannel(a).WithoutChannel(b))
		}
	}
	if got := remap(5, 0, 3); got != 5 {
		t.Fatalf("empty map: remap = %d, want the unmapped channel 5", got)
	}
}

// TestChannelSelectionDoesNotAllocate: channel selection runs once per
// connection event, remapped or not.
func TestChannelSelectionDoesNotAllocate(t *testing.T) {
	m := AllDataChannels.WithoutChannel(22).WithoutChannel(3)
	sel := newCSA2(0xCAFEBABE)
	ev := uint16(0)
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 1000; i++ {
			sel.Channel(ev, m)
			ev++
		}
	})
	if allocs != 0 {
		t.Fatalf("%.0f allocations per 1000 selections, want 0", allocs)
	}
}
