package sim

// xoshiro256++ random source for the simulation's jitter draws.
//
// The standard library's rand.NewSource allocates a 607-word lagged-Fibonacci
// state (~4.9KB). One source per Sim is invisible at testbed scale, but the
// city-scale builds create one Sim per RF-isolated site: at 10k nodes
// that is ~2k sources (10MB — the largest single item on the build heap), and
// at the 100k design point ~20k sources (~100MB, more than the rest of the
// network combined). xoshiro256++ keeps the same *rand.Rand front end through
// the rand.Source64 interface with 32 bytes of state and equal or better
// statistical quality.
//
// Swapping the generator changes every seeded draw sequence, so it shifts
// jittered outcomes (advertising delays, CoAP retransmit spreads, traffic
// phases) across the whole repository at once. All determinism properties are
// preserved — same seed, same run — but recorded absolute numbers were
// re-baselined with this change, and a swap now moves every line of the
// golden digest corpus (internal/exp/testdata/golden).

// splitmix64 is the seed expander recommended by the xoshiro authors: it
// decorrelates arbitrary (including zero and sequential) seeds into full
// 64-bit state words.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// xoshiro256 implements rand.Source64.
type xoshiro256 struct {
	s [4]uint64
}

func newXoshiro256(seed int64) *xoshiro256 {
	x := &xoshiro256{}
	x.Seed(seed)
	return x
}

// Seed resets the state from a 64-bit seed via splitmix64, as the xoshiro
// reference implementation prescribes. The expanded state is never all-zero.
func (x *xoshiro256) Seed(seed int64) {
	sm := uint64(seed)
	for i := range x.s {
		x.s[i] = splitmix64(&sm)
	}
}

func rotl(v uint64, k uint) uint64 { return v<<k | v>>(64-k) }

func (x *xoshiro256) Uint64() uint64 {
	s := &x.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func (x *xoshiro256) Int63() int64 { return int64(x.Uint64() >> 1) }
