package phy

import (
	"blemesh/internal/sim"
)

// BurstParams configures a Gilbert–Elliott two-state loss process: the
// channel alternates between a good state (low loss) and a bad state (high
// loss), with exponentially distributed dwell times. Bursty interference is
// what actually trips BLE supervision timeouts — a diffuse uniform PER of the
// same average intensity is shrugged off by per-event retransmission.
type BurstParams struct {
	// MeanGood and MeanBad are the mean dwell times of the two states
	// (defaults 2s good, 200ms bad).
	MeanGood sim.Duration
	MeanBad  sim.Duration
	// PERGood and PERBad are the per-packet corruption probabilities in
	// each state (defaults 0 and 0.9).
	PERGood float64
	PERBad  float64
}

func (p *BurstParams) defaults() {
	if p.MeanGood == 0 {
		p.MeanGood = 2 * sim.Second
	}
	if p.MeanBad == 0 {
		p.MeanBad = 200 * sim.Millisecond
	}
	if p.PERBad == 0 {
		p.PERBad = 0.9
	}
}

// BurstNoise is the Gilbert–Elliott process. The state chain advances lazily:
// state transitions are drawn from the simulation RNG as packet times query
// the process, so an idle channel costs nothing and runs remain seed-exact.
type BurstNoise struct {
	s *sim.Sim
	p BurstParams

	started bool
	bad     bool
	until   sim.Time // current state holds until this time
}

// NewBurstNoise creates a burst-loss process on the given simulation.
func NewBurstNoise(s *sim.Sim, p BurstParams) *BurstNoise {
	p.defaults()
	return &BurstNoise{s: s, p: p}
}

// advance walks the state chain forward to time t.
func (b *BurstNoise) advance(t sim.Time) {
	if !b.started {
		b.started = true
		b.until = t + b.dwell(false)
	}
	for t >= b.until {
		b.bad = !b.bad
		b.until += b.dwell(b.bad)
	}
}

// dwell draws an exponential dwell time for the given state.
//
// ExpFloat64 is the one standard-library float draw left: its ziggurat calls
// math.Exp (amd64 assembly that takes an FMA path by CPU feature) and
// math.Log (fused on arm64) on its rare wedge and tail paths only, and the
// wedge compares after rounding to float32. Replacing it would move the
// golden churn case, its one user (DESIGN.md, determinism).
func (b *BurstNoise) dwell(bad bool) sim.Duration {
	mean := b.p.MeanGood
	if bad {
		mean = b.p.MeanBad
	}
	d := sim.Duration(float64(mean) * b.s.Rand().ExpFloat64()) // fma:ok — rare ziggurat paths; see above
	if d < sim.Millisecond {
		d = sim.Millisecond
	}
	return d
}

// Corrupts implements Interference.
func (b *BurstNoise) Corrupts(s *sim.Sim, _ Channel, start, _ sim.Time) bool {
	b.advance(start)
	per := b.p.PERGood
	if b.bad {
		per = b.p.PERBad
	}
	if per <= 0 {
		return false
	}
	if per >= 1 {
		return true
	}
	return s.Rand().Float64() < per
}

// Busy implements Interference: a burst corrupts packets but never looks
// like a carrier to clear-channel assessment.
func (b *BurstNoise) Busy(Channel, sim.Time) bool { return false }
