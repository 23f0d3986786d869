package sim

// Clock models a node's local sleep clock, the oscillator the Bluetooth
// standard calls the "sleep clock" and bounds to 250 ppm accuracy. Every
// link-layer timer in this codebase is expressed in *local* time and
// converted through a Clock when it is armed, so that two nodes with
// different ppm offsets genuinely disagree about when a connection event is
// due — the root cause of connection shading (§6 of the paper).
//
// The model is a constant rate offset: local time advances at
// (1 + ppm·1e-6) relative to simulation (true) time. The paper measured a
// maximum relative drift of 6 µs/s (6 ppm) between nrf52dk boards and the
// spec admits 500 µs/s (2×250 ppm) worst case; both are just parameter
// choices here.
type Clock struct {
	sim *Sim
	// rate is local nanoseconds per simulation nanosecond.
	rate float64
	// epoch anchors the linear mapping: local = (simNow-epochSim)*rate + epochLocal.
	epochSim   Time
	epochLocal Time
}

// NewClock creates a clock with the given frequency error in parts per
// million. ppm 0 is a perfect clock; positive ppm runs fast. The conversion
// rounds the product, so no compiler fuses it into the add and every
// GOARCH draws the same rate (scripts/check-fma.sh).
func NewClock(s *Sim, ppm float64) *Clock {
	return &Clock{sim: s, rate: 1 + float64(ppm*1e-6), epochSim: s.Now()}
}

// Now returns the node's local time.
func (c *Clock) Now() Time {
	return c.epochLocal + Time(float64(c.sim.Now()-c.epochSim)*c.rate)
}

// ToSim converts a local-time duration into the simulation-time duration it
// actually takes: a fast clock (ppm>0) fires local timers early in true time.
func (c *Clock) ToSim(local Duration) Duration {
	if local <= 0 {
		return 0
	}
	return Duration(float64(local) / c.rate)
}

// ToLocal converts a simulation-time duration to the local duration the node
// perceives.
func (c *Clock) ToLocal(simd Duration) Duration {
	if simd <= 0 {
		return 0
	}
	return Duration(float64(simd) * c.rate)
}
