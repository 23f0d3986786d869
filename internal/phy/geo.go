// Geometric mode and the one scan that decides who hears a transmission.
//
// City-scale generated topologies (internal/testbed geo/city/floors)
// position radios in meters with a disk radio range; in geometric mode the
// medium delivers carrier and end-of-packet indications only to radios
// within range of the sender, and collision closure requires the two
// senders to be within range of each other.
//
// The rule, for every medium: a scan visits the receiving radios in range
// of the sender, in NodeID order. A geometry-free medium has every radio in
// range, so there the range check always passes. SetLinearScan keeps the
// visit-every-radio path selectable as the test oracle.
package phy

// SetRange switches the medium into geometric mode with the given disk
// radio range in meters (boundary inclusive: distance exactly r is in
// range). r <= 0 returns to the geometry-free everyone-hears-everyone
// model.
func (m *Medium) SetRange(r float64) {
	if r < 0 {
		r = 0
	}
	m.rangeSq = r * r
}

// SetLinearScan forces scans down the visit-every-radio path instead of the
// list of receiving radios. Output must be byte-identical either way; the
// switch exists so the differential test layer (and regressions it catches)
// can prove it.
func (m *Medium) SetLinearScan(on bool) { m.linear = on }

// SetPosition places the radio at (x, y, z) meters.
func (r *Radio) SetPosition(x, y, z float64) {
	r.px, r.py, r.pz = x, y, z
}

// distSqTo returns the squared 3D distance to another radio.
func (r *Radio) distSqTo(o *Radio) float64 {
	dx, dy, dz := r.px-o.px, r.py-o.py, r.pz-o.pz
	return float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
}

// inRangeOf reports whether two radios can hear each other under the
// medium's geometric model; geometry-free media hear everything.
func (m *Medium) inRangeOf(a, b *Radio) bool {
	return m.rangeSq <= 0 || a.distSqTo(b) <= m.rangeSq
}

// neighborScan calls fn for every radio of the medium that can hear the
// sender on ch, in registration (NodeID) order — the one scan order both
// paths produce. fn may transmit or retune radios. The linear oracle
// iterates a slice header captured before the first call and leaves the
// state and channel checks to fn. scanRX applies the "receiving on ch"
// filter itself, to the medium's RX list instead of every radio: both
// callers' fn ignore a radio that is not receiving on ch at the moment it
// is visited, which is exactly the moment scanRX looks at it.
func (m *Medium) neighborScan(sender *Radio, ch Channel, fn func(*Radio)) {
	if m.linear {
		for _, lr := range m.radios {
			if lr != sender && m.inRangeOf(sender, lr) {
				fn(lr)
			}
		}
		return
	}
	m.scanRX(sender, ch, fn)
}

// scanRX calls fn for the medium's radios other than sender that are
// receiving on ch and in range of sender, in NodeID order. It does not
// iterate a snapshot: fn retunes radios, and the every-radio loop it
// replaces looks at each radio's state when it reaches it — a radio that
// starts listening inside an earlier callback is still visited if its
// NodeID is larger, one that stops is not. So after a callback that moved
// the list under the scan, the scan resumes at the first listed radio past
// the one it just visited. Positions do not change inside a scan, so the
// range check gives the same answer whenever it is asked.
func (m *Medium) scanRX(sender *Radio, ch Channel, fn func(*Radio)) {
	for i := 0; i < len(m.rx); i++ {
		lr := m.rx[i]
		if lr.listenCh != ch || lr == sender || !m.inRangeOf(sender, lr) {
			continue
		}
		fn(lr)
		if i < len(m.rx) && m.rx[i] == lr {
			continue
		}
		i = 0
		for i < len(m.rx) && m.rx[i].id <= lr.id {
			i++
		}
		i--
	}
}
