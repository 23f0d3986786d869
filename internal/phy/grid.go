// Geometric mode and the spatial grid index.
//
// The historical medium is geometry-free: every radio hears every
// transmission, which matches the paper's 1m×1m all-in-range testbed; a scan
// there walks the medium's list of receiving radios (scanRX below),
// since only those can be told anything. City-scale generated topologies
// (internal/testbed geo/city/floors) position radios in meters with a disk
// radio range; in geometric mode the medium delivers carrier and
// end-of-packet indications only to radios within range of the sender, and
// collision closure requires the two senders to be within range of each
// other.
//
// Radios do not move once a network is assembled, so each radio keeps the
// list of radios within its range and a scan is one loop over that list.
// Lists are built on first use from a uniform grid with cell edge equal to
// the radio range: a sender's in-range radios all live in the 3×3 cell
// neighborhood of its own cell (the grid is keyed on X/Y; Z — building
// floors — only enters the distance check, and 3D distance ≤ r implies XY
// distance ≤ r). A list is sorted by NodeID, so the cached scan visits
// exactly the radios the linear distance-filtered scan visits, in exactly
// the same order — the property the differential test layer locks down
// byte-for-byte. Registering or moving a radio, or changing the range,
// moves the medium's epoch; lists and grid are rebuilt on the next scan.
// SetLinearScan keeps the uncached O(radios) path selectable as the oracle.
package phy

import (
	"cmp"
	"math"
	"slices"
)

// SetRange switches the medium into geometric mode with the given disk
// radio range in meters (boundary inclusive: distance exactly r is in
// range). r <= 0 returns to the geometry-free everyone-hears-everyone
// model.
func (m *Medium) SetRange(r float64) {
	if r < 0 {
		r = 0
	}
	m.r, m.rangeSq = r, r*r
	m.invalidate()
}

// Range returns the geometric radio range, or 0 in geometry-free mode.
func (m *Medium) Range() float64 { return m.r }

// SetLinearScan forces scans down the visit-every-radio path instead of the
// neighbour lists (geometric mode) or the list of receiving radios
// (geometry-free). Output must be byte-identical either way; the switch
// exists so the differential test layer (and regressions it catches) can
// prove it.
func (m *Medium) SetLinearScan(on bool) { m.linear = on }

// SetPosition places the radio at (x, y, z) meters. Call during network
// assembly: a move retires every neighbour list of the radio's medium.
func (r *Radio) SetPosition(x, y, z float64) {
	r.px, r.py, r.pz = x, y, z
	r.medium.invalidate()
}

// distSqTo returns the squared 3D distance to another radio.
func (r *Radio) distSqTo(o *Radio) float64 {
	dx, dy, dz := r.px-o.px, r.py-o.py, r.pz-o.pz
	return dx*dx + dy*dy + dz*dz
}

// inRangeOf reports whether two radios can hear each other under the
// medium's geometric model; geometry-free media hear everything.
func (m *Medium) inRangeOf(a, b *Radio) bool {
	return m.rangeSq <= 0 || a.distSqTo(b) <= m.rangeSq
}

// gridKey quantizes a position to its cell coordinates (cell edge = range).
func gridKey(x, y, r float64) [2]int32 {
	return [2]int32{int32(math.Floor(x / r)), int32(math.Floor(y / r))}
}

// neighbors returns the radios within range of r, in NodeID order, building
// the list if the medium changed since it was last built.
// A rebuild allocates a fresh slice, so a scan already iterating the old
// one keeps its snapshot.
func (m *Medium) neighbors(r *Radio) []*Radio {
	if r.nbrEpoch == m.epoch {
		return r.nbrs
	}
	if m.grid == nil {
		// Per-cell lists come out in NodeID order because m.radios is.
		m.grid = make(map[[2]int32][]*Radio)
		for _, rd := range m.radios {
			k := gridKey(rd.px, rd.py, m.r)
			m.grid[k] = append(m.grid[k], rd)
		}
	}
	var buf [32]*Radio
	cand := buf[:0]
	k := gridKey(r.px, r.py, m.r)
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			for _, lr := range m.grid[[2]int32{k[0] + dx, k[1] + dy}] {
				if lr != r && r.distSqTo(lr) <= m.rangeSq {
					cand = append(cand, lr)
				}
			}
		}
	}
	slices.SortFunc(cand, func(a, b *Radio) int { return cmp.Compare(a.id, b.id) })
	r.nbrs, r.nbrEpoch = append([]*Radio(nil), cand...), m.epoch
	return r.nbrs
}

// neighborScan calls fn for every radio of the medium that can hear the
// sender on ch, in registration (NodeID) order — the one scan order
// every path produces. fn may transmit or retune radios. The linear oracle
// and the neighbour lists iterate a slice header captured before the first
// call and leave the state and channel checks to fn. A geometry-free medium
// hears everything, so there the only filter is "receiving on ch", and the
// indexed path applies it itself, to the medium's RX list instead of every
// radio: both callers' fn ignore a radio that is not receiving on ch at the
// moment it is visited, which is exactly the moment scanRX looks at it.
func (m *Medium) neighborScan(sender *Radio, ch Channel, fn func(*Radio)) {
	switch {
	case m.linear:
		for _, lr := range m.radios {
			if lr != sender && m.inRangeOf(sender, lr) {
				fn(lr)
			}
		}
	case m.rangeSq <= 0:
		m.scanRX(sender, ch, fn)
	default:
		for _, lr := range m.neighbors(sender) {
			fn(lr)
		}
	}
}

// scanRX calls fn for the medium's radios other than sender that are
// receiving on ch, in NodeID order. It does not iterate a snapshot: fn
// retunes radios, and the every-radio loop it replaces looks at each radio's
// state when it reaches it — a radio that starts listening inside an
// earlier callback is still visited if its NodeID is larger, one that stops
// is not. So after a callback that moved the list under the scan, the scan
// resumes at the first listed radio past the one it just visited.
func (m *Medium) scanRX(sender *Radio, ch Channel, fn func(*Radio)) {
	for i := 0; i < len(m.rx); i++ {
		lr := m.rx[i]
		if lr.listenCh != ch || lr == sender {
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
