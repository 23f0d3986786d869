// Package phy models the shared 2.4GHz radio medium of the testbed room:
// channels, on-air transmissions with real airtime, overlap-based collision
// detection, clear-channel assessment for CSMA MACs, jammed channels (the
// paper found BLE channel 22 permanently jammed in the IoT-Lab), and random
// background noise.
//
// By default the model is geometry-free: the paper states that all BLE
// nodes were in radio range of each other in a 1m x 1m grid and that node
// placement had negligible impact, so every radio on the medium hears every
// transmission on its channel. Generated city-scale topologies switch a
// medium to geometric mode (geo.go), where only radios within a disk range
// of the sender hear it. Loss comes from collisions, jammers, and a
// configurable stochastic noise process — the three RF loss processes the
// paper identifies — never from path loss.
package phy

import (
	"fmt"

	"blemesh/internal/sim"
)

// NodeID identifies a radio on the medium. IDs are assigned by the medium
// in registration order and are stable for a simulation run.
type NodeID int

// Channel is a radio channel index. BLE uses 0..39 (37 data channels plus
// 37/38/39 for advertising); IEEE 802.15.4 uses 11..26. Both fit the same
// index space because the two technologies never share one Medium instance
// in our experiments (the paper ran them in different testbed sites).
type Channel int

// BLE channel layout constants.
const (
	// NumDataChannels is the number of BLE data channels (0..36).
	NumDataChannels = 37
	// AdvChannel37..39 are the three BLE advertising channels.
	AdvChannel37 Channel = 37
	AdvChannel38 Channel = 38
	AdvChannel39 Channel = 39
	// NumChannels is the total BLE channel count.
	NumChannels = 40
)

// Packet is an on-air frame. The payload is opaque to the PHY; link layers
// attach their PDU structures. Bits is the on-air size used for airtime and
// energy accounting.
type Packet struct {
	Src     NodeID
	Bits    int
	Payload any
}

// transmission is one in-flight packet on a channel. Transmissions are
// recycled through the medium's free list, and a transmission is its own
// end-of-packet event (Fire), so the steady-state TX path schedules without
// allocating.
type transmission struct {
	pkt       Packet
	ch        Channel
	start     sim.Time
	end       sim.Time
	corrupted bool
	aborted   bool
	sender    *Radio
	done      sim.Handler
	next      *transmission
}

// Fire ends the transmission: the medium delivers it, recycles it, and then
// runs the sender's done handler.
func (tx *transmission) Fire() {
	m := tx.sender.medium
	m.finish(tx.sender, tx)
	done := tx.done
	tx.pkt, tx.sender, tx.done = Packet{}, nil, nil
	tx.next = m.freeTx
	m.freeTx = tx
	if done != nil {
		done.Fire()
	}
}

// Receiver is the callback a radio installs to get end-of-packet
// indications. ok is false when the packet was corrupted by a collision,
// a jammer, or noise; link layers treat that as a CRC failure.
type Receiver func(pkt Packet, ch Channel, ok bool)

// Interference corrupts packets independently of collisions. Implementations
// must be deterministic functions of the simulation RNG and their own state.
type Interference interface {
	// Corrupts reports whether a packet occupying [start,end) on ch is
	// destroyed by this interference source.
	Corrupts(s *sim.Sim, ch Channel, start, end sim.Time) bool
	// Busy reports whether the source makes ch appear busy to CCA at time t.
	Busy(ch Channel, t sim.Time) bool
}

// Jammer is a permanent blocking carrier on one channel, like the external
// signal the paper found on BLE channel 22 at the Saclay site.
type Jammer struct{ Ch Channel }

// Corrupts implements Interference: every packet on the jammed channel dies.
func (j Jammer) Corrupts(_ *sim.Sim, ch Channel, _, _ sim.Time) bool { return j.Ch == ch }

// Busy implements Interference: the jammed channel always fails CCA.
func (j Jammer) Busy(ch Channel, _ sim.Time) bool { return j.Ch == ch }

// RandomNoise corrupts each packet independently with probability PER,
// modelling diffuse 2.4GHz background traffic (WiFi beacons etc.). The
// paper attributes "slight variations ... to the impact of background noise
// in the testbed".
type RandomNoise struct{ PER float64 }

// Corrupts implements Interference.
func (n RandomNoise) Corrupts(s *sim.Sim, _ Channel, _, _ sim.Time) bool {
	return n.PER > 0 && s.Rand().Float64() < n.PER
}

// Busy implements Interference; diffuse noise does not trip CCA.
func (n RandomNoise) Busy(Channel, sim.Time) bool { return false }

// Stats aggregates medium-level counters, exported for experiment reports.
type Stats struct {
	Transmissions uint64 // packets put on the air
	Collisions    uint64 // packets corrupted by overlap
	Interfered    uint64 // packets corrupted by jammers/noise
	Delivered     uint64 // end-of-packet indications with ok=true
	Missed        uint64 // corrupted indications delivered to listeners
}

// Medium is one RF-closure domain: a shared broadcast channel space whose
// radios all hear each other (geometry-free, as the paper's 1m x 1m grid
// justifies) or hear whoever is within range (geometric mode, geo.go).
// Radios on different media are RF-isolated — no carrier, no delivery, no
// collisions — which is how a multi-site network is built: one medium per
// site.
type Medium struct {
	sim    *sim.Sim
	radios []*Radio
	// active holds the transmissions in flight, on every channel: a medium
	// rarely has more than a couple at once, so one list checked by
	// channel costs less to keep than a list per channel.
	active []*transmission
	// rx holds the radios whose state is RadioRX, in NodeID order. A scan
	// visits these instead of every radio (geo.go).
	// StartListen, StopListen and Transmit are the only places a radio
	// enters or leaves RX, and they keep the list.
	rx     []*Radio
	interf []Interference
	stats  Stats
	freeTx *transmission // recycled transmissions

	// Geometric mode (see geo.go): rangeSq > 0 filters delivery, carrier,
	// and collision closure by disk radio range; linear forces the
	// every-radio scan path for differential testing.
	rangeSq float64
	linear  bool
	reserve []Radio // slab handed out by NewRadio (see ReserveRadios)
}

// rxAdd files a radio that entered RX, keeping the list in NodeID order.
func (m *Medium) rxAdd(r *Radio) {
	i := len(m.rx)
	m.rx = append(m.rx, r)
	for ; i > 0 && m.rx[i-1].id > r.id; i-- {
		m.rx[i] = m.rx[i-1]
	}
	m.rx[i] = r
}

// rxRemove takes out a radio that left RX. The list holds a handful of
// radios and this runs twice per connection event and endpoint: a plain loop,
// where slices.Index + slices.Delete profiled at twice the cost.
func (m *Medium) rxRemove(r *Radio) {
	for i, lr := range m.rx {
		if lr == r {
			last := len(m.rx) - 1
			copy(m.rx[i:], m.rx[i+1:])
			m.rx[last] = nil
			m.rx = m.rx[:last]
			return
		}
	}
}

// getTx takes a transmission from the free list (or allocates one) and
// resets its per-flight state.
func (m *Medium) getTx() *transmission {
	tx := m.freeTx
	if tx == nil {
		return &transmission{}
	}
	m.freeTx = tx.next
	tx.next = nil
	tx.corrupted, tx.aborted = false, false
	return tx
}

// NewMedium creates an empty medium.
func NewMedium(s *sim.Sim) *Medium {
	return &Medium{sim: s}
}

// AddInterference attaches an interference source to the medium.
func (m *Medium) AddInterference(i Interference) { m.interf = append(m.interf, i) }

// Stats returns a copy of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// Busy reports whether any transmission or blocking interference occupies ch
// right now. This is the CCA primitive used by the IEEE 802.15.4 MAC. It
// ignores geometry: a geometric medium's carrier reads busy regardless of
// distance (the BLE link layer never calls Busy; it uses per-radio carrier
// indications, which are range-filtered).
func (m *Medium) Busy(ch Channel) bool {
	if m.inFlight(ch) {
		return true
	}
	for _, i := range m.interf {
		if i.Busy(ch, m.sim.Now()) {
			return true
		}
	}
	return false
}

// inFlight reports whether a transmission occupies ch.
func (m *Medium) inFlight(ch Channel) bool {
	for _, tx := range m.active {
		if tx.ch == ch {
			return true
		}
	}
	return false
}

// NewRadio registers a radio on the medium.
func (m *Medium) NewRadio() *Radio {
	var r *Radio
	if len(m.reserve) > 0 {
		r = &m.reserve[0]
		m.reserve = m.reserve[1:] // hotpath:ignore — build path, once per radio
	} else {
		r = new(Radio)
	}
	*r = Radio{medium: m, id: NodeID(len(m.radios)), listenCh: -1}
	m.radios = append(m.radios, r)
	return r
}

// ReserveRadios pre-allocates the next n radios as one contiguous slab.
// Subsequent NewRadio calls hand out pointers into the slab (registration
// order, NodeID assignment, and behaviour are unchanged) until it is
// exhausted — network assembly calls this with the site's node count so
// a site's radios end up dense in memory.
func (m *Medium) ReserveRadios(n int) {
	if n > len(m.reserve) {
		m.reserve = make([]Radio, n)
	}
}

// RadioState describes what a radio is doing, for energy accounting.
type RadioState int

// Radio states.
const (
	RadioIdle RadioState = iota
	RadioRX
	RadioTX
)

func (s RadioState) String() string {
	switch s {
	case RadioIdle:
		return "idle"
	case RadioRX:
		return "rx"
	case RadioTX:
		return "tx"
	}
	return fmt.Sprintf("RadioState(%d)", int(s))
}

// Radio is one node's transceiver. A radio can either listen on one channel
// or transmit on one channel at a time — the single-radio constraint that,
// combined with deterministic connection intervals, produces the scheduling
// collisions the paper analyses.
type Radio struct {
	medium *Medium
	id     NodeID

	// Position in meters; only meaningful in geometric mode (geo.go).
	px, py, pz float64

	state       RadioState
	listenCh    Channel
	listenSince sim.Time
	recv        Receiver
	carrier     CarrierFunc

	curTX *transmission

	// Accumulated air-interface activity, consumed by the energy model.
	TXTime sim.Duration
	RXTime sim.Duration
	TXPkts uint64
	RXPkts uint64
}

// ID returns the radio's medium-assigned node ID.
func (r *Radio) ID() NodeID { return r.id }

// State returns what the radio is currently doing.
func (r *Radio) State() RadioState { return r.state }

// SetReceiver installs the end-of-packet callback.
func (r *Radio) SetReceiver(recv Receiver) { r.recv = recv }

// CarrierFunc is the start-of-packet indication: a listening radio detects a
// preamble on its channel and learns when the packet will end. Link layers
// use it to extend receive windows instead of aborting mid-packet, exactly
// like hardware preamble/access-address detection.
type CarrierFunc func(ch Channel, end sim.Time)

// SetCarrier installs the start-of-packet callback.
func (r *Radio) SetCarrier(fn CarrierFunc) { r.carrier = fn }

// Listening reports the channel the radio is receiving on, or -1.
func (r *Radio) Listening() Channel {
	if r.state == RadioRX {
		return r.listenCh
	}
	return -1
}

// StartListen tunes the receiver to ch. A transmit in progress is an error:
// link layers must sequence their radio use through their scheduler.
func (r *Radio) StartListen(ch Channel) {
	if r.state == RadioTX {
		panic("phy: StartListen while transmitting")
	}
	if r.state == RadioRX {
		if r.listenCh == ch {
			return
		}
		r.accumRX()
	} else {
		r.medium.rxAdd(r)
	}
	r.state = RadioRX
	r.listenCh = ch
	r.listenSince = r.medium.sim.Now()
}

// StopListen turns the receiver off.
func (r *Radio) StopListen() {
	if r.state != RadioRX {
		return
	}
	r.accumRX()
	r.medium.rxRemove(r)
	r.state = RadioIdle
	r.listenCh = -1
}

func (r *Radio) accumRX() {
	r.RXTime += r.medium.sim.Now() - r.listenSince
}

// Transmit puts pkt on the air on ch for the given airtime. The radio must
// not already be transmitting. Listening stops for the TX duration (BLE and
// 802.15.4 radios are half-duplex) and is NOT resumed automatically.
// The done handler, if non-nil, fires when the transmission ends.
func (r *Radio) Transmit(ch Channel, pkt Packet, airtime sim.Duration, done sim.Handler) {
	if r.state == RadioTX {
		panic("phy: Transmit while already transmitting")
	}
	if airtime <= 0 {
		panic("phy: non-positive airtime")
	}
	m := r.medium
	if r.state == RadioRX {
		r.accumRX()
		m.rxRemove(r)
	}
	pkt.Src = r.id
	r.state = RadioTX
	r.TXTime += airtime
	r.TXPkts++
	now := m.sim.Now()
	tx := m.getTx()
	tx.pkt, tx.ch, tx.start, tx.end = pkt, ch, now, now+airtime
	tx.sender, tx.done = r, done
	r.curTX = tx
	m.stats.Transmissions++

	// Collision detection: any overlap on the same channel corrupts all
	// parties — in geometric mode only when the two senders are within radio
	// range of each other (disk carrier closure; receiver-side
	// hidden-terminal overlap is out of model, see the package comment in
	// geo.go). Mark existing in-flight transmissions and the new one.
	for _, other := range m.active {
		if other.ch != ch || !m.inRangeOf(r, other.sender) {
			continue
		}
		if !other.corrupted {
			other.corrupted = true
			m.stats.Collisions++
		}
		if !tx.corrupted {
			tx.corrupted = true
			m.stats.Collisions++
		}
	}
	// Interference sources (jammer, noise).
	if !tx.corrupted {
		for _, i := range m.interf {
			if i.Corrupts(m.sim, ch, tx.start, tx.end) {
				tx.corrupted = true
				m.stats.Interfered++
				break
			}
		}
	}
	m.active = append(m.active, tx)

	// Start-of-packet (carrier) indication for eligible listeners — in
	// geometric mode, those within radio range of the sender.
	m.neighborScan(r, ch, func(lr *Radio) {
		if lr.state != RadioRX || lr.listenCh != ch || lr.listenSince > now {
			return
		}
		if lr.carrier != nil {
			lr.carrier(ch, tx.end)
		}
	})

	m.sim.Schedule(tx.end, tx)
}

// SoleListener reports whether a packet r put on ch at this instant would
// be a closed affair between r and peer: r is idle, peer is receiving on ch
// within r's reach, no other radio of the medium is tuned to ch and nothing
// is in flight on it. (On a geometric medium this is conservative: a tuned
// radio or a transmission out of r's range still answers no.) While that
// holds and no other event runs, Transmit and finish reduce to the
// bookkeeping in TransmitSole and DeliverSole.
func (r *Radio) SoleListener(ch Channel, peer *Radio) bool {
	m := r.medium
	if r.state != RadioIdle || peer.state != RadioRX || peer.listenCh != ch ||
		peer.medium != m || !m.inRangeOf(r, peer) {
		return false
	}
	if m.inFlight(ch) {
		return false
	}
	for _, lr := range m.rx {
		if lr.listenCh == ch && lr != peer {
			return false
		}
	}
	return true
}

// TransmitSole is what Transmit does to the counters for a packet occupying
// [now, now+airtime) on ch when SoleListener holds: airtime and packet count
// of the sender, the medium's transmission count, and the interference
// sources asked in order with the same arguments (a collision is excluded).
// It reports whether the packet survives. The radio does not enter RadioTX,
// no transmission is filed and nothing is scheduled: the caller runs the end
// of the packet itself, with DeliverSole, after moving the clock there.
func (r *Radio) TransmitSole(ch Channel, airtime sim.Duration) (ok bool) {
	m := r.medium
	r.TXTime += airtime
	r.TXPkts++
	m.stats.Transmissions++
	now := m.sim.Now()
	for _, i := range m.interf {
		if i.Corrupts(m.sim, ch, now, now+airtime) {
			m.stats.Interfered++
			return false
		}
	}
	return true
}

// DeliverSole is finish for a packet sent with TransmitSole: the end-of-packet
// indication, counted as delivered or missed, handed to the receiver that to
// has installed — so whatever wraps that receiver sees the packet.
func (r *Radio) DeliverSole(to *Radio, pkt Packet, ch Channel, ok bool) {
	pkt.Src = r.id
	if ok {
		r.medium.stats.Delivered++
		to.RXPkts++
	} else {
		r.medium.stats.Missed++
	}
	if to.recv != nil {
		to.recv(pkt, ch, ok)
	}
}

// AbortTX cuts a transmission short: the carrier stops, the partial packet
// is unrecoverable at every receiver (CRC failure), and the radio is free
// immediately. Link layers use this when a higher-priority scheduled event
// preempts an in-flight packet.
func (r *Radio) AbortTX() {
	if r.state != RadioTX || r.curTX == nil {
		return
	}
	tx := r.curTX
	if !tx.corrupted {
		tx.corrupted = true
	}
	// Remove from the active set now so CCA reads the channel as free.
	r.medium.removeActive(tx)
	tx.aborted = true
	r.state = RadioIdle
	r.curTX = nil
}

// removeActive takes tx out of the in-flight set. The vacated tail
// slot is cleared: transmissions are recycled, and a stale pointer behind
// the slice length would keep one (and its Packet.Payload) reachable.
func (m *Medium) removeActive(tx *transmission) {
	for i, t := range m.active {
		if t == tx {
			last := len(m.active) - 1
			m.active[i] = m.active[last]
			m.active[last] = nil
			m.active = m.active[:last]
			return
		}
	}
}

// finish removes tx from the active set, returns the sender to idle, and
// delivers end-of-packet indications to eligible listeners.
func (m *Medium) finish(sender *Radio, tx *transmission) {
	if !tx.aborted {
		m.removeActive(tx)
		sender.state = RadioIdle
		sender.curTX = nil
	}

	m.neighborScan(sender, tx.ch, func(r *Radio) {
		if r.state != RadioRX || r.listenCh != tx.ch {
			return
		}
		// The receiver must have been tuned in before the packet started;
		// a radio that arrived mid-packet cannot sync to the preamble.
		if r.listenSince > tx.start {
			return
		}
		ok := !tx.corrupted
		if ok {
			m.stats.Delivered++
			r.RXPkts++
		} else {
			m.stats.Missed++
		}
		if r.recv != nil {
			r.recv(tx.pkt, tx.ch, ok)
		}
	})
}
