package ble

import (
	"fmt"

	"blemesh/internal/phy"
	"blemesh/internal/pktbuf"
	"blemesh/internal/ring"
	"blemesh/internal/sim"
	"blemesh/internal/trace"
)

// Role is a node's role on one connection. A node can be coordinator for
// some connections and subordinate for others at the same time (multi-role,
// Bluetooth ≥4.2), which is what makes mesh topologies — and connection
// shading — possible. It is the trace's role, so a record carries it as is.
type Role = trace.Role

// Connection roles.
const (
	Coordinator = trace.RoleCoordinator
	Subordinate = trace.RoleSubordinate
)

// LossReason explains why a connection ended. It is the trace's loss
// reason, so a record carries it as is.
type LossReason = trace.Loss

// Loss reasons.
const (
	// LossSupervision: no valid packet within the supervision timeout —
	// the signature of connection shading.
	LossSupervision = trace.LossSupervision
	// LossPeerTerminated: the peer sent LL_TERMINATE_IND.
	LossPeerTerminated = trace.LossPeerTerminated
	// LossHostTerminated: the local host closed the connection.
	LossHostTerminated = trace.LossHostTerminated
)

// ConnStats aggregates per-connection link-layer counters. The experiment
// harness derives link-layer PDRs (Fig. 12, 13(b), 15) from these.
type ConnStats struct {
	EventsPlanned uint64 // anchors that came due
	EventsSkipped uint64 // radio busy at anchor (shading footprint)
	EventsEmpty   uint64 // serviced, but no packet received
	EventsOK      uint64 // serviced with at least one valid packet received
	TXPDUs        uint64 // data/control PDUs transmitted (incl. retransmissions)
	TXUnique      uint64 // distinct PDUs acknowledged
	TXEmpty       uint64 // empty PDUs transmitted
	RXPDUs        uint64 // valid PDUs received
	RXCorrupt     uint64 // CRC-failed receptions
	Retrans       uint64 // retransmissions triggered
	SupResets     uint64 // supervision timer resets
}

// ChannelCounts is a connection's per-data-channel accounting, for Fig. 12's
// per-channel PDR panel: TX counts the PDUs it put on the air on each channel
// (TXPDUs split by channel), OK the valid PDUs it received there (RXPDUs split
// by channel). A connection keeps one only when its controller counts
// channels (Controller.CountChannels): one experiment reads them, and they
// were two fifths of every link end. 32 bits: a link moves tens of PDUs a
// second over 37 channels, so one channel takes centuries of simulated time
// to wrap.
type ChannelCounts struct {
	TX [NumDataChannels]uint32
	OK [NumDataChannels]uint32
}

// DataHandler takes the LL data payloads (LLID start/cont) a connection
// receives, with the carried packet's provenance ID (0 = untagged). The
// payload aliases the received PDU and is valid only during the call.
type DataHandler interface {
	LLData(llid LLID, payload []byte, pid uint64)
}

// txItem is one queued LL payload: a control PDU, or a data payload in the
// pooled buffer buf, which is also its charge on the controller's pool. The
// LL owns buf and its Put is the item's completion (ack or teardown); what
// only the item on the air needs is kept on the Conn (headSent and its
// siblings).
type txItem struct {
	llid LLID
	ctrl *DataPDU // non-nil for control PDUs
	pid  uint64   // provenance ID of the carried packet (0 = untagged)
	buf  *pktbuf.Buf
}

func (it txItem) size() int {
	if it.ctrl != nil {
		return it.ctrl.Len()
	}
	return it.buf.Len()
}

// Conn is one BLE connection endpoint (either role). Every timer and radio
// callback it arms is a method of a type declared over Conn (connWake and
// its siblings below), so a link end is this one object: no closure, no
// separately allocated Activity; its host upcall is an interface the layer
// above implements with a type it already allocates. Fields are ordered so
// the bytes and flags pack; TestConnFitsSizeClass holds it inside the 480 B
// size class.
type Conn struct {
	ctrl   *Controller
	peer   DevAddr
	handle int
	params ConnParams
	access uint32
	csa    csa2
	role   Role

	// Acknowledgement state (1-bit SN/NESN scheme).
	sn, nesn byte
	peerMD   bool
	// emptyInFlight: the last transmitted, still unacknowledged PDU was
	// an empty one. A retransmission must resend the SAME PDU — reusing
	// the sequence number for fresh data would be treated as a duplicate
	// by the peer while its acknowledgement discards the data.
	emptyInFlight bool

	closed  bool
	closing bool // TERMINATE_IND queued
	// fusing is set on a subordinate while its coordinator runs the event's
	// exchange in one step (fusedIdle): the reply is built, not scheduled.
	fusing bool
	// In-event flags: inside an event, a valid packet received in it, and
	// the current exchange moved a data/control payload.
	inEvent  bool
	evGotPkt bool
	exData   bool
	// The queue head's state. Only the head is ever on the air (SN/NESN
	// stop-and-wait), so it lives here and resets when the head pops:
	// headSent, its SN is assigned (built for its first transmission);
	// headReady, its ll-ready span is emitted; headTries, its
	// transmissions so far.
	headSent  bool
	headReady bool
	headTries int32

	// Event timing. evIdx counts connection events since event 0; the
	// 16-bit on-air event counter is its low half.
	evIdx       uint64
	anchor0     sim.Time // local time of connection event 0 anchor
	lastSyncLoc sim.Time // subordinate: local time of last anchor resync
	lastSyncIdx uint64   // subordinate: event index at last resync
	relSCA      float64  // combined declared sleep-clock accuracy (ppm)

	txq ring.Ring[txItem]

	// Pending parameter update (applied at instant).
	pendUpdate  *ConnUpdate
	pendInstant uint64

	// act is the connection's claim on the radio; its anchor is nextStart.
	act          Activity
	wake         sim.Timer
	nextStart    sim.Time // sim-time estimate of next event start
	lastAttended uint64   // subordinate: last event index actually serviced
	// Supervision: supDeadline is the sim time at which the link dies
	// unless a valid packet arrives first. supEvent is the wake-up for it,
	// filed only once the deadline is at or before the wake of the next
	// connection event (fileSupervision): until then that wake comes first
	// and looks again. A valid packet moves only the deadline, so a wake-up
	// filed before it may come early; it then looks again too.
	supDeadline sim.Time
	supEvent    sim.Timer
	// peerConn is the other endpoint of the link, learned from the first
	// valid packet. It outlives a peer that was killed or rebooted, so it is
	// only trusted while it is open and points back here.
	peerConn *Conn

	// In-event state.
	evCh      phy.Channel
	evLimit   sim.Time
	evTXBase  uint64 // stats.TXPDUs at event start (first-exchange detection)
	rxTimeout sim.Timer
	replyPDU  *DataPDU // PDU built for the pending subordinate reply

	stats ConnStats
	chans *ChannelCounts // nil unless the controller counts channels

	// OnData delivers received LL data payloads upward to L2CAP.
	OnData DataHandler
}

// The connection's events. Each type is Conn itself under another name, so
// (*connWake)(c) is the pointer c stored in a sim.Handler: arming it
// allocates nothing, and no per-connection callback object exists.
type (
	connWake      Conn // the next connection event is due (eventStart)
	connSupervise Conn // the supervision wake-up
	connRxExpire  Conn // the receive window closed without a packet
	connCoordDone Conn // the coordinator's packet left the air
	connCoordNext Conn // the coordinator's next exchange of the event
	connSubSend   Conn // the subordinate's reply, one IFS after the packet
	connSubDone   Conn // the subordinate's reply left the air
	connPreempt   Conn // the scheduler took the radio away (preempted)
	connCloseWait Conn // Close's fallback: the LL_TERMINATE_IND went unacknowledged
)

func (w *connWake) Fire()    { (*Conn)(w).eventStart() }
func (w *connPreempt) Fire() { (*Conn)(w).preempted() }

func (w *connSupervise) Fire() {
	c := (*Conn)(w)
	if c.sim().Now() < c.supDeadline {
		c.fileSupervision(c.nextStart)
		return
	}
	c.terminate(LossSupervision)
}

func (w *connRxExpire) Fire() {
	c := (*Conn)(w)
	c.rxTimeout = sim.Timer{}
	c.closeEvent()
}

func (w *connCoordDone) Fire() {
	c := (*Conn)(w)
	if !c.inEvent {
		return
	}
	// Wait for the subordinate's reply, due exactly one IFS after our
	// last bit.
	c.tune()
	c.rxTimeout = c.sim().Schedule(c.sim().Now()+IFS+CarrierMargin, (*connRxExpire)(c))
}

func (w *connCoordNext) Fire() {
	c := (*Conn)(w)
	if c.inEvent && c.ctrl.sched.Owns(&c.act) {
		c.coordTX()
	}
}

func (w *connSubSend) Fire() {
	c := (*Conn)(w)
	pdu := c.replyPDU
	c.replyPDU = nil
	if !c.inEvent || !c.ctrl.sched.Owns(&c.act) {
		c.closeEvent()
		return
	}
	c.transmitPDU(pdu, (*connSubDone)(c))
}

func (w *connSubDone) Fire() {
	c := (*Conn)(w)
	if !c.inEvent {
		return
	}
	// Continue listening if the coordinator may send more. A data exchange
	// delays the coordinator's next packet by its processing gap
	// (homogeneous firmware assumed).
	wait := IFS + CarrierMargin
	if c.exData {
		wait += DefaultExchangeGap
	}
	if (c.peerMD || c.txq.Len() > 0) && c.sim().Now()+wait < c.evLimit {
		c.tune()
		c.rxTimeout = c.sim().Schedule(c.sim().Now()+wait, (*connRxExpire)(c))
	} else {
		c.closeEvent()
	}
}

// Role returns the local role on this connection.
func (c *Conn) Role() Role { return c.role }

// Peer returns the remote device address.
func (c *Conn) Peer() DevAddr { return c.peer }

// Params returns the current connection parameters.
func (c *Conn) Params() ConnParams { return c.params }

// Interval returns the current connection interval.
func (c *Conn) Interval() sim.Duration { return c.params.Interval }

// Stats returns a copy of the link-layer counters.
func (c *Conn) Stats() ConnStats { return c.stats }

// ChannelCounts returns the connection's live per-channel counters, or nil
// when its controller did not count channels when it opened.
func (c *Conn) ChannelCounts() *ChannelCounts { return c.chans }

// Closed reports whether the connection has been torn down.
func (c *Conn) Closed() bool { return c.closed }

// Usable reports whether the connection still accepts outbound data: it is
// neither closed nor in the middle of a graceful termination.
func (c *Conn) Usable() bool { return !c.closed && !c.closing }

// QueueLen returns the number of LL payloads waiting for transmission.
func (c *Conn) QueueLen() int { return c.txq.Len() }

func (c *Conn) String() string {
	return fmt.Sprintf("conn#%d(%s→%s %s itvl=%v)", c.handle, c.ctrl.cfg.Addr, c.peer, c.role, c.params.Interval)
}

// newConn wires a connection endpoint and schedules its first event.
// anchor0 is the sim-time of connection event 0 (the transmit window start).
func newConn(ctrl *Controller, role Role, peer DevAddr, params ConnParams, access uint32, anchor0 sim.Time) *Conn {
	c := &Conn{
		ctrl:   ctrl,
		role:   role,
		peer:   peer,
		handle: ctrl.nextHandle(),
		params: params,
		access: access,
		csa:    newCSA2(access),
	}
	if ctrl.countChannels {
		c.chans = new(ChannelCounts)
	}
	localNow := ctrl.clk.Now()
	c.anchor0 = localNow + ctrl.clk.ToLocal(anchor0-ctrl.sim().Now())
	if role == Subordinate {
		// No sync yet: event 0 must be found inside the transmit
		// window, so the initial uncertainty is a full window.
		c.lastSyncLoc = c.anchor0
		c.lastSyncIdx = 0
		c.relSCA = params.CoordSCA + ctrl.cfg.SCA
	}
	c.act = Activity{anchor: &c.nextStart, onPreempt: (*connPreempt)(c)}
	ctrl.sched.Register(&c.act)
	// Connection establishment: until the first valid packet is received
	// the specification bounds the timeout to six connection intervals,
	// so a CONNECT_IND the peer never heard fails fast.
	est := 6 * params.Interval
	if est > params.Supervision {
		est = params.Supervision
	}
	c.armSupervision(est)
	c.scheduleEvent()
	return c
}

func (c *Conn) sim() *sim.Sim     { return c.ctrl.sim() }
func (c *Conn) clk() *sim.Clock   { return c.ctrl.clk }
func (c *Conn) radio() *phy.Radio { return c.ctrl.radio }

// ---- Supervision -----------------------------------------------------

// armSupervision moves the supervision deadline to timeout (local clock)
// from now. A pending wake-up is left where it is unless the deadline moved
// in front of it (a ConnUpdate that shortens the timeout): every valid
// packet pushes the deadline out, and re-filing a timer that fires only when
// the link dies was two queue operations per connection event.
func (c *Conn) armSupervision(timeout sim.Duration) {
	c.supDeadline = c.sim().Now() + c.clk().ToSim(timeout)
	if c.supEvent.Scheduled() {
		if c.supEvent.When() <= c.supDeadline {
			return
		}
		c.sim().Cancel(c.supEvent)
	}
	wake := c.nextStart
	if wake == 0 {
		wake = c.supDeadline // no event scheduled yet: file it outright
	}
	c.fileSupervision(wake)
}

// fileSupervision files the supervision wake-up if none is pending and the
// deadline is at or before wake, the wake of the next connection event. A
// later deadline needs no timer: that wake fires first and calls this again
// for the event after it, so an idle, healthy link keeps only its
// connection wake-ups in the queue, and none of them lands inside the
// link's own exchange to stop fusedIdle.
func (c *Conn) fileSupervision(wake sim.Time) {
	if c.supDeadline <= wake && !c.supEvent.Scheduled() {
		c.supEvent = c.sim().Schedule(c.supDeadline, (*connSupervise)(c))
	}
}

func (c *Conn) resetSupervision() {
	c.stats.SupResets++
	c.armSupervision(c.params.Supervision)
}

// ---- Event scheduling -------------------------------------------------

// anchorLocal returns the local-clock time of the anchor of event idx.
func (c *Conn) anchorLocal(idx uint64) sim.Time {
	if c.role == Coordinator {
		return c.anchor0 + sim.Time(idx)*c.params.Interval
	}
	return c.lastSyncLoc + sim.Time(idx-c.lastSyncIdx)*c.params.Interval
}

// windowWidening returns the subordinate's listen-window half-width for
// event idx: combined declared SCA times the local time since last sync,
// plus a base jitter allowance. Event 0 additionally carries the full
// transmit-window uncertainty.
func (c *Conn) windowWidening(idx uint64) sim.Duration {
	if c.ctrl.cfg.DisableWindowWidening {
		return WindowWideningBase
	}
	elapsed := c.anchorLocal(idx) - c.lastSyncLoc
	ww := sim.Duration(float64(elapsed)*c.relSCA*1e-6) + WindowWideningBase
	if c.lastSyncIdx == 0 && c.evGotPktNever() {
		ww += TransmitWindowDelay
	}
	return ww
}

func (c *Conn) evGotPktNever() bool { return c.stats.EventsOK == 0 }

// scheduleEvent arms the wake-up for the next connection event.
func (c *Conn) scheduleEvent() {
	if c.closed {
		return
	}
	c.applyPendingAt(c.evIdx)
	anchorLoc := c.anchorLocal(c.evIdx)
	wakeLoc := anchorLoc
	if c.role == Subordinate {
		wakeLoc -= c.windowWidening(c.evIdx)
	}
	// Convert to sim time for the anchor estimate other activities see.
	nowLoc := c.clk().Now()
	d := wakeLoc - nowLoc
	if d < 0 {
		d = 0
	}
	simDelay := c.clk().ToSim(d)
	c.nextStart = c.sim().Now() + simDelay
	// Filed before the wake, so a deadline on the wake's instant fires first.
	c.fileSupervision(c.nextStart)
	c.wake = c.sim().Schedule(c.nextStart, (*connWake)(c))
}

// applyPendingAt applies a pending connection update when its instant is
// reached.
func (c *Conn) applyPendingAt(idx uint64) {
	if c.pendUpdate != nil && idx >= c.pendInstant {
		// The event at the update instant keeps its old-schedule anchor;
		// the new interval applies from there on. The base must be
		// computed at the INSTANT and under the OLD interval, so both
		// endpoints rebase identically even if one skipped events
		// around the instant.
		base := c.anchorLocal(c.pendInstant)
		c.params.Interval = c.pendUpdate.Interval
		c.params.Latency = c.pendUpdate.Latency
		c.params.Supervision = c.pendUpdate.Supervision
		c.anchor0 = base - sim.Time(c.pendInstant)*c.params.Interval
		if c.role == Subordinate {
			c.lastSyncLoc = base - sim.Time(c.pendInstant-c.lastSyncIdx)*c.params.Interval
		}
		c.pendUpdate = nil
		c.armSupervision(c.params.Supervision)
	}
}

// eventStart fires at the event anchor (coordinator) or at the start of the
// widened listen window (subordinate).
func (c *Conn) eventStart() {
	if c.closed {
		return
	}
	idx := c.evIdx
	c.evIdx++
	c.stats.EventsPlanned++

	// Schedule the next event first so concurrent acquirers see our next
	// anchor when computing their limits.
	c.scheduleEvent()

	// Subordinate latency: with nothing to exchange, the subordinate may
	// sleep through up to Latency consecutive events (§2.2 of the paper).
	if c.role == Subordinate && c.params.Latency > 0 && c.txq.Len() == 0 && !c.peerMD &&
		idx-c.lastAttended <= uint64(c.params.Latency) {
		return
	}

	maxEnd := c.nextStart - IFS
	limit, ok := c.ctrl.sched.Acquire(&c.act, maxEnd)
	if !ok {
		// Radio busy: the whole event is skipped. Under connection
		// shading this happens for hundreds of consecutive events.
		c.stats.EventsSkipped++
		if c.ctrl.tr.Enabled() {
			c.ctrl.tr.Add(c.ctrl.node, 0, 0, trace.EventSkipped(c.handle, idx, c.txq.Len()))
		}
		return
	}
	c.inEvent = true
	c.evGotPkt = false
	c.evCh = c.csa.Channel(uint16(idx), c.params.ChanMap)
	c.evLimit = limit
	c.evTXBase = c.stats.TXPDUs
	c.lastAttended = idx

	if c.role == Coordinator {
		c.ctrl.events.ConnEvents++
		if !c.fusedIdle() {
			c.coordTX()
		}
	} else {
		c.ctrl.events.ConnEventsSub++
		ww := c.windowWidening(idx)
		deadline := c.sim().Now() + c.clk().ToSim(2*ww) + CarrierMargin
		c.listen(deadline)
	}
}

// preempted is invoked by the scheduler (alternate arbitration) when another
// activity takes the radio mid-event. A packet in flight is cut off on the
// air (the peer sees a CRC failure).
func (c *Conn) preempted() {
	if !c.inEvent {
		return
	}
	c.cancelRxTimeout()
	switch c.radio().State() {
	case phy.RadioRX:
		c.radio().StopListen()
	case phy.RadioTX:
		c.radio().AbortTX()
	}
	c.ctrl.clearRx()
	c.inEvent = false
	if !c.evGotPkt {
		c.stats.EventsEmpty++
	} else {
		c.stats.EventsOK++
	}
}

// closeEvent ends the in-progress connection event and releases the radio.
func (c *Conn) closeEvent() {
	if !c.inEvent {
		return
	}
	c.cancelRxTimeout()
	if c.radio().State() == phy.RadioRX {
		c.radio().StopListen()
	}
	c.ctrl.clearRx()
	c.inEvent = false
	if c.evGotPkt {
		c.stats.EventsOK++
	} else {
		c.stats.EventsEmpty++
	}
	c.ctrl.sched.Release(&c.act)
}

func (c *Conn) cancelRxTimeout() {
	c.sim().Cancel(c.rxTimeout)
	c.rxTimeout = sim.Timer{}
}

// ---- Packet exchange --------------------------------------------------

// buildPDU assembles the next PDU to transmit: the head of the TX queue or
// an empty PDU, stamped with the current SN/NESN/MD bits.
func (c *Conn) buildPDU() *DataPDU {
	var pdu *DataPDU
	if c.txq.Len() > 0 && !c.emptyInFlight {
		it := c.txq.Front()
		if it.ctrl != nil {
			pdu = it.ctrl
			pdu.LLID = LLIDControl
		} else {
			// Data PDUs reuse the controller's scratch object (see
			// Controller.scratch for why one per radio is enough).
			pdu = &c.ctrl.scratch
			*pdu = DataPDU{LLID: it.llid, Payload: it.buf.Bytes(), PID: it.pid}
		}
		c.headSent = true
	} else {
		pdu = &c.ctrl.scratch
		*pdu = DataPDU{LLID: LLIDDataCont} // empty PDU
	}
	pdu.Access = c.access
	pdu.from = c
	pdu.SN = c.sn
	pdu.NESN = c.nesn
	pdu.MD = c.txq.Len() > 1
	return pdu
}

// transmitPDU sends pdu on the event channel and invokes done afterwards.
// Retransmission accounting: if the queue head has already been on the air
// once, this transmission is a retransmission of it.
func (c *Conn) transmitPDU(pdu *DataPDU, done sim.Handler) {
	air := c.noteTX(pdu)
	c.radio().Transmit(c.evCh, onAir(pdu, air), air, done)
}

// onAir wraps pdu as the medium's packet of the given airtime.
func onAir(pdu *DataPDU, air sim.Duration) phy.Packet {
	return phy.Packet{Bits: int(air / ByteTime * 8), Payload: pdu}
}

// noteTX is the link layer's own account of putting pdu on the air — every
// effect of a transmission except the radio's. It returns the airtime.
func (c *Conn) noteTX(pdu *DataPDU) sim.Duration {
	air := Airtime(pdu.Len())
	c.stats.TXPDUs++
	if pdu.Len() == 0 {
		c.stats.TXEmpty++
	}
	try := 1
	if c.txq.Len() > 0 && pdu.Len() > 0 && c.headSent {
		if c.headTries > 0 {
			c.stats.Retrans++
		}
		c.headTries++
		try = int(c.headTries)
	}
	if pdu.Len() > 0 {
		c.exData = true
	} else if pdu.LLID != LLIDControl {
		c.emptyInFlight = true
	}
	if pdu.PID != 0 && c.ctrl.tr.Keeps(pdu.PID) {
		c.ctrl.tr.Add(c.ctrl.node, pdu.PID, air, trace.LLTx(c.handle, uint8(c.evCh), try, pdu.Len()))
	}
	if c.chans != nil {
		c.chans.TX[c.evCh]++
	}
	return air
}

// processRx applies the SN/NESN acknowledgement rules to a received PDU and
// delivers new data upward. It returns whether the peer indicated more data.
func (c *Conn) processRx(pdu *DataPDU) {
	c.evGotPkt = true
	if pdu.Len() > 0 {
		c.exData = true
	}
	c.stats.RXPDUs++
	if c.chans != nil {
		c.chans.OK[c.evCh]++
	}
	c.resetSupervision()
	c.peerMD = pdu.MD

	// Acknowledgement of our last transmission: the peer's NESN differs
	// from our SN when it accepted our packet.
	if pdu.NESN != c.sn {
		c.sn ^= 1
		c.emptyInFlight = false
		if c.txq.Len() > 0 && c.headSent {
			it := c.txq.Pop()
			c.headSent, c.headReady, c.headTries = false, false, 0
			if it.ctrl != nil || it.buf.Len() > 0 {
				c.stats.TXUnique++
			}
			if it.ctrl == nil {
				c.complete(it)
			} else if it.ctrl.Opcode == OpTerminateInd {
				c.terminate(LossHostTerminated)
				return
			}
			c.markHeadReady()
		}
	}

	// New data from the peer: its SN matches our NESN expectation.
	if pdu.SN == c.nesn {
		c.nesn ^= 1
		c.deliver(pdu)
	}
}

// markHeadReady records the head of the transmit queue becoming eligible
// for the next connection event — the boundary between queueing wait and
// connection-interval wait in the latency decomposition. Emitted once per
// tagged item.
func (c *Conn) markHeadReady() {
	if !c.ctrl.tr.Enabled() || c.txq.Len() == 0 {
		return
	}
	it := c.txq.Front()
	if c.headReady || it.pid == 0 {
		return
	}
	c.headReady = true
	if c.ctrl.tr.Keeps(it.pid) {
		c.ctrl.tr.Add(c.ctrl.node, it.pid, 0, trace.LLReady(c.handle, c.txq.Len()))
	}
}

// deliver hands a freshly received PDU to the host or executes the control
// procedure it carries.
func (c *Conn) deliver(pdu *DataPDU) {
	switch {
	case pdu.LLID == LLIDControl:
		switch pdu.Opcode {
		case OpTerminateInd:
			c.terminate(LossPeerTerminated)
		case OpConnParamReq:
			if c.role != Coordinator {
				return
			}
			iv := pdu.Update.Interval
			if c.ctrl.OnConn != nil && c.ctrl.OnConn.ParamRequest(c, iv) {
				_ = c.UpdateParams(iv, c.params.Latency, c.params.Supervision)
			} else {
				c.sendControl(&DataPDU{Opcode: OpRejectInd})
			}
		case OpRejectInd:
			// Our parameter request was rejected; nothing to roll back.
		case OpConnUpdateInd:
			u := pdu.Update
			c.pendUpdate = &u
			c.pendInstant = c.instantToIdx(pdu.Instant)
		}
	case len(pdu.Payload) > 0:
		if pdu.PID != 0 && c.ctrl.tr.Keeps(pdu.PID) {
			c.ctrl.tr.Add(c.ctrl.node, pdu.PID, Airtime(pdu.Len()), trace.LLRx(c.handle, uint8(c.evCh), pdu.Len()))
		}
		if c.OnData != nil {
			c.OnData.LLData(pdu.LLID, pdu.Payload, pdu.PID)
		}
	}
}

// instantToIdx widens a 16-bit on-air instant to our 64-bit event index.
func (c *Conn) instantToIdx(instant uint16) uint64 {
	base := c.evIdx &^ 0xFFFF
	idx := base | uint64(instant)
	if idx < c.evIdx {
		idx += 1 << 16
	}
	return idx
}

// listen tunes the radio to the event channel and arms the no-carrier
// timeout.
func (c *Conn) listen(deadline sim.Time) {
	c.tune()
	c.rxTimeout = c.sim().Schedule(deadline, (*connRxExpire)(c))
}

// tune starts receiving on the event channel for this connection.
func (c *Conn) tune() {
	c.radio().StartListen(c.evCh)
	c.ctrl.setRxConn(c)
}

// onCarrier extends the receive deadline to the detected end of packet.
func (c *Conn) onCarrier(_ phy.Channel, end sim.Time) {
	if !c.inEvent {
		return
	}
	c.cancelRxTimeout()
	// Guard in case the end-of-packet indication is suppressed. The medium
	// delivers it to every radio that stayed tuned, and the one thing that
	// retunes a radio inside an event is the scan rotation of a controller
	// that is scanning (DESIGN.md §5 "Scan rotation", an open defect): until
	// that is fixed this timer ends such an event, and a controller that is
	// not scanning does not need it. (Scanning that starts under this
	// packet rotates one scan interval later, past the end of any packet.)
	if c.ctrl.scanOn {
		c.rxTimeout = c.sim().Schedule(end+sim.Microsecond, (*connRxExpire)(c))
	}
}

// onRx is the end-of-packet indication for this connection's event.
func (c *Conn) onRx(pkt phy.Packet, _ phy.Channel, ok bool) {
	if !c.inEvent {
		return
	}
	c.cancelRxTimeout()
	pdu, isData := pkt.Payload.(*DataPDU)
	if isData && ok && pdu.Access != c.access {
		// A packet of a co-channel connection: the radio never
		// synchronises to a foreign access address. Keep listening for
		// our own packet until the window closes.
		c.rxTimeout = c.sim().Schedule(c.sim().Now()+CarrierMargin, (*connRxExpire)(c))
		return
	}
	if !ok || !isData {
		// CRC failure (collision, jammer, noise): close the event; the
		// retransmission happens one connection interval later, which
		// is exactly the +1-interval latency step of Fig. 8.
		c.stats.RXCorrupt++
		c.closeEvent()
		return
	}
	c.peerConn = pdu.from
	if c.role == Subordinate {
		c.exData = false
	}
	if c.role == Subordinate && !c.evGotPkt {
		// First packet of the event: resync the anchor to the
		// coordinator's clock (this is what window widening protects).
		air := Airtime(pdu.Len())
		startLoc := c.clk().Now() - c.clk().ToLocal(air)
		c.lastSyncLoc = startLoc
		c.lastSyncIdx = c.evIdx - 1
	}
	wasClosed := c.closed
	c.processRx(pdu)
	if c.closed && !wasClosed {
		return
	}
	c.radio().StopListen()
	if c.role == Coordinator {
		c.coordAfterRx()
	} else {
		c.subReply()
	}
}

// ---- Coordinator side --------------------------------------------------

// coordTX transmits the coordinator's next packet of the event.
func (c *Conn) coordTX() {
	first := !c.evGotPkt && c.stats.TXPDUs == c.evTXBase
	c.exData = false
	pdu := c.buildPDU()
	need := Airtime(pdu.Len()) + IFS + Airtime(0)
	if !first && (c.sim().Now()+need > c.evLimit || !c.ctrl.sched.Owns(&c.act)) {
		// No room for another full exchange before the next activity
		// needs the radio: the event yields (Fig. 4 truncation). The
		// FIRST exchange of an event is mandatory per the spec's packet
		// flow and is never suppressed; a resulting overrun shows up as
		// a skipped event on the competing connection.
		c.closeEvent()
		return
	}
	c.transmitPDU(pdu, (*connCoordDone)(c))
}

// coordAfterRx decides whether to start another exchange in this event.
// When the previous exchange moved data, DefaultExchangeGap models
// the host/controller processing time before the next buffer is ready.
func (c *Conn) coordAfterRx() {
	more := c.peerMD || c.txq.Len() > 0
	if more && c.ctrl.sched.Owns(&c.act) {
		wait := IFS
		if c.exData {
			wait += DefaultExchangeGap
		}
		next := c.buildPDUPreview()
		need := wait + Airtime(next) + IFS + Airtime(0)
		if c.sim().Now()+need <= c.evLimit {
			c.sim().Schedule(c.sim().Now()+wait, (*connCoordNext)(c))
			return
		}
	}
	c.closeEvent()
}

// buildPDUPreview returns the length of the next PDU without building it.
func (c *Conn) buildPDUPreview() int {
	if c.txq.Len() > 0 {
		return c.txq.Front().size()
	}
	return 0
}

// fusedIdle runs the whole event at the coordinator's anchor when it is an
// empty-PDU exchange that nothing else can take part in or look at, and
// reports whether it did. The event-by-event path — coordTX, two ends of
// transmission, the subordinate's IFS, two listen timeouts armed to be
// cancelled — is the general path and the reference; this one is taken only
// when every step of that path is already determined:
//
//   - the peer endpoint is known, open, and points back here; it is in its
//     event, owns its radio and listens on the event channel;
//   - neither side has anything queued (so no data, no control procedure, no
//     termination in progress);
//   - neither controller is scanning (a scanning controller arms a receive
//     guard under every packet and retunes on a rotation timer);
//   - no other radio of the RF domain is tuned to the channel and nothing is
//     in flight on it (phy.Radio.SoleListener);
//   - with the subordinate's listen timeout cancelled — the first thing the
//     carrier indication of our packet would have done, at this instant —
//     no event of this Sim is due before the exchange is over and the Run
//     call in progress reaches that far (sim.Sim.QuietUntil).
//
// Then the clock is moved through the end of our packet, the start of the
// reply and its end, and at each instant the functions the event-by-event
// path would have run there are called in its order: acknowledgement,
// resync, supervision and event close are not restated here. Both packets
// can still be lost to interference, each drawn at its own start; a lost
// first packet leaves the subordinate closed and this side listening until
// its timeout, which also lies inside the window.
//
// A declined event leaves one trace: the subordinate's listen timeout may
// already be cancelled, which is what Transmit's carrier indication does
// next, at the same instant and before anything is scheduled.
func (c *Conn) fusedIdle() bool {
	ctrl := c.ctrl
	if ctrl.eventByEvent || c.txq.Len() > 0 {
		return false
	}
	p := c.peerConn
	known := p != nil && !p.closed && p.peerConn == c
	if known && p.txq.Len() > 0 {
		return false
	}
	s := ctrl.s
	t1 := s.Now() + Airtime(0)
	t2 := t1 + IFS
	t3 := t2 + Airtime(0)
	closed := known && c.aloneWith(p)
	if closed {
		p.cancelRxTimeout() // as our packet's carrier is about to, on either path
		closed = s.QuietUntil(t3)
	}
	if !closed {
		ctrl.events.IdleDeclined++
		return false
	}
	ctrl.events.IdleFused++
	pc := p.ctrl

	// coordTX and, at the end of the packet, the medium's finish followed
	// by connCoordDone.
	c.exData = false
	pdu := c.buildPDU()
	air := c.noteTX(pdu)
	ok := ctrl.radio.TransmitSole(c.evCh, air)
	s.Advance(t1)
	p.fusing = true
	ctrl.radio.DeliverSole(pc.radio, onAir(pdu, air), c.evCh, ok)
	p.fusing = false
	c.tune()

	reply := p.replyPDU
	if reply == nil {
		// The subordinate did not hear us and has closed its event: this
		// side's listen timeout runs out (connRxExpire).
		s.Advance(t1 + IFS + CarrierMargin)
		c.closeEvent()
		return true
	}
	// connSubSend and, at the end of the reply, finish followed by
	// connSubDone.
	p.replyPDU = nil
	s.Advance(t2)
	air = p.noteTX(reply)
	ok = pc.radio.TransmitSole(c.evCh, air)
	s.Advance(t2 + air)
	pc.radio.DeliverSole(ctrl.radio, onAir(reply, air), c.evCh, ok)
	(*connSubDone)(p).Fire()
	return true
}

// aloneWith reports whether the subordinate endpoint p is waiting for this
// event's packet with nobody else in a position to hear or disturb it:
// fusedIdle's preconditions on the two nodes and their RF domain.
func (c *Conn) aloneWith(p *Conn) bool {
	ctrl, pc := c.ctrl, p.ctrl
	return p.inEvent && p.evCh == c.evCh && pc.sched.Owns(&p.act) && pc.s == ctrl.s &&
		!ctrl.scanOn && !pc.scanOn && ctrl.radio.SoleListener(c.evCh, pc.radio)
}

// ---- Subordinate side ---------------------------------------------------

// subReply answers the coordinator one IFS after its packet ended. The
// reply to a received packet is mandatory (the spec's packet flow includes
// at least one full exchange per event); only FURTHER exchanges yield to the
// node's other radio activities.
func (c *Conn) subReply() {
	if !c.ctrl.sched.Owns(&c.act) {
		c.closeEvent()
		return
	}
	c.replyPDU = c.buildPDU()
	if c.fusing {
		return // the coordinator sends it, one IFS from now (fusedIdle)
	}
	c.sim().Schedule(c.sim().Now()+IFS, (*connSubSend)(c))
}

// ---- Host interface -----------------------------------------------------

// SendBuf enqueues the LL data payload in b (≤ MaxDataLen bytes) tagged
// with the provenance ID of the packet it carries (0 = untagged). The LL
// transmits straight out of b and puts it when the peer acknowledges it or
// the link dies: that Put is the completion, and it returns whatever charge
// the buffer carries. It returns false when the link is closed or the
// controller's shared buffer pool is exhausted — the backpressure signal
// L2CAP translates into credit stalling. Ownership of b passes to the
// connection in every case: on a false return the buffer has already been
// released.
func (c *Conn) SendBuf(llid LLID, b *pktbuf.Buf, pid uint64) bool {
	if c.closed || c.closing {
		b.Put()
		return false
	}
	n := b.Len()
	if n > MaxDataLen {
		panic(fmt.Sprintf("ble: payload %d exceeds LL maximum %d", n, MaxDataLen))
	}
	if !c.ctrl.pool.alloc(n) {
		c.ctrl.events.PoolExhausted++
		b.Put()
		return false
	}
	c.txq.Push(txItem{llid: llid, pid: pid, buf: b})
	c.markHeadReady()
	return true
}

// complete returns a data item's bytes to the controller's pool and puts its
// buffer.
func (c *Conn) complete(it txItem) {
	c.ctrl.pool.free(it.buf.Len())
	it.buf.Put()
}

// sendControl enqueues an LL control PDU (not charged to the data pool).
func (c *Conn) sendControl(pdu *DataPDU) {
	pdu.LLID = LLIDControl
	c.txq.Push(txItem{ctrl: pdu})
}

// UpdateParams starts the connection parameter update procedure
// (coordinator only): the new interval takes effect at an instant 6 events
// ahead, per the usual controller margin.
func (c *Conn) UpdateParams(interval sim.Duration, latency int, supervision sim.Duration) error {
	if c.role != Coordinator {
		return fmt.Errorf("ble: only the coordinator can update connection parameters")
	}
	p := ConnParams{Interval: interval, Latency: latency, Supervision: supervision,
		ChanMap: c.params.ChanMap, CoordSCA: c.params.CoordSCA}
	if err := p.Validate(); err != nil {
		return err
	}
	instant := c.evIdx + 6
	c.sendControl(&DataPDU{
		Opcode:  OpConnUpdateInd,
		Update:  ConnUpdate{Interval: p.Interval, Latency: p.Latency, Supervision: p.Supervision},
		Instant: uint16(instant),
	})
	// The coordinator applies the same update at the same instant.
	u := ConnUpdate{Interval: p.Interval, Latency: p.Latency, Supervision: p.Supervision}
	c.pendUpdate = &u
	c.pendInstant = instant
	return nil
}

// Close terminates the connection gracefully: an LL_TERMINATE_IND is sent
// and the link is dropped once it is acknowledged (or after a fallback
// timeout if the peer is unreachable).
func (c *Conn) Close() {
	if c.closed || c.closing {
		return
	}
	c.closing = true
	c.sendControl(&DataPDU{Opcode: OpTerminateInd})
	c.sim().Schedule(c.sim().Now()+sim.Second, (*connCloseWait)(c))
}

func (w *connCloseWait) Fire() { (*Conn)(w).terminate(LossHostTerminated) }

// Kill tears the connection down immediately and silently — no
// LL_TERMINATE_IND reaches the peer, which discovers the loss through its
// supervision timeout. Fault injection uses this to model abrupt link death
// (a crashed node does not say goodbye).
func (c *Conn) Kill() {
	c.terminate(LossHostTerminated)
}

// terminate tears the connection down and notifies the host.
func (c *Conn) terminate(reason LossReason) {
	if c.closed {
		return
	}
	c.closed = true
	if c.inEvent {
		c.cancelRxTimeout()
		switch c.radio().State() {
		case phy.RadioRX:
			c.radio().StopListen()
		case phy.RadioTX:
			// The supervision timer can fire while our own packet is
			// in flight; the radio must be silenced before the radio
			// is handed back.
			c.radio().AbortTX()
		}
		c.ctrl.clearRx()
		c.inEvent = false
		c.ctrl.sched.Release(&c.act)
	}
	c.sim().Cancel(c.wake)
	c.sim().Cancel(c.supEvent)
	c.nextStart = 0
	// Complete undelivered payloads: each Put returns the pooled bytes and
	// whatever pktbuf charge its buffer carries, which would otherwise leak
	// with the link.
	for i := 0; i < c.txq.Len(); i++ {
		if it := c.txq.At(i); it.ctrl == nil {
			if it.pid != 0 && c.ctrl.tr.Keeps(it.pid) {
				c.ctrl.tr.Add(c.ctrl.node, it.pid, 0, trace.DropConnLost(c.handle, reason))
			}
			c.complete(it)
		}
	}
	c.txq.Reset()
	c.replyPDU = nil
	// The controller's scratch PDU may still hold this link's last packet,
	// long delivered: it must not keep the dead Conn and its payload
	// reachable.
	if c.ctrl.scratch.from == c {
		c.ctrl.scratch = DataPDU{}
	}
	c.ctrl.removeConn(c, reason)
}

// TraceDrop records a provenance-tagged packet dropped by an upper layer
// that holds this connection (e.g. L2CAP frames flushed at channel
// teardown) as a link-reset. A zero pid or a disabled trace log makes it a
// no-op.
func (c *Conn) TraceDrop(pid uint64) {
	if pid != 0 && c.ctrl.tr.Keeps(pid) {
		c.ctrl.tr.Add(c.ctrl.node, pid, 0, trace.DropLinkReset(c.handle))
	}
}

// PoolFree exposes the controller's free LL buffer bytes to upper layers.
func (c *Conn) PoolFree() int { return c.ctrl.PoolFree() }

// RequestParams starts the Connection Parameters Request procedure from the
// subordinate side: propose a new connection interval to the coordinator,
// which applies it via the update procedure or rejects it.
func (c *Conn) RequestParams(interval sim.Duration) error {
	if c.role != Subordinate {
		return fmt.Errorf("ble: only the subordinate requests parameters (the coordinator updates directly)")
	}
	p := ConnParams{Interval: interval}
	if err := p.Validate(); err != nil {
		return err
	}
	c.sendControl(&DataPDU{
		Opcode: OpConnParamReq,
		Update: ConnUpdate{Interval: interval},
	})
	return nil
}
