package ble

import (
	"fmt"
	"slices"

	"blemesh/internal/phy"
	"blemesh/internal/sim"
	"blemesh/internal/trace"
)

// ControllerConfig parameterises one node's BLE controller.
type ControllerConfig struct {
	// Addr is the node's device address.
	Addr DevAddr
	// SCA is the node's declared sleep-clock accuracy in ppm (the value
	// advertised to peers for window widening, not the actual drift).
	SCA float64
	// PoolBytes is the shared LL transmit buffer pool, NimBLE's msys
	// pool; the paper's configuration uses 6600 bytes.
	PoolBytes int
	// Arbitration selects the radio scheduler policy.
	Arbitration Arbitration
	// DisableWindowWidening turns subordinate window widening off
	// (ablation only — real controllers must implement it).
	DisableWindowWidening bool
}

// DefaultExchangeGap models host/controller processing time per data PDU
// exchanged: the extra delay before the coordinator starts the next
// exchange of the same connection event after data moved. Calibrated so a
// saturated single link sustains ≈500 kbps of LL payload, the figure the
// paper measures for RIOT+NimBLE on nRF52 (§5.2).
const DefaultExchangeGap = 1500 * sim.Microsecond

func (cfg *ControllerConfig) defaults() {
	if cfg.SCA == 0 {
		cfg.SCA = 50
	}
	if cfg.PoolBytes == 0 {
		cfg.PoolBytes = 6600
	}
}

// AdvParams configures advertising.
type AdvParams struct {
	// Interval is the advertising interval; the controller adds the
	// specification's 0..10ms pseudo-random advDelay to each event.
	Interval sim.Duration
	// DataLen is the advertising payload size (flags + IPSS UUID etc.).
	DataLen int
}

// ScanParams configures scanning/initiating.
type ScanParams struct {
	// Interval and Window control the scan duty cycle. The paper uses
	// 100ms/100ms, i.e. continuous scanning whenever the radio is free.
	Interval sim.Duration
	Window   sim.Duration
}

// ControllerEvents counts controller-level occurrences for the experiment
// harness and the energy model.
type ControllerEvents struct {
	ConnEvents    uint64 // connection events serviced as coordinator
	ConnEventsSub uint64 // connection events serviced as subordinate
	AdvEvents     uint64 // advertising events (3-channel sweeps)
	ConnectsTX    uint64 // CONNECT_INDs transmitted
	ConnsOpened   uint64
	ConnsLost     uint64 // lost to supervision timeout
	ConnsClosed   uint64 // terminated deliberately
	PoolExhausted uint64 // Send rejected: LL buffer pool full
	AdvReceived   uint64 // ADV_INDs seen while scanning
	// IdleFused counts the coordinator events run in one step
	// (Conn.fusedIdle); IdleDeclined those that had nothing queued at either
	// end, as far as this side could tell, and still ran event by event
	// because something else could have taken part or looked. The rest of
	// ConnEvents carried data. Host-side cost accounting, not behaviour:
	// neither is exported to the metrics registry.
	IdleFused    uint64
	IdleDeclined uint64
}

// pool is a byte-budget allocator modelling a fixed buffer pool.
type pool struct {
	capacity int
	used     int
}

func (p *pool) alloc(n int) bool {
	if p.used+n > p.capacity {
		return false
	}
	p.used += n
	return true
}

func (p *pool) free(n int) {
	p.used -= n
	if p.used < 0 {
		panic("ble: pool underflow")
	}
}

// ConnHandler takes a controller's connection upcalls: ConnUp when a
// connection is established (either role), ConnDown when one ends for any
// reason, and ParamRequest when the subordinate of coordinator link c asks
// for interval iv: true applies it through the update procedure, false
// rejects it.
type ConnHandler interface {
	ConnUp(c *Conn)
	ConnDown(c *Conn, reason LossReason)
	ParamRequest(c *Conn, iv sim.Duration) bool
}

// Controller is one node's BLE controller: the single radio, its scheduler,
// the set of active connections, and the advertising/scanning machinery.
// Fields are ordered so the flags pack; TestControllerFitsSizeClass holds it
// inside the 480 B size class.
type Controller struct {
	s     *sim.Sim
	clk   *sim.Clock
	radio *phy.Radio
	cfg   ControllerConfig // cfg.Addr is the device address
	sched Scheduler
	pool  pool

	scanOn bool
	// rx is who takes the radio's indications while no connection listens
	// (rxConn): advertising's listen window, scanning, or nobody.
	rx rxMode
	// eventByEvent keeps every connection event on the general path
	// (SetEventByEvent).
	eventByEvent bool
	// countChannels gives every connection opened from now on its
	// ChannelCounts (CountChannels).
	countChannels bool

	// conns is the connection table: a short slice (a BLE node sustains a
	// handful of links, so linear scans beat hashing) that stays ordered
	// by handle, since handles only ever grow — Shutdown's handle-ordered
	// teardown is a plain scan.
	conns   []*Conn
	handles int

	// form is the advertising and scanning state (formation), nil while
	// the controller does neither. scanParams is the host's configuration
	// and outlives it.
	form       *formation
	scanParams ScanParams

	// Receive dispatch: whoever currently listens installs itself. A
	// connection in its event is rxConn; advertising and scanning set rx.
	rxConn *Conn

	// scratch is the data or empty PDU the connections of this controller
	// build (control PDUs keep their own). One is enough for all of them:
	// the controller has one radio, and a receiver consumes a PDU
	// synchronously at its end of air, so a PDU is dead once its
	// transmission ends (a packet cut off by pre-emption ends corrupted,
	// and nobody reads a corrupted packet's payload). The one gap between
	// building a PDU and sending it is the subordinate's IFS before its
	// reply, and a link pre-empted in that gap does not send (connSubSend).
	scratch DataPDU

	events ControllerEvents

	// Flight-recorder wiring: connections emit LL span events (ll-tx,
	// ll-rx, event-skipped, link-reset drops) into tr under the node name.
	tr   *trace.Log
	node string

	// OnConn takes the connection upcalls: establishment (either role)
	// and termination for any reason.
	OnConn ConnHandler
}

// SetTrace wires the controller (and every current and future connection)
// to a shared trace log, emitting under the given node name.
func (ctrl *Controller) SetTrace(l *trace.Log, node string) {
	ctrl.tr = l
	ctrl.node = node
}

// CountChannels makes every connection this controller opens from now on
// count its PDUs per data channel (Conn.ChannelCounts). Fig. 12's
// per-channel panel is the one reader, so the counters are off by default.
func (ctrl *Controller) CountChannels() { ctrl.countChannels = true }

// SetEventByEvent makes this controller's coordinator endpoints run every
// connection event through the queue, including the idle ones fusedIdle would
// compute in one step. Output must be byte-identical either way; the switch
// exists so the differential test layer can prove it.
func (ctrl *Controller) SetEventByEvent(on bool) { ctrl.eventByEvent = on }

// NewController creates a controller bound to a radio and a local clock.
func NewController(s *sim.Sim, clk *sim.Clock, radio *phy.Radio, cfg ControllerConfig) *Controller {
	cfg.defaults()
	ctrl := &Controller{
		s:     s,
		clk:   clk,
		radio: radio,
		cfg:   cfg,
		sched: Scheduler{sim: s, mode: cfg.Arbitration},
		pool:  pool{capacity: cfg.PoolBytes},
	}
	radio.SetReceiver(ctrl.dispatchRx)
	radio.SetCarrier(ctrl.dispatchCarrier)
	return ctrl
}

// scanTarget is one pending connection target.
type scanTarget struct {
	peer   DevAddr
	params ConnParams
}

// formation is what a controller needs only while it advertises, scans or
// initiates: a formed node does neither, so its controller drops this
// (settle) and holds none of it — the scan targets' backing array included.
// Its steps are the handler types below; StopAdvertising, stopScanning,
// advPreempted and Shutdown cancel the timers it holds. An end of air stays
// queued after phy.Radio.AbortTX, so its handler checks that its formation
// is still the controller's (Shutdown drops it) and still in that step.
type formation struct {
	ctrl       *Controller
	advOn      bool
	connecting bool // a CONNECT_IND is in progress

	// Advertising.
	advParams AdvParams
	advAct    *Activity
	advWake   sim.Timer
	advNext   sim.Time
	advCh     phy.Channel // the advertising event's current channel
	advListen sim.Timer   // end of the listen window after an ADV_IND

	// Scanning / initiating.
	scanTargets []scanTarget
	scanCh      phy.Channel
	scanRotate  sim.Timer
	initAct     *Activity   // radio claim of an in-progress CONNECT_IND
	connInd     *AdvPDU     // the CONNECT_IND in progress, sent on connIndCh
	connIndCh   phy.Channel // after the IFS connIndWait holds
	connIndWait sim.Timer
}

// rxMode is the formation step the radio's indications go to.
type rxMode uint8

const (
	rxOff       rxMode = iota
	rxAdvListen        // the listen window after an ADV_IND (advRx, advCarrier)
	rxScan             // scanning for the targets' ADV_INDs (scanRx)
)

// The formation's steps.
type (
	advWakeup     formation
	advAirEnd     formation
	advListenEnd  formation
	connIndSend   formation
	connIndAirEnd formation
	scanRotation  formation
)

// formation returns the controller's formation state, allocating it when
// the controller starts advertising or scanning.
func (ctrl *Controller) formation() *formation {
	if ctrl.form == nil {
		ctrl.form = &formation{ctrl: ctrl}
	}
	return ctrl.form
}

// settle drops the formation state once the controller neither advertises
// nor finishes an advertising event (advAct), initiates (initAct), scans,
// nor holds a target or a receive mode of either. Every other field of a
// dropped formation reads as its zero value, which is what the controller
// would hold there anyway.
func (ctrl *Controller) settle() {
	f := ctrl.form
	if f != nil && f.advAct == nil && f.initAct == nil && !ctrl.scanOn && len(f.scanTargets) == 0 &&
		ctrl.rx == rxOff {
		ctrl.form = nil
	}
}

func (ctrl *Controller) addConn(c *Conn) { ctrl.conns = append(ctrl.conns, c) }

// dropConn removes c from the table, reporting whether it was present. The
// vacated tail slot is cleared, so a removed Conn is not kept reachable.
func (ctrl *Controller) dropConn(c *Conn) bool {
	i := slices.Index(ctrl.conns, c)
	if i < 0 {
		return false
	}
	ctrl.conns = slices.Delete(ctrl.conns, i, i+1)
	return true
}

func (f *formation) targetSet(peer DevAddr, p ConnParams) {
	for i := range f.scanTargets {
		if f.scanTargets[i].peer == peer {
			f.scanTargets[i].params = p
			return
		}
	}
	f.scanTargets = append(f.scanTargets, scanTarget{peer: peer, params: p})
}

func (f *formation) targetGet(peer DevAddr) (ConnParams, bool) {
	for i := range f.scanTargets {
		if f.scanTargets[i].peer == peer {
			return f.scanTargets[i].params, true
		}
	}
	return ConnParams{}, false
}

func (f *formation) targetDel(peer DevAddr) {
	for i := range f.scanTargets {
		if f.scanTargets[i].peer == peer {
			f.scanTargets = append(f.scanTargets[:i], f.scanTargets[i+1:]...)
			return
		}
	}
}

// Addr returns the controller's device address.
func (ctrl *Controller) Addr() DevAddr { return ctrl.cfg.Addr }

// Events returns a copy of the controller counters.
func (ctrl *Controller) Events() ControllerEvents { return ctrl.events }

// Scheduler exposes the radio scheduler (read-mostly: stats, arbitration).
func (ctrl *Controller) Scheduler() *Scheduler { return &ctrl.sched }

// Conns returns the active connections.
func (ctrl *Controller) Conns() []*Conn {
	return append([]*Conn(nil), ctrl.conns...)
}

// FindConn returns the connection to peer, or nil.
func (ctrl *Controller) FindConn(peer DevAddr) *Conn {
	for _, c := range ctrl.conns {
		if c.peer == peer {
			return c
		}
	}
	return nil
}

func (ctrl *Controller) sim() *sim.Sim { return ctrl.s }

func (ctrl *Controller) nextHandle() int {
	ctrl.handles++
	return ctrl.handles
}

// setRx makes advertising or scanning, in the given mode, the receiver of
// the radio's indications.
func (ctrl *Controller) setRx(mode rxMode) {
	ctrl.rxConn = nil
	ctrl.rx = mode
}

// setRxConn makes c the receiver of the radio's indications.
func (ctrl *Controller) setRxConn(c *Conn) {
	ctrl.clearRx()
	ctrl.rxConn = c
}

func (ctrl *Controller) clearRx() {
	ctrl.rxConn = nil
	ctrl.rx = rxOff
}

func (ctrl *Controller) dispatchRx(pkt phy.Packet, ch phy.Channel, ok bool) {
	switch {
	case ctrl.rxConn != nil:
		ctrl.rxConn.onRx(pkt, ch, ok)
	case ctrl.rx == rxAdvListen:
		ctrl.form.advRx(pkt, ok)
	case ctrl.rx == rxScan:
		ctrl.scanRx(pkt, ch, ok)
	}
}

func (ctrl *Controller) dispatchCarrier(ch phy.Channel, end sim.Time) {
	if c := ctrl.rxConn; c != nil {
		c.onCarrier(ch, end)
	} else if ctrl.rx == rxAdvListen {
		ctrl.form.advCarrier(end)
	}
}

func (ctrl *Controller) removeConn(c *Conn, reason LossReason) {
	if !ctrl.dropConn(c) {
		return
	}
	ctrl.sched.Unregister(&c.act)
	if reason == LossSupervision {
		ctrl.events.ConnsLost++
	} else {
		ctrl.events.ConnsClosed++
	}
	if ctrl.OnConn != nil {
		ctrl.OnConn.ConnDown(c, reason)
	}
}

// ---- Advertising ---------------------------------------------------------

// StartAdvertising begins periodic connectable advertising (ADV_IND sweeps
// over channels 37/38/39) until a CONNECT_IND arrives or the host stops it.
func (ctrl *Controller) StartAdvertising(p AdvParams) {
	if p.Interval <= 0 {
		p.Interval = 100 * sim.Millisecond
	}
	f := ctrl.formation()
	if f.advAct != nil {
		// Advertising, or stopped while an event still holds the radio:
		// the event in flight reschedules itself when it finishes.
		f.advOn = true
		f.advParams = p
		return
	}
	f.advOn = true
	f.advParams = p
	f.advAct = &Activity{anchor: &f.advNext, onPreempt: (*advPreempt)(ctrl)}
	ctrl.sched.Register(f.advAct)
	ctrl.scheduleAdvEvent(ctrl.clk.ToSim(sim.Duration(ctrl.s.Rand().Int63n(int64(p.Interval)))))
}

// StopAdvertising stops advertising after the current event, if any.
func (ctrl *Controller) StopAdvertising() {
	f := ctrl.form
	if f == nil || !f.advOn {
		return
	}
	f.advOn = false
	ctrl.s.Cancel(f.advWake)
	if f.advAct != nil && !ctrl.sched.Owns(f.advAct) {
		ctrl.sched.Unregister(f.advAct)
		f.advAct = nil
	}
	ctrl.settle()
}

func (ctrl *Controller) scheduleAdvEvent(delay sim.Duration) {
	// advDelay: 0..10ms pseudo-random per the specification.
	jitter := sim.Duration(ctrl.s.Rand().Int63n(int64(10 * sim.Millisecond)))
	d := delay + ctrl.clk.ToSim(jitter)
	f := ctrl.form
	f.advNext = ctrl.s.Now() + d
	f.advWake = ctrl.s.Schedule(f.advNext, (*advWakeup)(f))
}

// Fire performs one advertising event: ADV_IND on 37, 38, 39, listening
// after each PDU for a CONNECT_IND.
func (h *advWakeup) Fire() {
	ctrl := h.ctrl
	// An advertising event occupies the radio for three PDUs plus listen
	// gaps — bounded well under 10ms.
	maxEnd := ctrl.s.Now() + 10*sim.Millisecond
	if _, ok := ctrl.sched.Acquire(h.advAct, maxEnd); !ok {
		// Radio busy (e.g. a connection event): skip this round.
		ctrl.scheduleAdvEvent(ctrl.clk.ToSim(h.advParams.Interval))
		return
	}
	ctrl.events.AdvEvents++
	ctrl.advChannelStep(phy.AdvChannel37)
}

// advChannelStep transmits ADV_IND on ch and listens briefly for CONNECT_IND.
func (ctrl *Controller) advChannelStep(ch phy.Channel) {
	f := ctrl.form
	if !f.advOn {
		ctrl.finishAdvEvent(false)
		return
	}
	f.advCh = ch
	pdu := &AdvPDU{Type: PDUAdvInd, Adv: ctrl.cfg.Addr, DataLen: f.advParams.DataLen}
	air := pdu.AdvAirtime()
	ctrl.radio.Transmit(ch, phy.Packet{Bits: int(air / ByteTime * 8), Payload: pdu}, air, (*advAirEnd)(f))
}

// Fire ends an ADV_IND's airtime: listen one IFS + CONNECT_IND airtime for
// an initiator.
func (h *advAirEnd) Fire() {
	f := (*formation)(h)
	ctrl := f.ctrl
	if ctrl.form != f || !ctrl.sched.Owns(f.advAct) {
		return // controller reset or event pre-empted while on the air
	}
	ctrl.radio.StartListen(f.advCh)
	ctrl.setRx(rxAdvListen)
	f.advListen = ctrl.s.Schedule(ctrl.s.Now()+IFS+CarrierMargin, (*advListenEnd)(f))
}

// advRx takes a packet heard in the listen window: a CONNECT_IND for this
// advertiser ends the advertising event and opens the link.
func (f *formation) advRx(pkt phy.Packet, ok bool) {
	ctrl := f.ctrl
	ci, is := pkt.Payload.(*AdvPDU)
	if !ok || !is || ci.Type != PDUConnectInd || ci.Adv != ctrl.cfg.Addr {
		return
	}
	ctrl.s.Cancel(f.advListen)
	ctrl.radio.StopListen()
	ctrl.clearRx()
	// The advertising event ends here: hand the radio back before the
	// connection starts scheduling its events.
	ctrl.sched.Release(f.advAct)
	ctrl.acceptConnection(ci)
}

// advCarrier holds the listen window open until a packet that started in
// it ends.
func (f *formation) advCarrier(end sim.Time) {
	f.ctrl.s.Cancel(f.advListen)
	f.advListen = f.ctrl.s.Schedule(end+sim.Microsecond, (*advListenEnd)(f))
}

// advPreempt is the advertising activity's pre-emption event
// (advPreempted).
type advPreempt Controller

func (a *advPreempt) Fire() { (*Controller)(a).advPreempted() }

// advPreempted stops the in-progress advertising event when another
// activity takes the radio (alternate arbitration only).
func (ctrl *Controller) advPreempted() {
	switch ctrl.radio.State() {
	case phy.RadioRX:
		ctrl.radio.StopListen()
	case phy.RadioTX:
		ctrl.radio.AbortTX()
	}
	ctrl.clearRx()
	ctrl.s.Cancel(ctrl.form.advListen)
	ctrl.finishAdvEvent(true)
}

// Fire ends the listen window after an ADV_IND: the event moves on to the
// next channel, or ends after channel 39.
func (h *advListenEnd) Fire() {
	ctrl := h.ctrl
	ctrl.radio.StopListen()
	ctrl.clearRx()
	switch h.advCh {
	case phy.AdvChannel37:
		ctrl.advChannelStep(phy.AdvChannel38)
	case phy.AdvChannel38:
		ctrl.advChannelStep(phy.AdvChannel39)
	default:
		ctrl.finishAdvEvent(true)
	}
}

func (ctrl *Controller) finishAdvEvent(reschedule bool) {
	f := ctrl.form
	ctrl.sched.Release(f.advAct)
	if !f.advOn {
		ctrl.sched.Unregister(f.advAct)
		f.advAct = nil
		ctrl.settle()
		return
	}
	if reschedule {
		ctrl.scheduleAdvEvent(ctrl.clk.ToSim(f.advParams.Interval))
	}
}

// acceptConnection creates the subordinate endpoint from a CONNECT_IND.
func (ctrl *Controller) acceptConnection(ci *AdvPDU) {
	ctrl.StopAdvertising()
	anchor0 := ctrl.s.Now() + TransmitWindowDelay + ci.WinOffset
	c := newConn(ctrl, Subordinate, ci.Init, ci.Params, accessFromAddrs(ci.Init, ci.Adv), anchor0)
	ctrl.addConn(c)
	ctrl.events.ConnsOpened++
	if ctrl.OnConn != nil {
		ctrl.OnConn.ConnUp(c)
	}
}

// ---- Scanning / initiating -------------------------------------------------

// Connect registers peer as a connection target: the controller scans for
// its advertisements and initiates with the given parameters. Multiple
// targets may be pending; each is connected as its ADV_IND is heard.
func (ctrl *Controller) Connect(peer DevAddr, params ConnParams) error {
	if err := params.Validate(); err != nil {
		return err
	}
	params.CoordSCA = ctrl.cfg.SCA
	ctrl.formation().targetSet(peer, params)
	ctrl.ensureScanning()
	return nil
}

// SetScanParams configures the scan duty cycle (before or while scanning).
func (ctrl *Controller) SetScanParams(p ScanParams) {
	if p.Interval <= 0 {
		p.Interval = 100 * sim.Millisecond
	}
	if p.Window <= 0 || p.Window > p.Interval {
		p.Window = p.Interval
	}
	ctrl.scanParams = p
}

func (ctrl *Controller) ensureScanning() {
	f := ctrl.form
	if ctrl.scanOn || len(f.scanTargets) == 0 {
		return
	}
	if ctrl.scanParams.Interval == 0 {
		ctrl.SetScanParams(ScanParams{})
	}
	ctrl.scanOn = true
	f.scanCh = phy.AdvChannel37
	ctrl.sched.SetFiller((*scanFiller)(ctrl))
	f.scanRotate = ctrl.s.Schedule(ctrl.s.Now()+ctrl.clk.ToSim(ctrl.scanParams.Interval), (*scanRotation)(f))
}

func (ctrl *Controller) stopScanning() {
	if !ctrl.scanOn {
		return
	}
	ctrl.scanOn = false
	ctrl.sched.ClearFiller()
	ctrl.s.Cancel(ctrl.form.scanRotate)
	ctrl.settle()
}

// Fire moves scanning to the next advertising channel, once per scan
// interval.
func (h *scanRotation) Fire() {
	ctrl := h.ctrl
	switch h.scanCh {
	case phy.AdvChannel37:
		h.scanCh = phy.AdvChannel38
	case phy.AdvChannel38:
		h.scanCh = phy.AdvChannel39
	default:
		h.scanCh = phy.AdvChannel37
	}
	if ctrl.radio.State() == phy.RadioRX && !h.connecting {
		ctrl.radio.StartListen(h.scanCh)
	}
	h.scanRotate = ctrl.s.Schedule(ctrl.s.Now()+ctrl.clk.ToSim(ctrl.scanParams.Interval), h)
}

// scanFiller is the controller as its scheduler's Filler: scanning.
type scanFiller Controller

// Resume listens on the current advertising channel while the radio is idle.
func (h *scanFiller) Resume() {
	ctrl := (*Controller)(h)
	if !ctrl.scanOn || ctrl.form.connecting {
		return
	}
	if ctrl.radio.State() == phy.RadioTX {
		// A packet of a dying activity is still in flight; scanning
		// resumes at the next radio hand-back.
		return
	}
	ctrl.radio.StartListen(ctrl.form.scanCh)
	ctrl.setRx(rxScan)
}

// Pause stops listening before an activity takes the radio.
func (h *scanFiller) Pause() {
	ctrl := (*Controller)(h)
	if ctrl.form.connecting {
		return
	}
	if ctrl.radio.State() == phy.RadioRX {
		ctrl.radio.StopListen()
	}
	ctrl.clearRx()
}

// scanRx reacts to advertisements from pending targets by initiating.
func (ctrl *Controller) scanRx(pkt phy.Packet, ch phy.Channel, ok bool) {
	adv, is := pkt.Payload.(*AdvPDU)
	if !ok || !is || adv.Type != PDUAdvInd {
		return
	}
	ctrl.events.AdvReceived++
	f := ctrl.form
	params, want := f.targetGet(adv.Adv)
	if !want || f.connecting {
		return
	}
	// Acquire the radio as a real activity for the CONNECT_IND exchange.
	initAct := &Activity{}
	if _, granted := ctrl.sched.Acquire(initAct, ctrl.s.Now()+5*sim.Millisecond); !granted {
		return
	}
	f.initAct = initAct
	f.connecting = true
	// Window offset randomises where the first connection event lands —
	// from the subordinate's perspective the relative timing against its
	// other connections is arbitrary (§2.3 of the paper).
	units := int64(params.Interval / ConnIntervalUnit)
	winOffset := sim.Duration(ctrl.s.Rand().Int63n(units)) * ConnIntervalUnit
	ci := &AdvPDU{
		Type:      PDUConnectInd,
		Adv:       adv.Adv,
		Init:      ctrl.cfg.Addr,
		Params:    params,
		WinOffset: winOffset,
	}
	RandomHopIncrement(ctrl.s.Rand()) // the CONNECT_IND's LLData hop field
	f.connInd, f.connIndCh = ci, ch
	f.connIndWait = ctrl.s.Schedule(ctrl.s.Now()+IFS, (*connIndSend)(f))
}

// Fire sends the CONNECT_IND once the IFS after the ADV_IND is over.
func (h *connIndSend) Fire() {
	air := h.connInd.AdvAirtime()
	h.ctrl.radio.Transmit(h.connIndCh, phy.Packet{Bits: int(air / ByteTime * 8), Payload: h.connInd}, air, (*connIndAirEnd)(h))
}

// Fire ends the CONNECT_IND's airtime: the link is open on this side.
func (h *connIndAirEnd) Fire() {
	f := (*formation)(h)
	ctrl := f.ctrl
	if ctrl.form != f || f.initAct == nil {
		return // controller reset while the CONNECT_IND was on the air
	}
	ci := f.connInd
	ctrl.events.ConnectsTX++
	f.connecting = false
	ctrl.sched.Release(f.initAct)
	f.initAct, f.connInd = nil, nil
	f.targetDel(ci.Adv)
	if len(f.scanTargets) == 0 {
		ctrl.stopScanning()
	}
	anchor0 := ctrl.s.Now() + TransmitWindowDelay + ci.WinOffset
	c := newConn(ctrl, Coordinator, ci.Adv, ci.Params,
		accessFromAddrs(ctrl.cfg.Addr, ci.Adv), anchor0)
	ctrl.addConn(c)
	ctrl.events.ConnsOpened++
	if ctrl.OnConn != nil {
		ctrl.OnConn.ConnUp(c)
	}
}

// Shutdown force-kills every link-layer activity, as a node crash would:
// all connections terminate silently (peers discover the loss through their
// supervision timeouts), advertising and scanning stop, pending connection
// targets are forgotten, and the formation's pending steps are cancelled
// with it. The controller object itself stays usable — a rebooted host
// starts from a clean slate.
func (ctrl *Controller) Shutdown() {
	// Terminate connections in handle order so teardown side effects
	// consume the simulation RNG deterministically: the table is
	// append-only in handle order, so a snapshot already is sorted. A
	// connection that a teardown side effect removed meanwhile is closed,
	// and terminating it again does nothing.
	for _, c := range ctrl.Conns() {
		c.terminate(LossHostTerminated)
	}
	ctrl.StopAdvertising()
	if f := ctrl.form; f != nil {
		f.connecting = false
		f.scanTargets = f.scanTargets[:0]
	}
	ctrl.stopScanning()
	if f := ctrl.form; f != nil {
		ctrl.s.Cancel(f.advListen)
		ctrl.s.Cancel(f.connIndWait)
		if f.initAct != nil {
			ctrl.sched.Release(f.initAct)
			f.initAct = nil
		}
		if f.advAct != nil {
			ctrl.sched.Release(f.advAct)
			ctrl.sched.Unregister(f.advAct)
			f.advAct = nil
		}
	}
	ctrl.clearRx()
	ctrl.settle()
	switch ctrl.radio.State() {
	case phy.RadioRX:
		ctrl.radio.StopListen()
	case phy.RadioTX:
		ctrl.radio.AbortTX()
	}
}

// accessFromAddrs derives a deterministic 32-bit access address for a
// connection between two devices. Real controllers draw it randomly; a
// deterministic hash keeps runs reproducible while seeding CSA#2 uniquely
// per pair.
func accessFromAddrs(a, b DevAddr) uint32 {
	h := uint64(0x9E3779B97F4A7C15)
	h ^= uint64(a)
	h *= 0xBF58476D1CE4E5B9
	h ^= uint64(b)
	h *= 0x94D049BB133111EB
	return uint32(h ^ h>>32)
}

// String identifies the controller in diagnostics.
func (ctrl *Controller) String() string {
	return fmt.Sprintf("ctrl(%s conns=%d)", ctrl.cfg.Addr, len(ctrl.conns))
}

// PoolFree returns the bytes currently available in the LL buffer pool.
// Upper layers use it to avoid enqueueing a multi-fragment PDU that could
// only partially fit.
func (ctrl *Controller) PoolFree() int { return ctrl.pool.capacity - ctrl.pool.used }
