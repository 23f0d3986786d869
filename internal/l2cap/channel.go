package l2cap

import (
	"fmt"
	"slices"

	"blemesh/internal/ble"
	"blemesh/internal/pktbuf"
	"blemesh/internal/ring"
	"blemesh/internal/sim"
)

// Every channel's receive configuration.
const (
	// mtu is the largest SDU a channel receives: RFC 7668 requires at
	// least 1280 bytes for IPv6.
	mtu = 1280
	// mps is the largest PDU payload a channel accepts per K-frame. It
	// fits one LL data PDU with the 4-byte basic header (and the 2-byte
	// SDU header on first frames) under the 251-byte DLE limit.
	mps = 245
	// initialCredits is the number of K-frames the peer may send before
	// waiting for replenishment.
	initialCredits = 10
)

// ChannelStats counts per-channel occurrences.
type ChannelStats struct {
	SDUsSent     uint64
	SDUsReceived uint64
	FramesSent   uint64
	FramesRecv   uint64
	CreditsSent  uint64 // credit grants signalled to the peer
	Stalls       uint64 // drain attempts blocked on credits or LL pool
	Violations   uint64 // peer exceeded granted credits
}

// Channel is one endpoint of an LE credit-based connection-oriented channel.
type Channel struct {
	ep   *Endpoint
	scid uint16 // our channel id (peer sends to this)
	dcid uint16 // peer's channel id (we send to this)
	psm  uint16

	// TX view: the peer's receive configuration.
	peerMTU   int
	peerMPS   int
	txCredits int

	// RX view: our outstanding grant.
	rxCredits int // frames the peer may still send
	consumed  int // frames received since last grant

	open   bool
	closed bool

	// Segmentation queue: K-frames ready to go; the final frame of an SDU
	// carries its pktbuf charge.
	txq ring.Ring[txFrame]

	// Reassembly state: the SDU accumulates in a pooled buffer that is
	// handed to OnEvents.ReceiveSDU on completion.
	sduBuf *pktbuf.Buf
	sduLen int
	sduPID uint64 // provenance ID of the SDU being reassembled

	stats ChannelStats

	// OnEvents takes the channel's upcalls; with none, received SDUs are
	// dropped.
	OnEvents ChannelEvents
}

// ChannelEvents takes a channel's upcalls. The layer above implements it
// with a type it already allocates per link, so a channel holds no closure.
type ChannelEvents interface {
	// ReceiveSDU takes a complete received SDU (an IPv6 packet, for
	// IPSP) in a pooled buffer with the provenance ID carried by its
	// first K-frame (0 = untagged). Ownership of the buffer passes to it.
	ReceiveSDU(sdu *pktbuf.Buf, pid uint64)
	// Unblocked fires when the channel goes from blocked to accepting
	// more SDUs.
	Unblocked()
	// Closed fires when the channel is torn down (peer disconnect request
	// or the BLE link dying).
	Closed()
}

type txFrame struct {
	buf *pktbuf.Buf
	pid uint64
}

type heldPDU struct {
	cid uint16
	buf *pktbuf.Buf
}

// SCID returns the local channel id.
func (ch *Channel) SCID() uint16 { return ch.scid }

// PSM returns the protocol/service multiplexer the channel was opened for.
func (ch *Channel) PSM() uint16 { return ch.psm }

// Open reports whether the channel is established and usable.
func (ch *Channel) Open() bool { return ch.open && !ch.closed }

// Stats returns a copy of the channel counters.
func (ch *Channel) Stats() ChannelStats { return ch.stats }

// PeerMTU returns the largest SDU the peer accepts.
func (ch *Channel) PeerMTU() int { return ch.peerMTU }

// Writable reports whether SendSDUBuf will accept another SDU right now: the
// previous queue must have drained and the peer must have granted credit.
// This is the backpressure signal the network layer's interface queue obeys.
func (ch *Channel) Writable() bool {
	return ch.Open() && ch.txq.Len() == 0 && ch.txCredits > 0
}

// SendSDUBuf segments an SDU into K-frames tagged with the packet's
// provenance ID (0 = untagged) and queues them for transmission. The
// 2-byte SDU header is prepended in place; each frame of a multi-frame SDU
// is copied into a buffer of its own, and the final one takes over the SDU
// buffer's pktbuf charge, so the Put of the final frame, once the peer
// acknowledges it or the link dies, is the SDU's completion. It returns an
// error when the channel is not open or the SDU exceeds the peer's MTU; it
// accepts data even when currently blocked (the frames wait for credits),
// so callers should gate on Writable. Ownership of data passes to the
// channel in every case.
//
// onDone must be nil. The parameter outlives the completion callback it
// once was because the benchmark module's L2CAP probe still passes nil; a
// non-nil value is an error, never called.
func (ch *Channel) SendSDUBuf(data *pktbuf.Buf, pid uint64, onDone func()) error {
	if onDone != nil {
		data.Put()
		return fmt.Errorf("l2cap: SendSDUBuf takes no completion callback: the final frame's Put is the SDU's completion")
	}
	if !ch.Open() {
		data.Put()
		return fmt.Errorf("l2cap: channel %d not open", ch.scid)
	}
	if data.Len() > ch.peerMTU {
		n := data.Len()
		data.Put()
		return fmt.Errorf("l2cap: SDU %d exceeds peer MTU %d", n, ch.peerMTU)
	}
	sduLen := data.Len()
	hd := data.Prepend(sduHeaderLen)
	hd[0] = byte(sduLen)
	hd[1] = byte(sduLen >> 8)
	mps := ch.peerMPS
	if data.Len() <= mps {
		ch.txq.Push(txFrame{buf: data, pid: pid})
	} else {
		total := data.Len()
		for lo := 0; lo < total; lo += mps {
			hi := min(lo+mps, total)
			tf := txFrame{buf: pktbuf.FromBytes(data.Bytes()[lo:hi]), pid: pid}
			if hi == total {
				data.MoveCharge(tf.buf)
			}
			ch.txq.Push(tf)
		}
		data.Put()
	}
	ch.stats.SDUsSent++
	ch.drain()
	return nil
}

// drain pushes queued frames while credits and LL buffers allow.
func (ch *Channel) drain() {
	for ch.txq.Len() > 0 {
		if ch.txCredits <= 0 {
			ch.stats.Stalls++
			return
		}
		f := ch.txq.Front()
		if !ch.ep.sendPDU(ch.dcid, f.buf, f.pid) {
			// LL pool exhausted: the frame stays queued untouched;
			// retry when the link drains.
			ch.stats.Stalls++
			ch.ep.scheduleKick()
			return
		}
		ch.txCredits--
		ch.stats.FramesSent++
		ch.txq.Pop()
	}
}

// notifyWritable fires OnEvents.Unblocked on a blocked→writable transition.
// Callers capture the blocked state BEFORE the action that may unblock the
// channel.
func (ch *Channel) notifyWritable(wasBlocked bool) {
	if wasBlocked && ch.Writable() && ch.OnEvents != nil {
		ch.OnEvents.Unblocked()
	}
}

// receiveFrame handles one K-frame from the peer; pid is the provenance ID
// the frame's PDU arrived under.
func (ch *Channel) receiveFrame(payload []byte, pid uint64) {
	if ch.rxCredits <= 0 {
		// Peer sent beyond its grant: a real stack would disconnect
		// the channel; we count and drop.
		ch.stats.Violations++
		return
	}
	ch.rxCredits--
	ch.consumed++
	ch.stats.FramesRecv++

	if ch.sduBuf == nil {
		if len(payload) < sduHeaderLen {
			ch.stats.Violations++
			return
		}
		ch.sduLen = int(payload[0]) | int(payload[1])<<8
		if ch.sduLen > mtu {
			ch.stats.Violations++
			return
		}
		ch.sduBuf = pktbuf.New(pktbuf.DefaultHeadroom, ch.sduLen)
		ch.sduPID = pid
		payload = payload[sduHeaderLen:]
	}
	ch.sduBuf.AppendBytes(payload)
	if ch.sduBuf.Len() >= ch.sduLen {
		sdu := ch.sduBuf
		sdu.Trim(ch.sduLen)
		pid := ch.sduPID
		ch.sduBuf = nil
		ch.sduPID = 0
		ch.stats.SDUsReceived++
		if ch.OnEvents != nil {
			ch.OnEvents.ReceiveSDU(sdu, pid)
		} else {
			sdu.Put()
		}
	}
	ch.maybeReplenish()
}

// maybeReplenish grants the peer fresh credits once half the initial grant
// has been consumed, keeping the pipe from stalling in steady state.
func (ch *Channel) maybeReplenish() {
	if ch.consumed < (initialCredits+1)/2 {
		return
	}
	grant := ch.consumed
	ch.consumed = 0
	ch.rxCredits += grant
	ch.stats.CreditsSent++
	ch.ep.sendSignal(signal{code: codeFlowCredit, id: ch.ep.nextSigID(), cid: ch.scid, credits: uint16(grant)})
}

// creditsGranted applies a peer's flow-control credit signal.
func (ch *Channel) creditsGranted(n int) {
	wasBlocked := !ch.Writable()
	ch.txCredits += n
	ch.drain()
	ch.notifyWritable(wasBlocked)
}

func (ch *Channel) teardown() {
	if ch.closed {
		return
	}
	ch.closed = true
	ch.open = false
	// Complete queued frames: their Put releases the pktbuf charge the
	// final frame of each SDU carries. Frames already handed to the LL are
	// completed by the connection's own teardown.
	var lastPID uint64
	for i := 0; i < ch.txq.Len(); i++ {
		f := ch.txq.At(i)
		if f.pid != lastPID { // frames of one SDU share a pid: emit once
			ch.ep.conn.TraceDrop(f.pid)
			lastPID = f.pid
		}
		f.buf.Put()
	}
	ch.txq.Reset()
	if ch.sduBuf != nil {
		ch.sduBuf.Put()
		ch.sduBuf = nil
	}
	ch.ep.channels.del(ch.scid)
	if ch.OnEvents != nil {
		ch.OnEvents.Closed()
	}
}

// Endpoint multiplexes L2CAP channels over one BLE connection.
type Endpoint struct {
	s    *sim.Sim
	conn *ble.Conn

	// The small fields share one word, which keeps an endpoint in its size
	// class; rxActive and fixedCID belong to the groups below.
	nextCID   uint16
	fixedCID  uint16
	sigID     byte
	rxActive  bool
	kickArmed bool

	channels table[uint16, *Channel] // by local scid, ascending
	pending  table[byte, *Channel]   // signaling id → channel being dialled

	// LL-level PDU reassembly (a PDU may span several LL fragments). The
	// buffer's capacity is reused across PDUs; rxActive marks a PDU in
	// progress. Routed payload views alias rxBuf, which is safe because
	// every receiver consumes (or copies) them synchronously and the
	// buffer is only rewritten by a later LL fragment event.
	rxBuf []byte
	rxPID uint64 // provenance ID of the PDU being reassembled

	// The one fixed channel besides signaling, and its handler (ATT rides
	// the fixed CID 0x0004; HandleFixed).
	fixed FixedHandler

	// held is what the full LL pool refused of the PDUs nobody waits on
	// (signaling, the fixed channel), in send order; the kick sends it first.
	held []heldPDU

	// OnChannelOpen decides the peer's channel requests and takes each
	// channel that opens; with none, every request is refused.
	OnChannelOpen Server
}

// Server decides the channel requests a peer sends to an endpoint and takes
// every channel that opens on it.
type Server interface {
	// Accept reports whether to open a channel to psm.
	Accept(psm uint16) bool
	// ChannelOpen takes a channel once it is open: one Accept let in, or
	// one a Dial of this endpoint opened.
	ChannelOpen(ch *Channel)
}

// FixedHandler takes the PDUs of a fixed channel. The payload aliases the
// endpoint's reassembly buffer and is valid only during the call.
type FixedHandler interface {
	FixedPDU(payload []byte)
}

// llData is the endpoint as its connection's DataHandler.
type llData Endpoint

func (e *llData) LLData(llid ble.LLID, payload []byte, pid uint64) {
	(*Endpoint)(e).onLL(llid, payload, pid)
}

// table is an association list in insertion order, nil until used. An
// endpoint's tables hold one entry each (IPSP opens one channel per link), so
// a lookup is one compare, and iteration order is the same in every run.
type table[K comparable, V any] []tableEntry[K, V]

type tableEntry[K comparable, V any] struct {
	k K
	v V
}

func (t table[K, V]) index(k K) int {
	for i := range t {
		if t[i].k == k {
			return i
		}
	}
	return -1
}

func (t table[K, V]) get(k K) (v V, ok bool) {
	if i := t.index(k); i >= 0 {
		return t[i].v, true
	}
	return v, false
}

// put sets k's value, appending k when it is new.
func (t *table[K, V]) put(k K, v V) {
	if i := t.index(k); i >= 0 {
		(*t)[i].v = v
		return
	}
	*t = append(*t, tableEntry[K, V]{k, v})
}

// del removes k, if present, keeping the order of the rest; an emptied table
// lets go of its storage.
func (t *table[K, V]) del(k K) {
	if i := t.index(k); i >= 0 {
		if *t = slices.Delete(*t, i, i+1); len(*t) == 0 {
			*t = nil
		}
	}
}

// NewEndpoint attaches an L2CAP endpoint to an established BLE connection.
func NewEndpoint(s *sim.Sim, conn *ble.Conn) *Endpoint {
	ep := &Endpoint{s: s, conn: conn, nextCID: FirstDynamicCID}
	conn.OnData = (*llData)(ep)
	return ep
}

// Conn returns the underlying BLE connection.
func (ep *Endpoint) Conn() *ble.Conn { return ep.conn }

// Channels returns the endpoint's channels, open or still being dialled.
func (ep *Endpoint) Channels() []*Channel {
	out := make([]*Channel, 0, len(ep.channels))
	for _, e := range ep.channels {
		out = append(out, e.v)
	}
	return out
}

// Dial asks the peer's psm server for a channel. Once the peer accepts, the
// open channel goes to OnChannelOpen; a refused one is dropped.
func (ep *Endpoint) Dial(psm uint16) {
	ch := &Channel{ep: ep, scid: ep.allocCID(), psm: psm, rxCredits: initialCredits}
	ep.channels.put(ch.scid, ch)
	id := ep.nextSigID()
	ep.pending.put(id, ch)
	ep.sendSignal(signal{
		code: codeConnReq, id: id, psm: psm,
		scid: ch.scid, mtu: mtu, mps: mps, credits: initialCredits,
	})
}

// Teardown closes all channels without signaling — used when the BLE link
// itself died.
func (ep *Endpoint) Teardown() {
	for _, ch := range ep.Channels() {
		ch.teardown()
	}
}

func (ep *Endpoint) allocCID() uint16 {
	cid := ep.nextCID
	ep.nextCID++
	return cid
}

func (ep *Endpoint) nextSigID() byte {
	ep.sigID++
	if ep.sigID == 0 {
		ep.sigID = 1
	}
	return ep.sigID
}

// scheduleKick arms a retry of the held PDUs and the channel drains once the
// LL pool has had a chance to free (space returns as the peer acknowledges).
func (ep *Endpoint) scheduleKick() {
	if ep.kickArmed {
		return
	}
	ep.kickArmed = true
	ep.s.Schedule(ep.s.Now()+2*sim.Millisecond, (*epKick)(ep))
}

// epKick is the endpoint as its drain retry's sim.Handler.
type epKick Endpoint

func (k *epKick) Fire() {
	ep := (*Endpoint)(k)
	ep.kickArmed = false
	for len(ep.held) > 0 {
		h := ep.held[0]
		if !ep.sendPDU(h.cid, h.buf, 0) {
			if ep.conn.Usable() {
				ep.scheduleKick()
				return
			}
			h.buf.Put() // a dead link: nobody is left to send it to
		}
		ep.held = slices.Delete(ep.held, 0, 1)
	}
	for _, e := range ep.channels {
		ch := e.v
		wasBlocked := !ch.Writable()
		ch.drain()
		ch.notifyWritable(wasBlocked)
	}
}

// sendPDU prepends the basic header to an L2CAP PDU in place and hands it
// to the LL as one or more data fragments, tagging each with the carried
// packet's provenance ID. It returns false — leaving b untouched so the
// caller can retry with the same buffer — when the LL pool cannot hold the
// whole PDU; on success, ownership of b passes to the LL.
func (ep *Endpoint) sendPDU(cid uint16, b *pktbuf.Buf, pid uint64) bool {
	if !ep.conn.Usable() {
		return false
	}
	total := b.Len() + basicHeaderLen
	if ep.conn.PoolFree() < total {
		return false
	}
	prependBasicHeader(b, cid)
	if b.Len() <= ble.MaxDataLen {
		// Single LL fragment: the common IPSP case, zero-copy.
		if !ep.conn.SendBuf(ble.LLIDDataStart, b, pid) {
			// Cannot happen after the PoolFree check in a
			// single-threaded simulation, but fail loudly if the
			// invariant breaks.
			panic("l2cap: LL rejected fragment after pool check")
		}
		return true
	}
	llid := ble.LLIDDataStart
	full := b.Len()
	for lo := 0; lo < full; lo += ble.MaxDataLen {
		hi := min(lo+ble.MaxDataLen, full)
		frag := pktbuf.FromBytes(b.Bytes()[lo:hi])
		if hi == full {
			b.MoveCharge(frag)
		}
		if !ep.conn.SendBuf(llid, frag, pid) {
			panic("l2cap: LL rejected fragment after pool check")
		}
		llid = ble.LLIDDataCont
	}
	b.Put()
	return true
}

// sendHeld sends a PDU nobody waits on (signaling, the fixed channel). While
// the LL pool is full, it and every later one wait in held for the kick.
func (ep *Endpoint) sendHeld(cid uint16, b *pktbuf.Buf) {
	if len(ep.held) > 0 || !ep.sendPDU(cid, b, 0) {
		ep.held = append(ep.held, heldPDU{cid, b})
		ep.scheduleKick()
	}
}

// sendSignal sends a signaling command: exempt from channel credits, but it
// occupies the LL pool. A dead link sends nothing: nobody is left to signal.
func (ep *Endpoint) sendSignal(s signal) {
	if ep.conn != nil && ep.conn.Usable() {
		ep.sendHeld(CIDSignaling, encodeSignal(s))
	}
}

// onLL reassembles LL fragments into L2CAP PDUs and routes them. pid is
// the provenance ID the fragment arrived under (the PDU's ID is the one of
// its start fragment).
func (ep *Endpoint) onLL(llid ble.LLID, payload []byte, pid uint64) {
	switch llid {
	case ble.LLIDDataStart:
		// A start while a PDU was incomplete abandons that PDU.
		ep.rxBuf = append(ep.rxBuf[:0], payload...)
		ep.rxActive = true
		ep.rxPID = pid
	case ble.LLIDDataCont:
		if !ep.rxActive {
			return // continuation without a start: drop
		}
		ep.rxBuf = append(ep.rxBuf, payload...)
	default:
		return
	}
	if len(ep.rxBuf) < basicHeaderLen || len(ep.rxBuf) < pduLength(ep.rxBuf) {
		return // PDU incomplete, await continuation
	}
	p, err := decodePDU(ep.rxBuf)
	pduPID := ep.rxPID
	ep.rxActive = false
	ep.rxPID = 0
	if err != nil {
		return
	}
	if p.cid == CIDSignaling {
		if s, err := decodeSignal(p.payload); err == nil {
			ep.onSignal(s)
		}
		return
	}
	if ep.fixed != nil && p.cid == ep.fixedCID {
		ep.fixed.FixedPDU(p.payload)
		return
	}
	// A PDU for an unknown or closed channel is dropped.
	if ch, ok := ep.channels.get(p.cid); ok && ch.Open() {
		ch.receiveFrame(p.payload, pduPID)
	}
}

func (ep *Endpoint) onSignal(s signal) {
	switch s.code {
	case codeConnReq:
		if ep.OnChannelOpen == nil || !ep.OnChannelOpen.Accept(s.psm) {
			ep.sendSignal(signal{code: codeConnRsp, id: s.id, result: resultRefusedPSM})
			return
		}
		ch := &Channel{
			ep: ep, scid: ep.allocCID(), dcid: s.scid, psm: s.psm,
			peerMTU: int(s.mtu), peerMPS: int(s.mps), txCredits: int(s.credits),
			rxCredits: initialCredits, open: true,
		}
		ep.channels.put(ch.scid, ch)
		ep.sendSignal(signal{
			code: codeConnRsp, id: s.id, dcid: ch.scid,
			mtu: mtu, mps: mps, credits: initialCredits, result: resultSuccess,
		})
		ep.OnChannelOpen.ChannelOpen(ch)
	case codeConnRsp:
		ch, ok := ep.pending.get(s.id)
		if !ok {
			return
		}
		ep.pending.del(s.id)
		if s.result != resultSuccess {
			ep.channels.del(ch.scid)
			return
		}
		ch.dcid = s.dcid
		ch.peerMTU = int(s.mtu)
		ch.peerMPS = int(s.mps)
		ch.txCredits = int(s.credits)
		ch.open = true
		if ep.OnChannelOpen != nil {
			ep.OnChannelOpen.ChannelOpen(ch)
		}
		ch.drain()
	case codeFlowCredit:
		// The cid in the signal is the PEER's channel id; find ours.
		for _, e := range ep.channels {
			if e.v.dcid == s.cid {
				e.v.creditsGranted(int(s.credits))
				break
			}
		}
	}
}

// QueueLen returns the number of K-frames waiting for transmission.
func (ch *Channel) QueueLen() int { return ch.txq.Len() }

// CIDATT is the fixed channel of the Attribute Protocol.
const CIDATT uint16 = 0x0004

// HandleFixed installs the handler for a fixed L2CAP channel (ATT, the one
// this stack carries besides signaling). Fixed channels have no flow control;
// PDUs are delivered as they arrive. An endpoint holds one such handler; a
// second call for the same cid replaces it.
func (ep *Endpoint) HandleFixed(cid uint16, h FixedHandler) {
	if ep.fixed != nil && cid != ep.fixedCID {
		panic("l2cap: an endpoint serves one fixed channel besides signaling")
	}
	ep.fixedCID, ep.fixed = cid, h
}

// SendFixed transmits a PDU on a fixed channel, held while the LL pool is full.
func (ep *Endpoint) SendFixed(cid uint16, payload []byte) {
	if ep.conn != nil && ep.conn.Usable() {
		ep.sendHeld(cid, pktbuf.FromBytes(payload))
	}
}
