// Package dot15d4 implements the IEEE 802.15.4 stack the paper compares
// against (§5.3): the 250 kbps O-QPSK PHY timing, the unslotted CSMA/CA
// medium access with exponential backoff, acknowledged unicast with a
// bounded retry count, and a 6LoWPAN netif adapter so the identical IP/CoAP
// benchmark application runs over either link layer — the same trick the
// paper plays with its abstraction layers.
package dot15d4

import (
	"fmt"

	"blemesh/internal/phy"
	"blemesh/internal/pktbuf"
	"blemesh/internal/ring"
	"blemesh/internal/sim"
)

// PHY and MAC constants (2.4 GHz O-QPSK, unslotted CSMA/CA).
const (
	// SymbolTime is 16µs (62.5 ksymbol/s, 4 bits per symbol).
	SymbolTime = 16 * sim.Microsecond
	// ByteTime is the airtime of one byte (2 symbols).
	ByteTime = 2 * SymbolTime
	// PHYOverhead is preamble(4) + SFD(1) + length(1).
	PHYOverhead = 6
	// MaxFrameLen is aMaxPHYPacketSize.
	MaxFrameLen = 127
	// HeaderLen is our MAC header: FCF(2) + seq(1) + PAN(2) + dst(2) +
	// src(2); FooterLen is the FCS.
	HeaderLen = 9
	FooterLen = 2
	// MaxPayload is the MAC payload budget per frame. Keeping IP packets
	// under 128 bytes avoids fragmentation, as the paper notes (§4.3).
	MaxPayload = MaxFrameLen - HeaderLen - FooterLen

	// UnitBackoff is aUnitBackoffPeriod (20 symbols).
	UnitBackoff = 20 * SymbolTime
	// TurnaroundTime is aTurnaroundTime (12 symbols), the RX→TX gap
	// before an acknowledgement.
	TurnaroundTime = 12 * SymbolTime
	// AckFrameLen is an acknowledgement frame (FCF+seq+FCS).
	AckFrameLen = 5
	// AckWait is macAckWaitDuration (54 symbols).
	AckWait = 54 * SymbolTime

	// MinBE/MaxBE/MaxCSMABackoffs/MaxFrameRetries are the 802.15.4-2006
	// defaults the paper's platform (and RIOT) uses.
	MinBE           = 3
	MaxBE           = 5
	MaxCSMABackoffs = 4
	MaxFrameRetries = 3

	// queueCap bounds the transmit queue (frames).
	queueCap = 16

	// BroadcastAddr is the 16-bit broadcast address.
	BroadcastAddr uint64 = 0xFFFF

	// Channel is the 802.15.4 channel the whole PAN uses. It only has to
	// be a valid index on the shared medium.
	Channel phy.Channel = 17
)

// Airtime returns the on-air time of a frame with the given MAC length.
func Airtime(macLen int) sim.Duration {
	return sim.Duration(PHYOverhead+macLen) * ByteTime
}

// Frame is an 802.15.4 data or acknowledgement frame.
type Frame struct {
	Ack     bool // acknowledgement frame
	AR      bool // acknowledgement requested
	Seq     byte
	Src     uint64
	Dst     uint64
	Payload []byte
	// PID is the provenance ID of the IP packet this frame carries.
	// Simulation metadata only — never on the air, never in MACLen.
	PID uint64
}

// MACLen returns the frame's MAC-layer length in bytes.
func (f *Frame) MACLen() int {
	if f.Ack {
		return AckFrameLen
	}
	return HeaderLen + len(f.Payload) + FooterLen
}

// MACStats counts MAC events.
type MACStats struct {
	TXFrames   uint64 // data frames put on the air (incl. retries)
	TXUnique   uint64 // distinct data frames attempted
	Delivered  uint64 // unicast frames acknowledged (or broadcasts sent)
	Retries    uint64
	CCAFail    uint64 // channel access failures (backoff exhausted)
	NoAck      uint64 // frames dropped after MaxFrameRetries
	RXFrames   uint64
	RXAcks     uint64
	AcksSent   uint64
	RXCorrupt  uint64
	QueueDrops uint64
}

// Receiver takes a received data frame's payload along with the provenance
// ID of the IP packet it carries (0 when untagged); NetIf is one.
type Receiver interface {
	Receive(src uint64, payload []byte, pid uint64)
}

// MAC is one node's 802.15.4 medium-access controller. The receiver idles
// in RX permanently (the m3 nodes do idle listening; the paper's energy
// argument against 802.15.4 rests on exactly this).
type MAC struct {
	s      *sim.Sim
	radio  *phy.Radio
	medium *phy.Medium
	addr   uint64
	seq    byte

	// txq is the single transmit queue; one frame is in service at a
	// time, as in RIOT's netdev model. The MAC holds that frame's entry
	// in pending while busy.
	txq     ring.Ring[txEntry]
	busy    bool
	pending txEntry
	ackWait sim.Timer
	// ack is the acknowledgement waiting out its turnaround. One slot is
	// enough: overlapping frames collide, and the shortest data frame (17 B,
	// 544 µs) stays on the air longer than TurnaroundTime (192 µs), so no
	// second frame ends here before ack has gone out or been dropped.
	ack *Frame

	stats MACStats
	rx    Receiver
}

// The MAC's events. Each type is MAC itself under another name, so
// (*macCCA)(m) is the pointer m stored in a sim.Handler: arming it allocates
// nothing, and a frame schedules no closure.
type (
	macBackoff    MAC // the backoff elapsed: start CCA (8 symbols)
	macCCA        MAC // CCA done: transmit, or back off again
	macTxDone     MAC // the data frame left the air
	macAckTimeout MAC // AckWait passed with no ACK: retry or give up
	macTurnaround MAC // the turnaround elapsed: send ack
	macAckDone    MAC // the ACK left the air
)

// txEntry is one queued frame. buf is the pooled buffer backing
// frame.Payload; the MAC owns it, and its Put when the frame is acknowledged,
// sent as a broadcast or given up on is the frame's completion.
type txEntry struct {
	frame   *Frame
	retries int
	nb      int // CSMA backoff attempts for the current try
	be      int
	buf     *pktbuf.Buf
}

// NewMAC creates a MAC bound to a radio on the shared medium.
func NewMAC(s *sim.Sim, medium *phy.Medium, addr uint64) *MAC {
	m := &MAC{
		s:      s,
		radio:  medium.NewRadio(),
		medium: medium,
		addr:   addr,
	}
	m.radio.SetReceiver(m.receive)
	m.radio.StartListen(Channel)
	return m
}

// Addr returns the MAC's link-layer address.
func (m *MAC) Addr() uint64 { return m.addr }

// Radio returns the MAC's transceiver on the shared medium.
func (m *MAC) Radio() *phy.Radio { return m.radio }

// Stats returns a copy of the MAC counters.
func (m *MAC) Stats() MACStats { return m.stats }

// SetReceiver installs the payload upcall.
func (m *MAC) SetReceiver(r Receiver) { m.rx = r }

// SendBuf queues the payload in b toward dst (BroadcastAddr for broadcast).
// The frame transmits straight out of b, and the MAC puts b when the frame
// completes, delivered or not (MACStats counts which). Ownership of b passes
// to the MAC in every case: on a false return (queue full) the buffer has
// already been released.
func (m *MAC) SendBuf(dst uint64, b *pktbuf.Buf, pid uint64) bool {
	payload := b.Bytes()
	if len(payload) > MaxPayload {
		panic(fmt.Sprintf("dot15d4: payload %d exceeds frame budget %d", len(payload), MaxPayload))
	}
	if m.txq.Len() >= queueCap {
		m.stats.QueueDrops++
		b.Put()
		return false
	}
	m.seq++
	f := &Frame{AR: dst != BroadcastAddr, Seq: m.seq, Src: m.addr, Dst: dst, Payload: payload, PID: pid}
	m.txq.Push(txEntry{frame: f, buf: b})
	m.stats.TXUnique++
	m.kick()
	return true
}

// kick starts servicing the queue head if idle.
func (m *MAC) kick() {
	if m.busy || m.txq.Len() == 0 {
		return
	}
	m.busy = true
	m.pending = m.txq.Pop()
	m.pending.be = MinBE
	m.backoff()
}

// backoff waits a random number of unit backoff periods, then does CCA.
func (m *MAC) backoff() {
	units := m.s.Rand().Intn(1 << m.pending.be)
	m.s.Schedule(m.s.Now()+sim.Duration(units)*UnitBackoff, (*macBackoff)(m))
}

func (w *macBackoff) Fire() {
	m := (*MAC)(w)
	m.s.Schedule(m.s.Now()+8*SymbolTime, (*macCCA)(m))
}

func (w *macCCA) Fire() {
	m := (*MAC)(w)
	if m.medium.Busy(Channel) {
		e := &m.pending
		e.nb++
		e.be = min(e.be+1, MaxBE)
		if e.nb > MaxCSMABackoffs {
			m.stats.CCAFail++
			m.finish()
			return
		}
		m.backoff()
		return
	}
	m.transmit()
}

// transmit puts the frame on the air. The frame stays in service until its
// ack, its last retry or (broadcast) its end of air, so the events that
// follow act on m.pending.
func (m *MAC) transmit() {
	e := &m.pending
	f := e.frame
	air := Airtime(f.MACLen())
	m.stats.TXFrames++
	if e.retries > 0 {
		m.stats.Retries++
	}
	m.radio.Transmit(Channel, phy.Packet{Bits: f.MACLen() * 8, Payload: f}, air, (*macTxDone)(m))
}

func (w *macTxDone) Fire() {
	m := (*MAC)(w)
	m.radio.StartListen(Channel)
	if !m.pending.frame.AR {
		m.stats.Delivered++
		m.finish()
		return
	}
	m.ackWait = m.s.Schedule(m.s.Now()+AckWait, (*macAckTimeout)(m))
}

func (w *macAckTimeout) Fire() {
	m := (*MAC)(w)
	m.ackWait = sim.Timer{}
	e := &m.pending
	e.retries++
	if e.retries > MaxFrameRetries {
		m.stats.NoAck++
		m.finish()
		return
	}
	e.nb = 0
	e.be = MinBE
	m.backoff()
}

// finish completes the in-service frame and services the next. The pooled
// payload buffer is released here: receivers have consumed the frame
// synchronously at PHY delivery time, which always precedes the sender's
// completion.
func (m *MAC) finish() {
	m.pending.buf.Put()
	m.pending = txEntry{}
	m.busy = false
	m.kick()
}

func (w *macTurnaround) Fire() {
	m := (*MAC)(w)
	ack := m.ack
	m.ack = nil
	if m.radio.State() == phy.RadioTX {
		return // own transmission started; ack lost
	}
	m.radio.Transmit(Channel, phy.Packet{Bits: AckFrameLen * 8, Payload: ack}, Airtime(AckFrameLen), (*macAckDone)(m))
	m.stats.AcksSent++
}

func (w *macAckDone) Fire() { (*MAC)(w).radio.StartListen(Channel) }

// receive handles end-of-packet indications.
func (m *MAC) receive(pkt phy.Packet, _ phy.Channel, ok bool) {
	f, is := pkt.Payload.(*Frame)
	if !is {
		return
	}
	if !ok {
		m.stats.RXCorrupt++
		return
	}
	if f.Ack {
		if m.busy && m.ackWait.Scheduled() && f.Seq == m.pending.frame.Seq {
			m.s.Cancel(m.ackWait)
			m.ackWait = sim.Timer{}
			m.stats.RXAcks++
			m.stats.Delivered++
			m.finish()
		}
		return
	}
	if f.Dst != m.addr && f.Dst != BroadcastAddr {
		return
	}
	m.stats.RXFrames++
	if f.AR && f.Dst == m.addr {
		// Acknowledge after the turnaround time. The radio may be
		// mid-backoff for its own frame; the ACK takes priority and the
		// transceiver handles it in hardware.
		m.ack = &Frame{Ack: true, Seq: f.Seq, Src: m.addr, Dst: f.Src}
		m.s.Schedule(m.s.Now()+TurnaroundTime, (*macTurnaround)(m))
	}
	if m.rx != nil {
		// The payload is handed up as a view: receivers copy what they
		// keep (the netif copies into a pooled buffer) before the sender
		// reuses the backing storage, which cannot happen within this
		// event — PHY delivery runs before the sender's TX completion.
		m.rx.Receive(f.Src, f.Payload, f.PID)
	}
}
