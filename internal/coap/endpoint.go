package coap

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync"

	"blemesh/internal/ip6"
	"blemesh/internal/sim"
	"blemesh/internal/trace"
)

// Transmission parameters (RFC 7252 §4.8).
const (
	// AckTimeout is the initial confirmable retransmission timeout.
	AckTimeout = 2 * sim.Second
	// AckRandomFactorNum/Den express the 1.5 randomisation factor.
	AckRandomFactorNum = 3
	AckRandomFactorDen = 2
	// MaxRetransmit bounds confirmable retransmissions.
	MaxRetransmit = 4
	// ResponseTimeout is how long a pending exchange (CON or NON) waits
	// for its response before the endpoint reports it lost. The paper's
	// RTT CDFs extend to tens of seconds under load, so this is generous.
	ResponseTimeout = 120 * sim.Second
)

// ErrGaveUp reports a confirmable exchange abandoned after MAX_RETRANSMIT
// retransmissions (RFC 7252 §4.2). Experiments count abandoned requests
// separately from responses that were merely lost in transit.
var ErrGaveUp = errors.New("coap: gave up after MAX_RETRANSMIT retransmissions")

// ErrTimeout reports an exchange whose response never arrived within
// ResponseTimeout (the NON path, or a CON whose retransmissions were
// still pending when the overall deadline hit).
var ErrTimeout = errors.New("coap: response timeout")

// Stats counts endpoint-level events; the experiment harness derives the
// CoAP PDR from RequestsSent and ResponsesMatched.
type Stats struct {
	RequestsSent     uint64 `metric:"requests_sent"`
	Retransmissions  uint64 `metric:"retransmissions"`
	ResponsesMatched uint64 `metric:"responses_matched"`
	Timeouts         uint64 `metric:"timeouts"` // exchanges expired waiting for a response
	GiveUps          uint64 `metric:"give_ups"` // CON exchanges abandoned at MAX_RETRANSMIT
	RequestsServed   uint64 `metric:"requests_served"`
	Duplicates       uint64
	SendErrors       uint64
	Unmatched        uint64
}

// Handler produces a response for an incoming request. Returning nil means
// no response (the request is silently absorbed). req aliases the received
// packet and is valid only during the call. The endpoint stamps a copy of
// the returned message with the token, type and MID, so a handler may
// return one shared message, which it must not modify afterwards.
type Handler func(from ip6.Addr, req *Message) *Message

// ResponseFunc receives the matched response for a request. On failure resp
// is nil and err distinguishes the outcome: ErrGaveUp when a confirmable
// request exhausted MAX_RETRANSMIT, ErrTimeout when the response never
// arrived within ResponseTimeout. resp aliases the received packet and is
// valid only during the call.
type ResponseFunc func(resp *Message, rtt sim.Duration, err error)

// pendingReq is one outstanding request exchange, taken from reqPool by
// Request and returned when the exchange ends. Only a confirmable request
// keeps its message, which its retransmissions resend; a lost NON request
// would otherwise hold payload, options and token for the whole
// ResponseTimeout. The token a response is matched by is kept inline.
type pendingReq struct {
	ep       *Endpoint
	dst      ip6.Addr
	msg      *Message // CON only
	cb       ResponseFunc
	sentAt   sim.Time
	pid      uint64       // provenance ID of the latest (re)transmission
	rto      sim.Duration // the timeout retryEvt was armed with
	retries  int
	tok      [2]byte
	retryEvt sim.Timer
	expire   sim.Timer
	// sending is set while the request is being handed to the stack, and
	// ended when an answer looped back before the send returned: the
	// sender then finishes the exchange instead of arming its timers.
	sending, ended bool
}

// reqPool recycles pendingReq, rxPool the messages received packets are
// decoded into: in steady state an exchange allocates neither.
var (
	reqPool = sync.Pool{New: func() any { return new(pendingReq) }}
	rxPool  = sync.Pool{New: func() any { return new(Message) }}
)

// The exchange's two timers. Each type is pendingReq under another name, so
// arming one stores the exchange itself in the sim.Handler: no closure.
type (
	reqExpire pendingReq // ResponseTimeout passed without a response
	reqRetry  pendingReq // a confirmable request's retransmission is due
)

func (h *reqExpire) Fire() {
	pr := (*pendingReq)(h)
	pr.ep.fail(pr, ErrTimeout)
}

func (h *reqRetry) Fire() {
	pr := (*pendingReq)(h)
	ep := pr.ep
	if pr.retries >= MaxRetransmit {
		// RFC 7252 §4.2: MAX_RETRANSMIT attempts exhausted — the
		// exchange is abandoned, distinctly from a lost response.
		ep.fail(pr, ErrGaveUp)
		return
	}
	pr.retries++
	ep.stats.Retransmissions++
	pid, err := ep.sendReq(pr, pr.msg)
	if err != nil {
		ep.stats.SendErrors++
	} else {
		pr.pid = pid
		if ep.tr.Keeps(pid) {
			ep.tr.Add(ep.node, pid, 0, trace.CoAPReq(pr.dst, pr.msg.MessageID, pr.retries+1))
		}
	}
	if pr.ended {
		recycle(pr)
		return
	}
	ep.armRetry(pr, pr.rto*2)
}

// Endpoint is a CoAP client+server bound to the CoAP port of a node's stack.
type Endpoint struct {
	s  *sim.Sim
	st *ip6.Stack

	mid    uint16
	tokSeq uint64
	// pending holds the outstanding requests in the order they were sent,
	// matched by token (pendingIndex). It is nil until the first Request: a
	// city-scale build creates 10k+ endpoints, most of which never send one.
	pending []*pendingReq

	// dedup suppresses repeated requests, CON and NON alike, by (peer, MID).
	// It is nil until the first request arrives: of a city's 10k endpoints
	// only the sinks ever serve one.
	dedup *dedup
	stats Stats

	Handler Handler

	tr   *trace.Log
	node string
}

// SetTrace wires the endpoint to a shared trace log, emitting request and
// response span events under the given node name.
func (ep *Endpoint) SetTrace(l *trace.Log, node string) {
	ep.tr = l
	ep.node = node
}

// NewEndpoint binds a CoAP endpoint to the stack's CoAP port. The
// message-ID RNG draw must stay in build order for byte-identical runs.
func NewEndpoint(s *sim.Sim, st *ip6.Stack) *Endpoint {
	ep := &Endpoint{s: s, st: st}
	ep.mid = uint16(s.Rand().Intn(1 << 16))
	st.ListenUDP(DefaultPort, ep.onUDP)
	return ep
}

// Stats returns a copy of the endpoint counters.
func (ep *Endpoint) Stats() Stats { return ep.stats }

// NewMessageID returns the next message ID.
func (ep *Endpoint) NewMessageID() uint16 {
	ep.mid++
	return ep.mid
}

// Request sends a request to dst and invokes cb with the matched response.
// Confirmable requests are retransmitted per RFC 7252; non-confirmable
// requests are sent once. The request goes out as a copy of m with a fresh
// MID and a unique 2-byte token (the paper's 100-byte IP packets imply short
// tokens); m itself is not modified. A confirmable request keeps that copy,
// whose options and payload are m's, until the exchange ends; a
// non-confirmable one keeps nothing of m.
func (ep *Endpoint) Request(dst ip6.Addr, m *Message, cb ResponseFunc) error {
	msg := *m
	msg.MessageID = ep.NewMessageID()
	ep.tokSeq++
	pr := reqPool.Get().(*pendingReq)
	*pr = pendingReq{ep: ep, dst: dst, cb: cb, sentAt: ep.s.Now()}
	binary.BigEndian.PutUint16(pr.tok[:], uint16(ep.tokSeq))
	msg.Token = pr.tok[:]
	if msg.Type == CON {
		c := msg
		pr.msg = &c
	}
	ep.pending = append(ep.pending, pr)
	pid, err := ep.sendReq(pr, &msg)
	if err != nil {
		ep.unpend(pr)
		recycle(pr)
		ep.stats.SendErrors++
		return err
	}
	pr.pid = pid
	ep.stats.RequestsSent++
	if ep.tr.Keeps(pid) {
		ep.tr.Add(ep.node, pid, 0, trace.CoAPReq(dst, msg.MessageID, 1))
	}
	if pr.ended {
		recycle(pr)
		return nil
	}
	if msg.Type == CON {
		ep.armRetry(pr, ep.initialTimeout())
	}
	pr.expire = ep.s.Schedule(ep.s.Now()+ResponseTimeout, (*reqExpire)(pr))
	return nil
}

// sendReq sends pr's request m, marking pr as in the middle of a send.
func (ep *Endpoint) sendReq(pr *pendingReq, m *Message) (uint64, error) {
	pr.sending = true
	pid, err := ep.send(pr.dst, m)
	pr.sending = false
	return pid, err
}

// pendingIndex returns the index of the outstanding request whose token is
// tok, or -1. Every token this endpoint mints is two bytes long, so no other
// length matches. It scans from the newest: a response answers a recent
// request, while requests whose responses were lost sit at the front until
// they expire.
func (ep *Endpoint) pendingIndex(tok []byte) int {
	if len(tok) != 2 {
		return -1
	}
	t := [2]byte(tok)
	for i := len(ep.pending) - 1; i >= 0; i-- {
		if ep.pending[i].tok == t {
			return i
		}
	}
	return -1
}

// end returns a finished exchange, already out of pending, to reqPool —
// unless its request is still being sent, whose sender recycles it.
func (ep *Endpoint) end(pr *pendingReq) {
	if pr.sending {
		pr.ended = true
		return
	}
	recycle(pr)
}

// recycle clears pr, so the pool keeps nothing of the exchange reachable,
// and returns it to reqPool.
func recycle(pr *pendingReq) {
	*pr = pendingReq{}
	reqPool.Put(pr)
}

// unpend removes pr from the outstanding requests, reporting whether it was
// there. slices.Delete clears the vacated tail slot, so a finished exchange
// is not kept reachable.
func (ep *Endpoint) unpend(pr *pendingReq) bool {
	i := slices.Index(ep.pending, pr)
	if i < 0 {
		return false
	}
	ep.pending = slices.Delete(ep.pending, i, i+1)
	return true
}

func (ep *Endpoint) initialTimeout() sim.Duration {
	span := AckTimeout*AckRandomFactorNum/AckRandomFactorDen - AckTimeout
	return AckTimeout + sim.Duration(ep.s.Rand().Int63n(int64(span)+1))
}

func (ep *Endpoint) armRetry(pr *pendingReq, timeout sim.Duration) {
	pr.rto = timeout
	pr.retryEvt = ep.s.Schedule(ep.s.Now()+timeout, (*reqRetry)(pr))
}

func (ep *Endpoint) fail(pr *pendingReq, cause error) {
	if !ep.unpend(pr) {
		return
	}
	ep.s.Cancel(pr.retryEvt)
	ep.s.Cancel(pr.expire)
	failure := trace.CoAPTimeout
	if errors.Is(cause, ErrGaveUp) {
		ep.stats.GiveUps++
		failure = trace.CoAPGaveUp
	} else {
		ep.stats.Timeouts++
	}
	if ep.tr.Keeps(pr.pid) {
		ep.tr.Add(ep.node, pr.pid, ep.s.Now()-pr.sentAt, trace.CoAPFail(failure))
	}
	if pr.cb != nil {
		pr.cb(nil, 0, cause)
	}
	ep.end(pr)
}

// Reset drops all volatile endpoint state, as a node reboot would: pending
// exchanges vanish without callbacks (the requester's RAM is gone) and the
// dedup cache empties. Cumulative statistics and the port binding survive —
// they model the observer, not the device.
func (ep *Endpoint) Reset() {
	for _, pr := range ep.pending {
		ep.s.Cancel(pr.retryEvt)
		ep.s.Cancel(pr.expire)
		ep.end(pr)
	}
	ep.pending = nil
	ep.dedup = nil
}

// stackEncode is the encoding buffer send keeps on its stack: it holds the
// paper's 100-byte packets with room to spare; a larger message grows it
// onto the heap.
const stackEncode = 256

// send encodes and emits a message over UDP, returning the provenance ID
// the stack assigned to the datagram.
func (ep *Endpoint) send(dst ip6.Addr, m *Message) (uint64, error) {
	var buf [stackEncode]byte
	b, err := m.AppendTo(buf[:0])
	if err != nil {
		return 0, err
	}
	return ep.st.SendUDPPID(dst, DefaultPort, DefaultPort, b)
}

// onUDP dispatches incoming CoAP traffic, decoded in place into a message
// from rxPool that lives for the Handler or ResponseFunc call.
func (ep *Endpoint) onUDP(src ip6.Addr, srcPort uint16, data []byte) {
	m := rxPool.Get().(*Message)
	if m.decodeInPlace(data) == nil {
		ep.dispatch(src, srcPort, m)
	}
	clear(m.Options)
	*m = Message{Options: m.Options[:0]}
	rxPool.Put(m)
}

// dispatch hands a received request to the handler, or a response to the
// exchange its token matches.
func (ep *Endpoint) dispatch(src ip6.Addr, srcPort uint16, m *Message) {
	if m.Code.IsRequest() {
		ep.handleRequest(src, srcPort, m)
		return
	}
	// Response (or empty ACK): match by token.
	i := ep.pendingIndex(m.Token)
	if i < 0 {
		ep.stats.Unmatched++
		return
	}
	pr := ep.pending[i]
	ep.pending = slices.Delete(ep.pending, i, i+1)
	ep.s.Cancel(pr.retryEvt)
	ep.s.Cancel(pr.expire)
	ep.stats.ResponsesMatched++
	rtt := ep.s.Now() - pr.sentAt
	if ep.tr.Keeps(pr.pid) {
		ep.tr.Add(ep.node, pr.pid, rtt, trace.CoAPRsp(src, m.MessageID))
	}
	if pr.cb != nil {
		pr.cb(m, rtt, nil)
	}
	ep.end(pr)
}

// handleRequest runs the handler and sends its response. Requests of either
// type are deduplicated by (peer, MID). Confirmable ones are acknowledged; the
// response piggybacks on the ACK as RFC 7252 §5.2.1 describes. Non-confirmable
// requests get a response of the handler's chosen type (the paper's
// consumer answers NON GETs with ACK-coded responses).
func (ep *Endpoint) handleRequest(src ip6.Addr, srcPort uint16, req *Message) {
	if ep.dedup == nil {
		ep.dedup = newDedup()
	}
	if ep.dedup.duplicate(src, req.MessageID, ep.s.Now()) {
		ep.stats.Duplicates++
		return
	}
	ep.stats.RequestsServed++
	if ep.Handler == nil {
		return
	}
	h := ep.Handler(src, req)
	if h == nil {
		return
	}
	resp := *h
	resp.Token = req.Token
	if req.Type == CON || resp.Type == ACK {
		// Piggybacked response: same MID, type ACK.
		resp.Type = ACK
		resp.MessageID = req.MessageID
	} else {
		resp.MessageID = ep.NewMessageID()
	}
	_, _ = ep.send(src, &resp)
}
