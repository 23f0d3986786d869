package trace

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strconv"

	"blemesh/internal/sim"
)

// Rec is one event as a ring stores it: 64 bytes with no pointer, so a ring
// is a run of chunks the garbage collector never scans, and recording formats
// nothing. The constructors below fill the typed fields of each kind; Add
// stamps the time, the sequence number, the packet ID and the duration. The
// event's Detail text — the bytes the emit sites used to format — is
// rendered only when an export or a reader asks for it.
type Rec struct {
	at sim.Time
	// seq is the emission sequence number, site<<48 | per-site counter:
	// the secondary merge key that restores one chronology across per-node
	// shards (events at the same sim instant keep their emission order; a
	// single-site network uses only site 0, where this is one global
	// counter).
	seq uint64
	id  uint64
	dur sim.Duration
	// addr is an IPv6 address (dst, src or next hop), or two 64-bit words:
	// a link-layer address, a connection event index or an interval.
	addr [16]byte
	// n holds the small integers of a kind: connection handle, try, length,
	// queue length, CoAP message ID, rank.
	n    [3]uint32
	kind Kind
	// op is the kind's closed enum — drop cause, loss reason, rank cause,
	// CoAP error, RPL direction — or opText for an EmitPkt event.
	op uint8
	// b is one more small value: the channel, the hop limit, the role, the
	// RPL message type, or a drop's loss reason plus one.
	b uint8
}

// opText marks a record whose Detail is EmitPkt's formatted text, kept
// beside the ring slot.
const opText = 0xff

// Cause is why a packet was dropped: the op of a pkt-drop record.
type Cause uint8

// Drop causes. The zero Cause is "none", which only an EmitPkt text event
// carries.
const (
	CauseNoRoute    Cause = iota + 1 // no route toward the destination
	CauseNoNeighbor                  // the route's next hop has no link
	CauseQueueFull                   // the adapter's queue toward the next hop is full
	CauseHopLimit                    // the hop limit ran out at a forwarder
	CauseLinkDown                    // queued on a link that went down
	CauseLinkReset                   // queued in a connection that was torn down
	numCauses
)

var causeNames = [numCauses]string{"", "no-route", "no-neighbor", "queue-full", "hop-limit", "link-down", "link-reset"}

func (c Cause) String() string {
	if c < numCauses {
		return causeNames[c]
	}
	return fmt.Sprintf("Cause(%d)", uint8(c))
}

// Loss is why a BLE connection ended; ble.LossReason is this type.
type Loss uint8

// Loss reasons.
const (
	LossSupervision Loss = iota
	LossPeerTerminated
	LossHostTerminated
)

func (r Loss) String() string {
	switch r {
	case LossSupervision:
		return "supervision-timeout"
	case LossPeerTerminated:
		return "peer-terminated"
	default:
		return "host-terminated"
	}
}

// Role is a connection end's role; ble.Role is this type.
type Role uint8

// Roles.
const (
	RoleCoordinator Role = iota
	RoleSubordinate
)

func (r Role) String() string {
	if r == RoleCoordinator {
		return "coordinator"
	}
	return "subordinate"
}

// RankCause is why an RPL node's rank changed: the op of an rpl-rank record.
type RankCause uint8

// Rank causes.
const (
	RankRoot           RankCause = iota // the node became the DODAG root
	RankDIO                             // a DIO moved the rank or the parent
	RankParentLinkDown                  // the preferred parent's link went down
	RankParentPoisoned                  // the preferred parent advertised infinite rank
	RankParentTimeout                   // the preferred parent went silent
	RankBound                           // the rank would exceed the MaxRankIncrease bound
	numRankCauses
)

var rankCauseNames = [numRankCauses]string{"root", "dio", "parent-link-down", "parent-poisoned", "parent-timeout", "rank-bound"}

func (c RankCause) String() string {
	if c < numRankCauses {
		return rankCauseNames[c]
	}
	return fmt.Sprintf("RankCause(%d)", uint8(c))
}

// CoAPErr is why a CoAP exchange failed: the op of a failed coap-rsp
// record. Its names are the texts of coap.ErrTimeout and coap.ErrGaveUp.
type CoAPErr uint8

// CoAP failures (op 0 is an answered exchange).
const (
	CoAPTimeout CoAPErr = iota + 1
	CoAPGaveUp
)

func (e CoAPErr) String() string {
	if e == CoAPGaveUp {
		return "coap: gave up after MAX_RETRANSMIT retransmissions"
	}
	return "coap: response timeout"
}

// appendRPLType appends the name of an RPL control message type, as the
// rpl package's Type constants number them.
func appendRPLType(b []byte, t uint8) []byte {
	switch t {
	case 0x01:
		return append(b, "dio"...)
	case 0x02:
		return append(b, "dao"...)
	case 0x03:
		return append(b, "dis"...)
	}
	return strconv.AppendUint(append(b, "type-0x"...), uint64(t), 16)
}

// Ops of the two kinds whose records come in two forms.
const (
	rxLoopback = 1 // pkt-rx: a packet sent to itself (0: one from a peer)
	rplTx      = 1 // rpl-ctrl: a control message sent (0: one received)
)

func words(w0, w1 uint64) (a [16]byte) {
	binary.BigEndian.PutUint64(a[:8], w0)
	binary.BigEndian.PutUint64(a[8:], w1)
	return a
}

func (r *Rec) w0() uint64 { return binary.BigEndian.Uint64(r.addr[:8]) }
func (r *Rec) w1() uint64 { return binary.BigEndian.Uint64(r.addr[8:]) }

// ConnOpen is a conn-open record: a link to peer came up in the given role
// and connection interval.
func ConnOpen(peer uint64, role Role, itvl sim.Duration) Rec {
	return Rec{kind: KindConnOpen, addr: words(peer, uint64(itvl)), b: uint8(role)}
}

// ConnLoss is a conn-loss record: the link to peer ended for reason r.
func ConnLoss(peer uint64, r Loss) Rec {
	return Rec{kind: KindConnLoss, addr: words(peer, 0), op: uint8(r)}
}

// EventSkipped is an event-skipped record: connection event ev of
// connection conn found the radio busy, with qlen PDUs queued.
func EventSkipped(conn int, ev uint64, qlen int) Rec {
	return Rec{kind: KindEventSkipped, addr: words(ev, 0), n: [3]uint32{uint32(conn), uint32(qlen)}}
}

// PktTX is a pkt-tx record: a packet of n bytes leaves its origin for dst.
func PktTX(dst [16]byte, n int) Rec {
	return Rec{kind: KindPacketTX, addr: dst, n: [3]uint32{uint32(n)}}
}

// PktRX is a pkt-rx record: a packet of n bytes from src is delivered.
func PktRX(src [16]byte, n int) Rec {
	return Rec{kind: KindPacketRX, addr: src, n: [3]uint32{uint32(n)}}
}

// PktLoopback is a pkt-rx record of a packet a node sent to itself.
func PktLoopback(src [16]byte) Rec {
	return Rec{kind: KindPacketRX, addr: src, op: rxLoopback}
}

// PktFwd is a pkt-fwd record: a packet for dst is routed onward with hop
// limit hl left.
func PktFwd(dst [16]byte, hl uint8) Rec {
	return Rec{kind: KindPacketFwd, addr: dst, b: hl}
}

// Drop is a pkt-drop record of the network layer: cause c (no-route,
// no-neighbor, queue-full or hop-limit) at the packet's destination or next
// hop addr.
func Drop(c Cause, addr [16]byte) Rec {
	return Rec{kind: KindPacketDrop, op: uint8(c), addr: addr}
}

// DropLinkDown is a pkt-drop record of a frame queued on the adapter's
// link to peer when it went down.
func DropLinkDown(peer uint64) Rec {
	return Rec{kind: KindPacketDrop, op: uint8(CauseLinkDown), addr: words(peer, 0)}
}

// DropLinkReset is a pkt-drop record of a frame an upper layer held on
// connection conn when it was torn down.
func DropLinkReset(conn int) Rec {
	return Rec{kind: KindPacketDrop, op: uint8(CauseLinkReset), n: [3]uint32{uint32(conn)}}
}

// DropConnLost is a pkt-drop record of a payload left in connection conn's
// link-layer queue when the connection ended for reason r.
func DropConnLost(conn int, r Loss) Rec {
	return Rec{kind: KindPacketDrop, op: uint8(CauseLinkReset), n: [3]uint32{uint32(conn)}, b: uint8(r) + 1}
}

// CoAPReq is a coap-req record: attempt try of request mid to dst.
func CoAPReq(dst [16]byte, mid uint16, try int) Rec {
	return Rec{kind: KindCoAPRequest, addr: dst, n: [3]uint32{uint32(mid), uint32(try)}}
}

// CoAPRsp is a coap-rsp record: the response to request mid came from src.
func CoAPRsp(src [16]byte, mid uint16) Rec {
	return Rec{kind: KindCoAPResponse, addr: src, n: [3]uint32{uint32(mid)}}
}

// CoAPFail is a coap-rsp record of an exchange that failed with e.
func CoAPFail(e CoAPErr) Rec {
	return Rec{kind: KindCoAPResponse, op: uint8(e)}
}

// LLReady is an ll-ready record: a tagged payload reached the head of
// connection conn's transmit queue of qlen PDUs.
func LLReady(conn, qlen int) Rec {
	return Rec{kind: KindLLReady, n: [3]uint32{uint32(conn), uint32(qlen)}}
}

// LLTx is an ll-tx record: transmission try of an n-byte PDU on connection
// conn, data channel ch.
func LLTx(conn int, ch uint8, try, n int) Rec {
	return Rec{kind: KindLLTx, b: ch, n: [3]uint32{uint32(conn), uint32(try), uint32(n)}}
}

// LLRx is an ll-rx record: an n-byte PDU delivered on connection conn, data
// channel ch.
func LLRx(conn int, ch uint8, n int) Rec {
	return Rec{kind: KindLLRx, b: ch, n: [3]uint32{uint32(conn), 0, uint32(n)}}
}

// RPLRx is an rpl-ctrl record: a control message of type typ and rank
// arrived from neighbour from.
func RPLRx(typ uint8, from uint64, rank uint16) Rec {
	return Rec{kind: KindRPLCtrl, b: typ, addr: words(from, 0), n: [3]uint32{uint32(rank)}}
}

// RPLTx is an rpl-ctrl record: a control message of type typ and rank was
// sent to neighbour to.
func RPLTx(typ uint8, to uint64, rank uint16) Rec {
	return Rec{kind: KindRPLCtrl, op: rplTx, b: typ, addr: words(to, 0), n: [3]uint32{uint32(rank)}}
}

// RPLRank is an rpl-rank record: the node's rank became rank under parent
// (0 = none) because of c.
func RPLRank(rank uint16, parent uint64, c RankCause) Rec {
	return Rec{kind: KindRPLRank, op: uint8(c), addr: words(parent, 0), n: [3]uint32{uint32(rank)}}
}

// Cause returns a pkt-drop event's cause, or 0 for any other event.
func (e Event) Cause() Cause {
	if e.Kind != KindPacketDrop || e.r.op == opText {
		return 0
	}
	return Cause(e.r.op)
}

// Rank returns an rpl-rank event's rank and preferred parent; ok is false
// for any other event.
func (e Event) Rank() (rank uint16, parent uint64, ok bool) {
	if e.Kind != KindRPLRank || e.r.op == opText {
		return 0, 0, false
	}
	return uint16(e.r.n[0]), e.r.w0(), true
}

// Detail renders the event's text: the typed fields in the format of its
// kind, or an EmitPkt event's own text.
func (e Event) Detail() string { return string(e.appendDetail(nil)) }

// appendDetail appends the event's Detail text to b. The typed forms are
// printable ASCII with no quote, backslash or comma, so the encoders copy
// them into a line without escaping.
func (e *Event) appendDetail(b []byte) []byte {
	if e.hasText() {
		return append(b, e.text...)
	}
	r := &e.r
	switch e.Kind {
	case KindConnOpen:
		b = appendDevAddr(append(b, "peer="...), r.w0())
		b = append(append(b, " role="...), Role(r.b).String()...)
		return appendDuration(append(b, " itvl="...), sim.Duration(r.w1()))
	case KindConnLoss:
		b = appendDevAddr(append(b, "peer="...), r.w0())
		return append(append(b, " reason="...), Loss(r.op).String()...)
	case KindEventSkipped:
		b = appendUint(append(b, "conn#"...), r.n[0])
		b = strconv.AppendUint(append(b, " ev="...), r.w0(), 10)
		return appendUint(append(b, " qlen="...), r.n[1])
	case KindPacketTX:
		b = appendIP(append(b, "dst="...), r.addr)
		return appendUint(append(b, " len="...), r.n[0])
	case KindPacketRX:
		b = appendIP(append(b, "src="...), r.addr)
		if r.op == rxLoopback {
			return append(b, " loopback"...)
		}
		return appendUint(append(b, " len="...), r.n[0])
	case KindPacketDrop:
		c := Cause(r.op)
		b = append(append(b, "cause="...), c.String()...)
		switch c {
		case CauseLinkDown:
			return appendHex12(append(b, " peer="...), r.w0())
		case CauseLinkReset:
			b = appendUint(append(b, " conn#"...), r.n[0])
			if r.b > 0 {
				b = append(append(b, " reason="...), Loss(r.b-1).String()...)
			}
			return b
		case CauseNoNeighbor, CauseQueueFull:
			return appendIP(append(b, " nh="...), r.addr)
		}
		return appendIP(append(b, " dst="...), r.addr)
	case KindCoAPRequest:
		b = appendIP(append(b, "dst="...), r.addr)
		b = appendUint(append(b, " mid="...), r.n[0])
		return appendUint(append(b, " try="...), r.n[1])
	case KindCoAPResponse:
		if r.op != 0 {
			return append(append(b, "err="...), CoAPErr(r.op).String()...)
		}
		b = appendIP(append(b, "src="...), r.addr)
		return appendUint(append(b, " mid="...), r.n[0])
	case KindPacketFwd:
		b = appendIP(append(b, "dst="...), r.addr)
		return appendUint(append(b, " hl="...), uint32(r.b))
	case KindLLReady:
		b = appendUint(append(b, "conn#"...), r.n[0])
		return appendUint(append(b, " qlen="...), r.n[1])
	case KindLLTx:
		b = appendUint(append(b, "conn#"...), r.n[0])
		b = appendUint(append(b, " ch="...), uint32(r.b))
		b = appendUint(append(b, " try="...), r.n[1])
		return appendUint(append(b, " len="...), r.n[2])
	case KindLLRx:
		b = appendUint(append(b, "conn#"...), r.n[0])
		b = appendUint(append(b, " ch="...), uint32(r.b))
		return appendUint(append(b, " len="...), r.n[2])
	case KindRPLCtrl:
		dir, peer := "rx ", " from="
		if r.op == rplTx {
			dir, peer = "tx ", " to="
		}
		b = append(b, dir...)
		b = appendHex12(append(appendRPLType(b, r.b), peer...), r.w0())
		return appendUint(append(b, " rank="...), r.n[0])
	case KindRPLRank:
		b = appendUint(append(b, "rank="...), r.n[0])
		b = appendHex12(append(b, " parent="...), r.w0())
		return append(append(b, " cause="...), RankCause(r.op).String()...)
	}
	return b
}

func appendUint(b []byte, v uint32) []byte { return strconv.AppendUint(b, uint64(v), 10) }

// appendIP appends a as net.IP.String renders it: dotted quad for an
// IPv4-mapped address, RFC 5952 text otherwise.
func appendIP(b []byte, a [16]byte) []byte {
	if a[10] == 0xff && a[11] == 0xff && [10]byte(a[:10]) == [10]byte{} {
		return netip.AddrFrom4([4]byte(a[12:])).AppendTo(b)
	}
	return netip.AddrFrom16(a).AppendTo(b)
}

const hexDigits = "0123456789abcdef"

// appendHex12 appends v as %012x does: lower-case hex, zero-padded to 12
// digits, with any digits above the 48th bit in front.
func appendHex12(b []byte, v uint64) []byte {
	if hi := v >> 48; hi != 0 {
		b = strconv.AppendUint(b, hi, 16)
	}
	for s := 44; s >= 0; s -= 4 {
		b = append(b, hexDigits[v>>uint(s)&0xf])
	}
	return b
}

// appendDevAddr appends the low 48 bits of a as ble.DevAddr.String renders
// them: six colon-separated hex bytes, most significant first.
func appendDevAddr(b []byte, a uint64) []byte {
	for s := 40; s >= 0; s -= 8 {
		x := byte(a >> uint(s))
		b = append(b, hexDigits[x>>4], hexDigits[x&0xf])
		if s > 0 {
			b = append(b, ':')
		}
	}
	return b
}

// appendDuration appends d as sim.Time.String renders it.
func appendDuration(b []byte, d sim.Duration) []byte {
	switch {
	case d >= sim.Second:
		return append(strconv.AppendFloat(b, float64(d)/float64(sim.Second), 'f', 6, 64), 's')
	case d >= sim.Millisecond:
		return append(strconv.AppendFloat(b, float64(d)/float64(sim.Millisecond), 'f', 3, 64), "ms"...)
	case d >= sim.Microsecond:
		return append(strconv.AppendInt(b, int64(d)/int64(sim.Microsecond), 10), "us"...)
	}
	return append(strconv.AppendInt(b, int64(d), 10), "ns"...)
}
