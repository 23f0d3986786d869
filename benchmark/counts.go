package main

import (
	"bytes"

	"blemesh/internal/ble"
	"blemesh/internal/exp"
	"blemesh/internal/fault"
	"blemesh/internal/l2cap"
)

// Layer counters, read from outside through each layer's exported Stats()
// or Events() and summed over nodes. A counts value is cumulative since the
// network was built; the per-layer metrics are deltas between two of them.
const (
	cSimEvents = iota
	cPhyTransmissions
	cPhyCollisions
	cPhyInterfered
	cPhyDelivered
	cBLEConnEvents // serviced as coordinator + serviced as subordinate
	cBLEAdvEvents
	cBLEConnsLost
	cBLEPoolExhausted
	cBLEEventsSkipped
	cBLETXPDUs
	cBLETXEmpty
	cBLERetrans
	cStatconnLinksOpened
	cStatconnLinkLosses
	cStatconnReconnects
	cStatconnIntervalRejects
	cL2CAPSDUsSent
	cL2CAPFramesSent
	cL2CAPStalls
	cL2CAPCreditsSent
	cCoreTXPackets
	cCoreRXPackets
	cCoreQueueDrops
	cCoreLinkDrops
	cIP6Sent
	cIP6Forwarded
	cIP6Received
	cIP6Drops
	cCoAPRequestsSent
	cCoAPResponsesMatched
	cCoAPTimeouts
	cCoAPGiveUps
	cCoAPServed
	cCoAPDuplicates
	cRPLDIOSent
	cRPLDAOSent
	cRPLParentSwitches
	cRPLLocalRepairs
	cTraceEvents
	cTracePktKept
	cTracePktDropped
	cStreamSnapshots
	cStreamBytes
	cFaultExecuted
	nCounters
)

type counts [nCounters]uint64

func (a counts) sub(b counts) counts {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a counts) add(b counts) counts {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// connSeen and chanSeen are the last-read counters of one live connection
// or channel.
type connSeen struct{ skipped, txPDUs, txEmpty, retrans uint64 }
type chanSeen struct{ sdus, frames, stalls, credits uint64 }

// tally reads a network's layer counters. Node-level counters survive
// reboots and are summed directly. Per-connection and per-channel counters
// vanish with their connection, so the tally accumulates each live
// object's increase since it was last seen (acc holds those sums and is
// zero elsewhere); what a connection counts between the last snapshot and
// its loss is missed, which bounds the error by one segment of one link.
type tally struct {
	nw     *exp.Network
	stream *streamCounter
	inj    *fault.Injector // set once a fault plan is attached
	conns  map[*ble.Conn]connSeen
	chans  map[*l2cap.Channel]chanSeen
	acc    counts
}

func newTally(nw *exp.Network, stream *streamCounter) *tally {
	return &tally{nw: nw, stream: stream,
		conns: map[*ble.Conn]connSeen{}, chans: map[*l2cap.Channel]chanSeen{}}
}

func (t *tally) snapshot() counts {
	nw := t.nw
	var c counts
	conns := make(map[*ble.Conn]connSeen, len(t.conns))
	chans := make(map[*l2cap.Channel]chanSeen, len(t.chans))
	acc := &t.acc

	c[cSimEvents] = nw.Processed()
	for _, m := range nw.Media {
		st := m.Stats()
		c[cPhyTransmissions] += st.Transmissions
		c[cPhyCollisions] += st.Collisions
		c[cPhyInterfered] += st.Interfered
		c[cPhyDelivered] += st.Delivered
	}
	for _, n := range nw.Nodes {
		if n == nil {
			continue
		}
		ev := n.Ctrl.Events()
		c[cBLEConnEvents] += ev.ConnEvents + ev.ConnEventsSub
		c[cBLEAdvEvents] += ev.AdvEvents
		c[cBLEConnsLost] += ev.ConnsLost
		c[cBLEPoolExhausted] += ev.PoolExhausted
		for _, conn := range n.Ctrl.Conns() {
			st := conn.Stats()
			now := connSeen{st.EventsSkipped, st.TXPDUs, st.TXEmpty, st.Retrans}
			was := t.conns[conn]
			acc[cBLEEventsSkipped] += now.skipped - was.skipped
			acc[cBLETXPDUs] += now.txPDUs - was.txPDUs
			acc[cBLETXEmpty] += now.txEmpty - was.txEmpty
			acc[cBLERetrans] += now.retrans - was.retrans
			conns[conn] = now
		}
		sc := n.Statconn.Stats()
		c[cStatconnLinksOpened] += sc.LinksOpened
		c[cStatconnLinkLosses] += sc.LinkLosses
		c[cStatconnReconnects] += sc.Reconnects
		c[cStatconnIntervalRejects] += sc.IntervalRejects
		for _, mac := range n.NetIf.Links() {
			ch := n.NetIf.Channel(mac)
			if ch == nil {
				continue
			}
			st := ch.Stats()
			now := chanSeen{st.SDUsSent, st.FramesSent, st.Stalls, st.CreditsSent}
			was := t.chans[ch]
			acc[cL2CAPSDUsSent] += now.sdus - was.sdus
			acc[cL2CAPFramesSent] += now.frames - was.frames
			acc[cL2CAPStalls] += now.stalls - was.stalls
			acc[cL2CAPCreditsSent] += now.credits - was.credits
			chans[ch] = now
		}
		ni := n.NetIf.Stats()
		c[cCoreTXPackets] += ni.TXPackets
		c[cCoreRXPackets] += ni.RXPackets
		c[cCoreQueueDrops] += ni.QueueDrops
		c[cCoreLinkDrops] += ni.LinkDrops
		ip := n.Stack.Stats()
		c[cIP6Sent] += ip.Sent
		c[cIP6Forwarded] += ip.Forwarded
		c[cIP6Received] += ip.Received
		c[cIP6Drops] += ip.NoRoute + ip.NoNeighbor + ip.HopLimit + ip.QueueDrops + ip.PktbufDrops + ip.HdrErrors
		co := n.Coap.Stats()
		c[cCoAPRequestsSent] += co.RequestsSent
		c[cCoAPResponsesMatched] += co.ResponsesMatched
		c[cCoAPTimeouts] += co.Timeouts
		c[cCoAPGiveUps] += co.GiveUps
		c[cCoAPServed] += co.RequestsServed
		c[cCoAPDuplicates] += co.Duplicates
		if n.RPL != nil {
			rs := n.RPL.Stats()
			c[cRPLDIOSent] += rs.DIOSent
			c[cRPLDAOSent] += rs.DAOSent
			c[cRPLParentSwitches] += rs.ParentSwitches
			c[cRPLLocalRepairs] += rs.LocalRepairs
		}
	}
	t.conns, t.chans = conns, chans
	if nw.Trace != nil {
		c[cTraceEvents] = nw.Trace.Total()
		c[cTracePktKept] = nw.Trace.PktKept()
		c[cTracePktDropped] = nw.Trace.PktDropped()
	}
	c[cStreamSnapshots] = t.stream.snapshots
	c[cStreamBytes] = t.stream.bytes
	if t.inj != nil {
		c[cFaultExecuted] = uint64(len(t.inj.Log()))
	}
	return c.add(t.acc)
}

// streamMarker occurs exactly once in every streamed snapshot: the registry
// exports one "net.buffer_drops" sample per Gather pass.
var streamMarker = []byte(`"name":"net.buffer_drops"`)

// streamCounter is the io.Discard the streamed metrics go to: it counts
// bytes and snapshots and keeps nothing.
type streamCounter struct {
	bytes     uint64
	snapshots uint64
	tail      []byte // last len(streamMarker)-1 bytes, for markers split across writes
}

func (s *streamCounter) Write(p []byte) (int, error) {
	s.bytes += uint64(len(p))
	buf := append(s.tail, p...)
	s.snapshots += uint64(bytes.Count(buf, streamMarker))
	keep := len(streamMarker) - 1
	if len(buf) < keep {
		keep = len(buf)
	}
	s.tail = append(s.tail[:0], buf[len(buf)-keep:]...)
	return len(p), nil
}
