package trace

import (
	"fmt"
	"sort"
	"strings"

	"blemesh/internal/sim"
)

// HopSpan is one link-layer hop of a packet's journey, with the hop's
// latency tiled into four non-overlapping components:
//
//	Queue        — from the packet entering this node's stack until its
//	               first fragment reaches the head of the LL transmit queue
//	               (pktbuf/netif queueing and L2CAP credit waits)
//	IntervalWait — from head-of-queue until the first LL transmission
//	               attempt (waiting for the next connection event — the
//	               connection-interval tax the paper measures in §6.2)
//	Airtime      — radio time of the PDUs that delivered the packet
//	Retrans      — everything else: retransmission rounds, skipped
//	               connection events (shading), and inter-fragment gaps
//
// The four components sum to End−Start exactly, by construction.
type HopSpan struct {
	From, To     string
	Start, End   sim.Time
	Queue        sim.Duration
	IntervalWait sim.Duration
	Airtime      sim.Duration
	Retrans      sim.Duration
	Tries        int // LL transmission attempts (≥ PDUs delivered)
}

// Total is the hop's wall-clock duration.
func (h HopSpan) Total() sim.Duration { return sim.Duration(h.End - h.Start) }

// Journey is the reconstructed life of one provenance-tagged packet.
type Journey struct {
	ID         uint64
	Origin     string
	Final      string // delivering node (or last node seen)
	Start, End sim.Time
	Hops       []HopSpan
	Delivered  bool
	DropCause  string // set when a pkt-drop event ended the journey
}

// Latency is the end-to-end duration (origin send to final delivery or
// drop).
func (j *Journey) Latency() sim.Duration { return sim.Duration(j.End - j.Start) }

// ComponentSum adds up every hop's four components. For a delivered
// journey this equals Latency() exactly, because hop windows tile the
// journey (forwarding is synchronous, so each hop ends at the instant the
// next begins).
func (j *Journey) ComponentSum() sim.Duration {
	var sum sim.Duration
	for _, h := range j.Hops {
		sum += h.Queue + h.IntervalWait + h.Airtime + h.Retrans
	}
	return sum
}

// journeyBuilder accumulates one journey from its event stream.
type journeyBuilder struct {
	j        *Journey
	cur      HopSpan
	open     bool
	readyAt  sim.Time
	readySet bool
	firstTX  sim.Time
	txSet    bool
}

func (b *journeyBuilder) closeHop(end sim.Time) {
	if !b.open {
		return
	}
	h := b.cur
	h.End = end
	ready := h.Start
	if b.readySet {
		ready = b.readyAt
	}
	firstTX := end
	if b.txSet {
		firstTX = b.firstTX
	}
	if firstTX < ready {
		firstTX = ready
	}
	h.Queue = sim.Duration(ready - h.Start)
	h.IntervalWait = sim.Duration(firstTX - ready)
	h.Retrans = h.Total() - h.Queue - h.IntervalWait - h.Airtime
	if h.Retrans < 0 { // degenerate partial hop (e.g. dropped mid-flight)
		h.Retrans = 0
	}
	b.j.Hops = append(b.j.Hops, h)
	b.open = false
}

func (b *journeyBuilder) openHop(from string, at sim.Time) {
	b.cur = HopSpan{From: from, Start: at}
	b.open = true
	b.readySet = false
	b.txSet = false
}

// feed processes one event of the journey's stream, in log order.
func (b *journeyBuilder) feed(e Event) {
	j := b.j
	switch e.Kind {
	case KindPacketTX:
		if j.Origin == "" {
			j.Origin = e.Node
			j.Start = e.At
			j.Final = e.Node
			b.openHop(e.Node, e.At)
		}
	case KindLLReady:
		if b.open && e.Node == b.cur.From && !b.readySet {
			b.readyAt = e.At
			b.readySet = true
		}
	case KindLLTx:
		if b.open && e.Node == b.cur.From {
			if !b.txSet {
				b.firstTX = e.At
				b.txSet = true
			}
			b.cur.Tries++
		}
	case KindLLRx:
		if b.open && e.Node != b.cur.From {
			b.cur.To = e.Node
			b.cur.Airtime += e.Dur
			j.Final = e.Node
			j.End = e.At
		}
	case KindPacketFwd:
		if b.open && e.Node == b.cur.To {
			b.closeHop(e.At)
			b.openHop(e.Node, e.At)
			j.End = e.At
		}
	case KindPacketRX:
		if j.Delivered {
			return
		}
		if b.open {
			if b.cur.To == "" {
				b.cur.To = e.Node // loopback or same-node delivery
			}
			b.closeHop(e.At)
		}
		j.Final = e.Node
		j.End = e.At
		j.Delivered = true
	case KindPacketDrop:
		if j.DropCause == "" && !j.Delivered {
			j.DropCause = e.Cause().String()
			j.End = e.At
			b.closeHop(e.At)
		}
	}
}

// Journeys reconstructs every provenance-tagged packet's journey from the
// log's retained events, ordered by provenance ID (origin node, then send
// sequence). Journeys whose origin event was evicted from the ring are
// skipped.
func Journeys(l *Log) []*Journey {
	builders := make(map[uint64]*journeyBuilder)
	var ids []uint64
	for _, e := range l.Events("") {
		if e.ID == 0 {
			continue
		}
		b, ok := builders[e.ID]
		if !ok {
			if e.Kind != KindPacketTX {
				continue // origin evicted; spans unanchored
			}
			b = &journeyBuilder{j: &Journey{ID: e.ID}}
			builders[e.ID] = b
			ids = append(ids, e.ID)
		}
		b.feed(e)
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	out := make([]*Journey, 0, len(ids))
	for _, id := range ids {
		b := builders[id]
		if b.open { // still in flight at end of run: close with last seen time
			end := b.j.End
			if end < b.cur.Start {
				end = b.cur.Start
			}
			b.closeHop(end)
		}
		out = append(out, b.j)
	}
	return out
}

// Waterfall renders the journey as an ASCII per-hop latency waterfall.
// Each hop gets a bar of the given width scaled to the journey's total
// latency and offset by the hop's start: '.' queueing, 'i' interval wait,
// 'a' airtime, 'r' retransmission/gap overhead.
func (j *Journey) Waterfall(width int) string {
	if width < 10 {
		width = 10
	}
	var b strings.Builder
	status := "delivered"
	if !j.Delivered {
		status = "in-flight"
		if j.DropCause != "" {
			status = "dropped(" + j.DropCause + ")"
		}
	}
	fmt.Fprintf(&b, "pkt %016x  %s -> %s  %d hop(s)  %.3f ms  %s\n",
		j.ID, j.Origin, j.Final, len(j.Hops), j.Latency().Seconds()*1e3, status)
	total := int64(j.Latency())
	if total <= 0 {
		total = 1
	}
	scale := func(d sim.Duration) int { return int(int64(d) * int64(width) / total) }
	for i, h := range j.Hops {
		offset := scale(sim.Duration(h.Start - j.Start))
		bar := strings.Repeat(" ", offset) +
			strings.Repeat(".", scale(h.Queue)) +
			strings.Repeat("i", scale(h.IntervalWait)) +
			strings.Repeat("a", scale(h.Airtime)) +
			strings.Repeat("r", scale(h.Retrans))
		fmt.Fprintf(&b, "  hop %d %-10s |%-*s| q=%.3f i=%.3f a=%.3f r=%.3f ms  tries=%d\n",
			i+1, h.From+">"+h.To, width, bar,
			h.Queue.Seconds()*1e3, h.IntervalWait.Seconds()*1e3,
			h.Airtime.Seconds()*1e3, h.Retrans.Seconds()*1e3, h.Tries)
	}
	return b.String()
}

// Decomposition aggregates component totals across a set of journeys —
// the numbers behind the latency-decomposition report.
type Decomposition struct {
	Journeys     int
	Delivered    int
	Hops         int
	Queue        sim.Duration
	IntervalWait sim.Duration
	Airtime      sim.Duration
	Retrans      sim.Duration
	Total        sim.Duration // summed end-to-end latency of delivered journeys
}

// Decompose sums per-hop components over the delivered journeys.
func Decompose(js []*Journey) Decomposition {
	var d Decomposition
	d.Journeys = len(js)
	for _, j := range js {
		if !j.Delivered {
			continue
		}
		d.Delivered++
		d.Total += j.Latency()
		for _, h := range j.Hops {
			d.Hops++
			d.Queue += h.Queue
			d.IntervalWait += h.IntervalWait
			d.Airtime += h.Airtime
			d.Retrans += h.Retrans
		}
	}
	return d
}
