package ble

import (
	"fmt"
	"strings"
	"testing"

	"blemesh/internal/phy"
	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
)

// fusedNet is a small network built twice by TestFusedIdleMatchesEventByEvent:
// once as shipped, once with every controller forced onto the event-by-event
// path. Everything an intrusion observes while the run is in progress goes
// into log, which is compared along with the final state.
type fusedNet struct {
	s     *sim.Sim
	m     *phy.Medium
	nodes []*testNode
	conns []*Conn // every endpoint ever opened, in order of creation
	log   []string

	sub, coord *Conn // the link between nodes 0 (subordinate) and 1
}

func (n *fusedNet) logf(format string, args ...any) {
	n.log = append(n.log, fmt.Sprintf(format, args...))
}

// observe logs what a third party that runs at this instant can see of the
// first link: whether either end is inside its event, what the radios are
// doing, and the packet counters.
func (n *fusedNet) observe(tag string) {
	n.logf("%s %d sub[in=%v sn=%d nesn=%d rx=%d tx=%d] coord[in=%v sn=%d nesn=%d rx=%d tx=%d] radio[%v %v rx=%d/%d] phy=%+v",
		tag, n.s.Now(),
		n.sub.inEvent, n.sub.sn, n.sub.nesn, n.sub.stats.RXPDUs, n.sub.stats.TXPDUs,
		n.coord.inEvent, n.coord.sn, n.coord.nesn, n.coord.stats.RXPDUs, n.coord.stats.TXPDUs,
		n.nodes[0].radio.State(), n.nodes[1].radio.State(), n.nodes[0].radio.RXTime, n.nodes[1].radio.RXTime,
		n.m.Stats())
}

// fingerprint renders everything the two paths must agree on.
func (n *fusedNet) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d phy=%+v\n", n.s.Now(), n.m.Stats())
	for i, nd := range n.nodes {
		ev := nd.ctrl.Events()
		ev.IdleFused, ev.IdleDeclined = 0, 0 // which path ran is the one thing that differs
		fmt.Fprintf(&b, "node%d events=%+v sched=%+v radio[tx=%d/%d rx=%d/%d %v]\n", i, ev, nd.ctrl.Scheduler().Stats(),
			nd.radio.TXTime, nd.radio.TXPkts, nd.radio.RXTime, nd.radio.RXPkts, nd.radio.State())
	}
	for i, c := range n.conns {
		fmt.Fprintf(&b, "conn%d %v closed=%v ev=%d sn=%d nesn=%d sync=%d/%d sup=%d params=%+v stats=%+v\n", i, c.role,
			c.closed, c.evIdx, c.sn, c.nesn, c.lastSyncLoc, c.lastSyncIdx, c.supDeadline, c.params, c.stats)
	}
	fmt.Fprintf(&b, "pending=%d rand=%d\n", n.s.Pending(), n.s.Rand().Uint64())
	return b.String()
}

// idleCounts returns node 1's coordinator-side counters: it coordinates the
// first link, the one the intrusions aim at, and no other.
func (n *fusedNet) idleCounts() (fused, declined, events uint64) {
	ev := n.nodes[1].ctrl.Events()
	return ev.IdleFused, ev.IdleDeclined, ev.ConnEvents
}

// link connects a (advertiser, subordinate) and b (initiator, coordinator)
// and runs until both endpoints exist.
func (n *fusedNet) link(t *testing.T, a, b *testNode, p ConnParams) (sub, coord *Conn) {
	t.Helper()
	have := len(n.conns)
	a.ctrl.StartAdvertising(AdvParams{Interval: 90 * sim.Millisecond, DataLen: 11})
	if err := b.ctrl.Connect(a.ctrl.Addr(), p); err != nil {
		t.Fatal(err)
	}
	for deadline := n.s.Now() + 20*sim.Second; n.s.Now() < deadline && len(n.conns) < have+2; {
		n.s.Run(n.s.Now() + 50*sim.Millisecond)
	}
	if len(n.conns) < have+2 {
		t.Fatalf("link %v→%v not established", b.ctrl.Addr(), a.ctrl.Addr())
	}
	for _, c := range n.conns[have:] {
		if c.role == Subordinate {
			sub = c
		} else {
			coord = c
		}
	}
	return sub, coord
}

// fusedCase is one row of TestFusedIdleMatchesEventByEvent.
type fusedCase struct {
	name   string
	ppm    [3]float64
	sca    float64
	arb    Arbitration
	params ConnParams
	// shared makes the three-node net a shared subordinate (node 0 is
	// subordinate of nodes 1 and 2) instead of a chain (0 ← 1 ← 2).
	shared  bool
	seconds int
	// medium runs before any radio exists, intrude once the links are up.
	medium  func(n *fusedNet)
	intrude func(t *testing.T, n *fusedNet)
	// run replaces the plain Run to the end of the scenario.
	run func(n *fusedNet, until sim.Time)
	// want is the share of coordinator events, counted from the moment the
	// links are up, that the shipped path must run in one step: at least
	// want when positive, none when zero, any when negative.
	want float64
}

// buildFused assembles the scenario with two or three nodes.
func buildFused(t *testing.T, tc *fusedCase, size int, eventByEvent bool) *fusedNet {
	t.Helper()
	s := sim.New(71)
	n := &fusedNet{s: s, m: phy.NewMedium(s)}
	if tc.medium != nil {
		tc.medium(n)
	}
	for i := 0; i < size; i++ {
		clk := sim.NewClock(s, tc.ppm[i])
		radio := n.m.NewRadio()
		ctrl := NewController(s, clk, radio, ControllerConfig{Addr: DevAddr(0xF0000 + i), Arbitration: tc.arb, SCA: tc.sca})
		ctrl.SetEventByEvent(eventByEvent)
		upcalls(ctrl).Up = func(c *Conn) { n.conns = append(n.conns, c) }
		n.nodes = append(n.nodes, &testNode{ctrl: ctrl, radio: radio, clk: clk})
	}
	p := tc.params
	if p.Interval == 0 {
		p.Interval = 75 * sim.Millisecond
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	n.sub, n.coord = n.link(t, n.nodes[0], n.nodes[1], p)
	if size == 3 {
		if tc.shared {
			n.link(t, n.nodes[0], n.nodes[2], p)
		} else {
			n.link(t, n.nodes[1], n.nodes[2], p)
		}
	}
	return n
}

// every calls fn once per period until the run ends.
func every(s *sim.Sim, period sim.Duration, fn func()) {
	var tick func()
	tick = func() {
		fn()
		s.Post(period, tick)
	}
	s.Post(period, tick)
}

// atEachAnchor calls fn at offset after every anchor of the coordinator of
// the first link — a third party whose timer lies at a fixed place relative
// to the exchange.
func atEachAnchor(n *fusedNet, offset sim.Duration, fn func()) {
	var tick func()
	tick = func() {
		fn()
		if !n.coord.closed {
			n.s.PostAt(n.coord.nextStart+offset, tick)
		}
	}
	n.s.PostAt(n.coord.nextStart+offset, tick)
}

// exchangeEnd is where an idle exchange ends, counted from the anchor: two
// empty PDUs and the spacing between them.
const exchangeEnd = 2*80*sim.Microsecond + IFS

// TestFusedIdleMatchesEventByEvent runs small networks twice, as shipped and
// with the fused idle exchange switched off, and requires the two runs to
// agree on every counter, clock reading, sequence bit, deadline and on the
// next random number — under each thing that can intrude on an idle exchange.
// An intrusion must either make the coordinator decline (the want column
// says when that has to be every time) or be handled by the functions the
// fused path shares with the general one.
func TestFusedIdleMatchesEventByEvent(t *testing.T) {
	absent := DevAddr(0xAB5E27)
	payload := make([]byte, 23)
	cases := []fusedCase{
		{name: "idle", ppm: [3]float64{3, -3, 1}, want: 0.85},
		// (With the subordinate fast and the coordinator slow by the full
		// 250 ppm the subordinate's window closes before every second anchor,
		// on either path; those events have no listener and are declined.)
		{name: "clocks +250/-250 ppm", ppm: [3]float64{250, -250, 250}, sca: 250, want: 0.4},
		{name: "clocks -250/+250 ppm", ppm: [3]float64{-250, 250, -250}, sca: 250, want: 0.85},
		{name: "data from the coordinator", want: 0.3, intrude: func(t *testing.T, n *fusedNet) {
			n.sub.OnData = DataFunc(func(_ LLID, p []byte, _ uint64) { n.logf("sub data %d at %d", len(p), n.s.Now()) })
			every(n.s, 410*sim.Millisecond, func() { n.coord.SendBuf(LLIDDataStart, pktbuf.FromBytes(payload), 0) })
		}},
		{name: "data from the subordinate", want: 0.3, intrude: func(t *testing.T, n *fusedNet) {
			n.coord.OnData = DataFunc(func(_ LLID, p []byte, _ uint64) { n.logf("coord data %d at %d", len(p), n.s.Now()) })
			every(n.s, 410*sim.Millisecond, func() { n.sub.SendBuf(LLIDDataStart, pktbuf.FromBytes(payload), 0) })
		}},
		{name: "data from the subordinate, a timer behind the empty exchange", want: 0.3, intrude: func(t *testing.T, n *fusedNet) {
			// The window is sized for an empty reply; one that carries data
			// ends later, past this timer.
			every(n.s, 410*sim.Millisecond, func() { n.sub.SendBuf(LLIDDataStart, pktbuf.FromBytes(payload), 0) })
			atEachAnchor(n, exchangeEnd+50*sim.Microsecond, func() { n.observe("behind") })
		}},
		{name: "close by the coordinator", want: -1, intrude: func(t *testing.T, n *fusedNet) {
			n.s.Post(1010*sim.Millisecond, n.coord.Close)
		}},
		{name: "close by the subordinate", want: -1, intrude: func(t *testing.T, n *fusedNet) {
			n.s.Post(1010*sim.Millisecond, n.sub.Close)
		}},
		{name: "coordinator scanning", want: -1, intrude: func(t *testing.T, n *fusedNet) {
			n.s.Post(500*sim.Millisecond, func() { _ = n.nodes[1].ctrl.Connect(absent, params75()) })
		}},
		{name: "subordinate scanning", want: -1, intrude: func(t *testing.T, n *fusedNet) {
			n.s.Post(500*sim.Millisecond, func() { _ = n.nodes[0].ctrl.Connect(absent, params75()) })
		}},
		{name: "a third radio on the event channel", want: 0.5, intrude: func(t *testing.T, n *fusedNet) {
			// It sits on data channels 5, 11, 17 in turn and hears every
			// event that hops there.
			r := n.m.NewRadio()
			r.SetReceiver(func(pkt phy.Packet, ch phy.Channel, ok bool) {
				n.logf("third heard ch=%d ok=%v at %d", ch, ok, n.s.Now())
			})
			chans, i := [3]phy.Channel{5, 11, 17}, 0
			r.StartListen(chans[0])
			every(n.s, 700*sim.Millisecond, func() { i++; r.StartListen(chans[i%3]) })
		}},
		{name: "a packet in flight on the event channel", want: 0.3, intrude: func(t *testing.T, n *fusedNet) {
			// 2 ms packets on channel 9 every 7 ms: the events that hop
			// there start under one, or are hit by one.
			r := n.m.NewRadio()
			every(n.s, 7*sim.Millisecond, func() { r.Transmit(9, phy.Packet{Bits: 2000}, 2*sim.Millisecond, nil) })
		}},
		{name: "a timer inside the window", want: 0, intrude: func(t *testing.T, n *fusedNet) {
			atEachAnchor(n, 100*sim.Microsecond, func() { n.observe("inside") })
		}},
		{name: "a timer at the end of the window", want: 0, intrude: func(t *testing.T, n *fusedNet) {
			atEachAnchor(n, exchangeEnd, func() { n.observe("end") })
		}},
		{name: "a timer just past the window", want: 0.85, intrude: func(t *testing.T, n *fusedNet) {
			atEachAnchor(n, exchangeEnd+1, func() { n.observe("past") })
		}},
		{name: "a Run horizon inside the window", want: 0, run: func(n *fusedNet, until sim.Time) {
			for n.s.Now() < until {
				stop := n.coord.nextStart + 150*sim.Microsecond
				if stop <= n.s.Now() || stop > until {
					stop = until
				}
				n.s.Run(stop)
				n.observe("horizon")
			}
		}},
		{name: "a Run horizon at the end of the window", want: 0.85, run: func(n *fusedNet, until sim.Time) {
			for n.s.Now() < until {
				stop := n.coord.nextStart + exchangeEnd
				if stop <= n.s.Now() || stop > until {
					stop = until
				}
				n.s.Run(stop)
				n.observe("horizon")
			}
		}},
		{name: "channel 22 jammed, noise 0.2", want: 0.85, seconds: 30,
			params: ConnParams{Supervision: 4 * sim.Second},
			medium: func(n *fusedNet) {
				n.m.AddInterference(phy.Jammer{Ch: 22})
				n.m.AddInterference(phy.RandomNoise{PER: 0.2})
			}},
		{name: "burst noise", want: 0.85, seconds: 30,
			params: ConnParams{Supervision: 4 * sim.Second},
			medium: func(n *fusedNet) {
				n.m.AddInterference(phy.NewBurstNoise(n.s, phy.BurstParams{
					MeanGood: 300 * sim.Millisecond, MeanBad: 40 * sim.Millisecond, PERBad: 0.7, PERGood: 0.02}))
			}},
		{name: "connection update pending", want: 0.5, intrude: func(t *testing.T, n *fusedNet) {
			n.s.Post(700*sim.Millisecond, func() {
				if err := n.coord.UpdateParams(100*sim.Millisecond, 0, 2*sim.Second); err != nil {
					t.Error(err)
				}
			})
		}},
		{name: "subordinate latency 3", params: ConnParams{Latency: 3}, want: 0.15},
		{name: "alternate arbitration, anchors crossing", ppm: [3]float64{0, 125, -125}, sca: 250,
			arb: ArbitrateAlternate, shared: true, seconds: 400, params: ConnParams{Supervision: 750 * sim.Millisecond}, want: -1},
		// While the anchors of a shared subordinate cross, its radio is often
		// busy with the other coordinator — with two channels in the map, half
		// the time on the very channel of the event it skipped.
		{name: "anchors crossing on a two-channel map", ppm: [3]float64{0, 125, -125}, sca: 250, shared: true, seconds: 400,
			params: ConnParams{Supervision: 4 * sim.Second, ChanMap: ChannelMap(1<<4 | 1<<30)}, want: -1},
		{name: "subordinate killed", want: -1, intrude: func(t *testing.T, n *fusedNet) {
			n.s.Post(1010*sim.Millisecond, n.sub.Kill)
		}},
		{name: "coordinator killed", want: -1, intrude: func(t *testing.T, n *fusedNet) {
			n.s.Post(1010*sim.Millisecond, n.coord.Kill)
		}},
		{name: "subordinate rebooted", want: 0.5, seconds: 12, intrude: func(t *testing.T, n *fusedNet) {
			// The node comes back and is connected to again while the old
			// coordinator endpoint, which still points at the dead one, is
			// running out its supervision timeout.
			n.s.Post(1010*sim.Millisecond, func() {
				n.nodes[0].ctrl.Shutdown()
				n.nodes[0].ctrl.StartAdvertising(AdvParams{Interval: 90 * sim.Millisecond, DataLen: 11})
				_ = n.nodes[1].ctrl.Connect(n.nodes[0].ctrl.Addr(), params75())
			})
		}},
	}
	for i := range cases {
		tc := &cases[i]
		for _, size := range []int{2, 3} {
			if tc.shared && size == 2 {
				continue
			}
			t.Run(fmt.Sprintf("%s/%d nodes", tc.name, size), func(t *testing.T) {
				var prints [2]string
				var logs [2][]string
				for mode, eventByEvent := range []bool{false, true} {
					n := buildFused(t, tc, size, eventByEvent)
					fused0, _, events0 := n.idleCounts()
					if tc.intrude != nil {
						tc.intrude(t, n)
					}
					seconds := tc.seconds
					if seconds == 0 {
						seconds = 8
					}
					until := n.s.Now() + sim.Duration(seconds)*sim.Second
					if tc.run != nil {
						tc.run(n, until)
					} else {
						n.s.Run(until)
					}
					prints[mode], logs[mode] = n.fingerprint(), n.log
					fused, _, events := n.idleCounts()
					if eventByEvent {
						for _, nd := range n.nodes {
							if ev := nd.ctrl.Events(); ev.IdleFused != 0 || ev.IdleDeclined != 0 {
								t.Fatalf("forced event by event, yet %d events fused and %d counted as declined", ev.IdleFused, ev.IdleDeclined)
							}
						}
						continue
					}
					share := float64(fused-fused0) / float64(events-events0)
					t.Logf("%d of %d coordinator events in one step (%.2f)", fused-fused0, events-events0, share)
					switch {
					case tc.want == 0 && fused != fused0:
						t.Errorf("%d events ran in one step under an intrusion that must stop every one", fused-fused0)
					case tc.want > 0 && share < tc.want:
						t.Errorf("only %.2f of the coordinator events ran in one step, want at least %.2f", share, tc.want)
					}
				}
				if prints[0] != prints[1] {
					t.Errorf("final state differs\nfused:\n%s\nevent by event:\n%s", prints[0], prints[1])
				}
				if len(logs[0]) != len(logs[1]) {
					t.Fatalf("%d observations fused, %d event by event", len(logs[0]), len(logs[1]))
				}
				for i := range logs[0] {
					if logs[0][i] != logs[1][i] {
						t.Fatalf("observation %d differs\nfused:          %s\nevent by event: %s", i, logs[0][i], logs[1][i])
					}
				}
			})
		}
	}
}
