package ble

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"blemesh/internal/phy"
	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
)

// testNode bundles one simulated node's radio stack for link-layer tests.
type testNode struct {
	ctrl  *Controller
	radio *phy.Radio
	clk   *sim.Clock
}

// newTestNet builds n nodes on a fresh medium. ppm[i] sets node i's actual
// clock drift.
func newTestNet(seed int64, ppm ...float64) (*sim.Sim, *phy.Medium, []*testNode) {
	s := sim.New(seed)
	m := phy.NewMedium(s)
	nodes := make([]*testNode, len(ppm))
	for i, p := range ppm {
		clk := sim.NewClock(s, p)
		radio := m.NewRadio()
		ctrl := NewController(s, clk, radio, ControllerConfig{Addr: DevAddr(0xA0000 + i)})
		nodes[i] = &testNode{ctrl: ctrl, radio: radio, clk: clk}
	}
	return s, m, nodes
}

// DataFunc adapts a function to DataHandler.
type DataFunc func(llid LLID, payload []byte, pid uint64)

// LLData calls f.
func (f DataFunc) LLData(llid LLID, payload []byte, pid uint64) { f(llid, payload, pid) }

// connFuncs adapts three functions to ConnHandler; a nil one ignores its
// upcall, and a nil Param rejects every parameter request.
type connFuncs struct {
	Up    func(c *Conn)
	Down  func(c *Conn, reason LossReason)
	Param func(c *Conn, iv sim.Duration) bool
}

func (f *connFuncs) ConnUp(c *Conn) {
	if f.Up != nil {
		f.Up(c)
	}
}

func (f *connFuncs) ConnDown(c *Conn, reason LossReason) {
	if f.Down != nil {
		f.Down(c, reason)
	}
}

func (f *connFuncs) ParamRequest(c *Conn, iv sim.Duration) bool {
	return f.Param != nil && f.Param(c, iv)
}

// upcalls returns the controller's connFuncs, installing them on first use,
// so a test can set one upcall without dropping another.
func upcalls(ctrl *Controller) *connFuncs {
	if ctrl.OnConn == nil {
		ctrl.OnConn = &connFuncs{}
	}
	return ctrl.OnConn.(*connFuncs)
}

// connectPair establishes a connection: a advertises (subordinate), b scans
// and initiates (coordinator). It runs the sim until the link is up.
func connectPair(t *testing.T, s *sim.Sim, a, b *testNode, params ConnParams) (sub, coord *Conn) {
	t.Helper()
	upcalls(a.ctrl).Up = func(c *Conn) { sub = c }
	upcalls(b.ctrl).Up = func(c *Conn) { coord = c }
	a.ctrl.StartAdvertising(AdvParams{Interval: 90 * sim.Millisecond, DataLen: 11})
	if err := b.ctrl.Connect(a.ctrl.Addr(), params); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	deadline := s.Now() + 5*sim.Second
	for s.Now() < deadline && (sub == nil || coord == nil) {
		s.Run(s.Now() + 50*sim.Millisecond)
	}
	if sub == nil || coord == nil {
		t.Fatalf("connection not established within 5s (sub=%v coord=%v)", sub, coord)
	}
	if sub.Role() != Subordinate || coord.Role() != Coordinator {
		t.Fatalf("roles wrong: %v / %v", sub.Role(), coord.Role())
	}
	return sub, coord
}

func params75() ConnParams {
	p := ConnParams{Interval: 75 * sim.Millisecond}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

func TestConnectionEstablishment(t *testing.T) {
	s, _, nodes := newTestNet(1, 0, 0)
	sub, coord := connectPair(t, s, nodes[0], nodes[1], params75())
	if sub.Peer() != nodes[1].ctrl.Addr() || coord.Peer() != nodes[0].ctrl.Addr() {
		t.Fatal("peer addresses wrong")
	}
	if coord.Interval() != 75*sim.Millisecond {
		t.Fatalf("interval = %v", coord.Interval())
	}
	// The link must stay alive: run 10s and check no disconnect.
	lost := false
	upcalls(nodes[0].ctrl).Down = func(*Conn, LossReason) { lost = true }
	upcalls(nodes[1].ctrl).Down = func(*Conn, LossReason) { lost = true }
	s.Run(s.Now() + 10*sim.Second)
	if lost {
		t.Fatal("idle connection dropped within 10s")
	}
	if sub.Stats().EventsOK < 100 {
		t.Fatalf("subordinate serviced only %d events in 10s at 75ms interval", sub.Stats().EventsOK)
	}
}

func TestDataTransferCoordinatorToSubordinate(t *testing.T) {
	s, _, nodes := newTestNet(2, 1.5, -1.5)
	sub, coord := connectPair(t, s, nodes[0], nodes[1], params75())
	var got [][]byte
	sub.OnData = DataFunc(func(_ LLID, p []byte, _ uint64) { got = append(got, p) })
	payloads := make([][]byte, 10)
	for i := range payloads {
		payloads[i] = []byte{byte(i), 1, 2, 3}
		if !coord.SendBuf(LLIDDataStart, pktbuf.FromBytes(payloads[i]), 0) {
			t.Fatalf("Send %d rejected", i)
		}
	}
	s.Run(s.Now() + 3*sim.Second)
	if len(got) != 10 {
		t.Fatalf("delivered %d/10 payloads", len(got))
	}
	for i, p := range got {
		if p[0] != byte(i) {
			t.Fatalf("payload %d out of order: first byte %d", i, p[0])
		}
	}
}

func TestDataTransferSubordinateToCoordinator(t *testing.T) {
	s, _, nodes := newTestNet(3, 1.5, -1.5)
	sub, coord := connectPair(t, s, nodes[0], nodes[1], params75())
	var got [][]byte
	coord.OnData = DataFunc(func(_ LLID, p []byte, _ uint64) { got = append(got, p) })
	for i := 0; i < 10; i++ {
		if !sub.SendBuf(LLIDDataStart, pktbuf.FromBytes([]byte{byte(i)}), 0) {
			t.Fatalf("Send %d rejected", i)
		}
	}
	s.Run(s.Now() + 3*sim.Second)
	if len(got) != 10 {
		t.Fatalf("delivered %d/10 payloads", len(got))
	}
	for i, p := range got {
		if p[0] != byte(i) {
			t.Fatalf("payload %d out of order", i)
		}
	}
}

func TestMoreDataBatchesInOneEvent(t *testing.T) {
	// 20 queued payloads must move in a handful of connection events, not
	// 20 (the MD flag drives multiple exchanges per event).
	s, _, nodes := newTestNet(4, 0.5, -0.5)
	sub, coord := connectPair(t, s, nodes[0], nodes[1], params75())
	delivered := 0
	var doneAt sim.Time
	sub.OnData = DataFunc(func(_ LLID, _ []byte, _ uint64) {
		delivered++
		if delivered == 20 {
			doneAt = s.Now()
		}
	})
	start := s.Now()
	for i := 0; i < 20; i++ {
		if !coord.SendBuf(LLIDDataStart, pktbuf.FromBytes(make([]byte, 100)), 0) {
			t.Fatalf("Send %d rejected (pool)", i)
		}
	}
	s.Run(s.Now() + 5*sim.Second)
	if delivered != 20 {
		t.Fatalf("delivered %d/20", delivered)
	}
	elapsed := doneAt - start
	if elapsed > 5*75*sim.Millisecond {
		t.Fatalf("20 payloads took %v — MD batching not effective", elapsed)
	}
}

// TestEachPayloadAckedOnce: every payload is acknowledged exactly once, and
// its acknowledgement is what returns its bytes to the controller's pool.
func TestEachPayloadAckedOnce(t *testing.T) {
	s, _, nodes := newTestNet(5, 0, 0)
	_, coord := connectPair(t, s, nodes[0], nodes[1], params75())
	base, free := coord.Stats().TXUnique, coord.PoolFree()
	for i := 0; i < 5; i++ {
		if !coord.SendBuf(LLIDDataStart, pktbuf.FromBytes([]byte{byte(i)}), 0) {
			t.Fatalf("Send %d rejected", i)
		}
	}
	if got := coord.PoolFree(); got != free-5 {
		t.Fatalf("pool free = %d with five 1-byte payloads queued, want %d", got, free-5)
	}
	s.Run(s.Now() + 2*sim.Second)
	if acks := coord.Stats().TXUnique - base; acks != 5 {
		t.Fatalf("acks = %d, want 5", acks)
	}
	if coord.QueueLen() != 0 || coord.PoolFree() != free {
		t.Fatalf("after the acks: %d queued, pool free %d, want 0 and %d", coord.QueueLen(), coord.PoolFree(), free)
	}
}

func TestReliabilityUnderNoise(t *testing.T) {
	// With 20% random packet corruption the SN/NESN scheme must still
	// deliver everything exactly once, in order.
	s, m, nodes := newTestNet(6, 2, -2)
	m.AddInterference(phy.RandomNoise{PER: 0.2})
	sub, coord := connectPair(t, s, nodes[0], nodes[1], params75())
	var got []byte
	sub.OnData = DataFunc(func(_ LLID, p []byte, _ uint64) { got = append(got, p[0]) })
	for i := 0; i < 30; i++ {
		if !coord.SendBuf(LLIDDataStart, pktbuf.FromBytes([]byte{byte(i)}), 0) {
			t.Fatalf("Send %d rejected", i)
		}
	}
	s.Run(s.Now() + 30*sim.Second)
	if len(got) != 30 {
		t.Fatalf("delivered %d/30 under noise", len(got))
	}
	for i, b := range got {
		if b != byte(i) {
			t.Fatalf("out of order or duplicated at %d: %d", i, b)
		}
	}
	if coord.Stats().Retrans == 0 {
		t.Fatal("expected retransmissions under 20% PER")
	}
}

func TestSupervisionTimeoutOnDeadPeer(t *testing.T) {
	s, _, nodes := newTestNet(7, 0, 0)
	sub, coord := connectPair(t, s, nodes[0], nodes[1], params75())
	var reason LossReason
	lostAt := sim.Time(0)
	upcalls(nodes[1].ctrl).Down = func(_ *Conn, r LossReason) { reason = r; lostAt = s.Now() }
	// Subordinate dies silently (battery out): force-terminate without
	// the TERMINATE_IND handshake.
	s.After(sim.Second, func() { sub.forceDrop() })
	killAt := s.Now() + sim.Second
	s.Run(s.Now() + 10*sim.Second)
	if lostAt == 0 {
		t.Fatal("coordinator never noticed the dead peer")
	}
	if reason != LossSupervision {
		t.Fatalf("loss reason = %v, want supervision-timeout", reason)
	}
	sup := coord.Params().Supervision
	if lostAt < killAt+sup/2 || lostAt > killAt+sup+sim.Second {
		t.Fatalf("supervision fired at %v after kill, timeout is %v", lostAt-killAt, sup)
	}
}

func TestGracefulClose(t *testing.T) {
	s, _, nodes := newTestNet(8, 0, 0)
	sub, coord := connectPair(t, s, nodes[0], nodes[1], params75())
	var subReason, coordReason LossReason
	subLost, coordLost := false, false
	upcalls(nodes[0].ctrl).Down = func(_ *Conn, r LossReason) { subReason = r; subLost = true }
	upcalls(nodes[1].ctrl).Down = func(_ *Conn, r LossReason) { coordReason = r; coordLost = true }
	s.After(sim.Second, coord.Close)
	s.Run(s.Now() + 3*sim.Second)
	if !subLost || !coordLost {
		t.Fatalf("close not propagated: sub=%v coord=%v", subLost, coordLost)
	}
	if subReason != LossPeerTerminated {
		t.Fatalf("subordinate reason = %v, want peer-terminated", subReason)
	}
	if coordReason != LossHostTerminated {
		t.Fatalf("coordinator reason = %v, want host-terminated", coordReason)
	}
	if !sub.Closed() || !coord.Closed() {
		t.Fatal("conns not marked closed")
	}
}

func TestPoolExhaustionRejectsSend(t *testing.T) {
	s, _, nodes := newTestNet(9, 0, 0)
	_, coord := connectPair(t, s, nodes[0], nodes[1], params75())
	// Pool is 6600 bytes; stuff it with 100-byte payloads while the
	// radio can't drain them that fast.
	accepted := 0
	for i := 0; i < 100; i++ {
		if coord.SendBuf(LLIDDataStart, pktbuf.FromBytes(make([]byte, 100)), 0) {
			accepted++
		}
	}
	if accepted >= 100 {
		t.Fatal("pool never exhausted")
	}
	if accepted < 60 || accepted > 66 {
		t.Fatalf("accepted %d 100-byte payloads into a 6600-byte pool", accepted)
	}
	if nodes[1].ctrl.Events().PoolExhausted == 0 {
		t.Fatal("PoolExhausted counter not bumped")
	}
	// Draining the queue must free the pool again.
	s.Run(s.Now() + 10*sim.Second)
	if !coord.SendBuf(LLIDDataStart, pktbuf.FromBytes(make([]byte, 100)), 0) {
		t.Fatal("pool not freed after drain")
	}
}

func TestConnectionParameterUpdate(t *testing.T) {
	s, _, nodes := newTestNet(10, 2, -2)
	sub, coord := connectPair(t, s, nodes[0], nodes[1], params75())
	if err := sub.UpdateParams(100*sim.Millisecond, 0, 0); err == nil {
		t.Fatal("subordinate-side update must be rejected")
	}
	if err := coord.UpdateParams(100*sim.Millisecond, 0, 2*sim.Second); err != nil {
		t.Fatalf("UpdateParams: %v", err)
	}
	lost := false
	upcalls(nodes[0].ctrl).Down = func(*Conn, LossReason) { lost = true }
	upcalls(nodes[1].ctrl).Down = func(*Conn, LossReason) { lost = true }
	s.Run(s.Now() + 10*sim.Second)
	if lost {
		t.Fatal("connection died across parameter update")
	}
	if coord.Interval() != 100*sim.Millisecond || sub.Interval() != 100*sim.Millisecond {
		t.Fatalf("interval after update: coord=%v sub=%v", coord.Interval(), sub.Interval())
	}
	// Both sides must keep exchanging at the new cadence.
	before := sub.Stats().EventsOK
	s.Run(s.Now() + 5*sim.Second)
	gained := sub.Stats().EventsOK - before
	if gained < 40 || gained > 55 {
		t.Fatalf("serviced %d events in 5s at 100ms interval, want ~50", gained)
	}
}

func TestSetupChannelMapExcludesChannel(t *testing.T) {
	// The paper leaves the jammed channel 22 out of the map the connection
	// is set up with; neither side may ever hop there.
	s, _, nodes := newTestNet(11, 1, -1)
	nodes[0].ctrl.CountChannels()
	nodes[1].ctrl.CountChannels()
	p := params75()
	p.ChanMap = AllDataChannels.WithoutChannel(22)
	sub, coord := connectPair(t, s, nodes[0], nodes[1], p)
	s.Run(s.Now() + 25*sim.Second)
	if tx := coord.ChannelCounts().TX[22] + sub.ChannelCounts().TX[22]; tx != 0 {
		t.Fatalf("%d transmissions on excluded channel 22", tx)
	}
	if sub.Params().ChanMap.Used(22) {
		t.Fatal("subordinate did not take the coordinator's channel map")
	}
	if coord.ChannelCounts().TX[21] == 0 || coord.ChannelCounts().TX[23] == 0 {
		t.Fatal("the neighbouring channels were never used; the run lost its coverage")
	}
	if coord.Closed() || sub.Closed() {
		t.Fatal("connection died")
	}
}

func TestSubordinateLatencySkipsEvents(t *testing.T) {
	p := ConnParams{Interval: 75 * sim.Millisecond, Latency: 3, Supervision: 3 * sim.Second}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	s, _, nodes := newTestNet(12, 1, -1)
	sub, _ := connectPair(t, s, nodes[0], nodes[1], p)
	s.Run(s.Now() + 20*sim.Second)
	st := sub.Stats()
	attended := st.EventsOK + st.EventsEmpty + st.EventsSkipped
	if st.EventsPlanned == 0 {
		t.Fatal("no events planned")
	}
	ratio := float64(attended) / float64(st.EventsPlanned)
	if ratio > 0.35 {
		t.Fatalf("subordinate attended %.0f%% of events with latency 3, want ~25%%", ratio*100)
	}
	if sub.Closed() {
		t.Fatal("connection with subordinate latency died")
	}
}

func TestJammedChannelDegradesButDoesNotKill(t *testing.T) {
	s, m, nodes := newTestNet(13, 2, -2)
	m.AddInterference(phy.Jammer{Ch: 22})
	nodes[1].ctrl.CountChannels()
	sub, coord := connectPair(t, s, nodes[0], nodes[1], params75())
	delivered := 0
	sub.OnData = DataFunc(func(_ LLID, _ []byte, _ uint64) { delivered++ })
	for i := 0; i < 50; i++ {
		i := i
		s.After(sim.Duration(i)*200*sim.Millisecond, func() {
			coord.SendBuf(LLIDDataStart, pktbuf.FromBytes([]byte{byte(i)}), 0)
		})
	}
	s.Run(s.Now() + 30*sim.Second)
	if delivered != 50 {
		t.Fatalf("delivered %d/50 with one jammed channel", delivered)
	}
	// 1/37 of events land on channel 22 and must fail there.
	if coord.ChannelCounts().OK[22] != 0 {
		t.Fatal("packets 'succeeded' on the jammed channel")
	}
}

// TestChannelCountsConservation: with counting on, the per-channel counters
// split TXPDUs and RXPDUs by channel exactly, and a jammed channel records
// transmissions but no reception; with counting off a connection has no
// counters, and opening one allocates nothing for them.
func TestChannelCountsConservation(t *testing.T) {
	s, m, nodes := newTestNet(14, 2, -2)
	m.AddInterference(phy.Jammer{Ch: 22})
	m.AddInterference(phy.RandomNoise{PER: 0.005})
	for _, n := range nodes {
		n.ctrl.CountChannels()
	}
	sub, coord := connectPair(t, s, nodes[0], nodes[1], params75())
	for i := 0; i < 200; i++ {
		s.After(sim.Duration(i)*100*sim.Millisecond, func() {
			coord.SendBuf(LLIDDataStart, pktbuf.FromBytes(make([]byte, 40)), 0)
			sub.SendBuf(LLIDDataStart, pktbuf.FromBytes(make([]byte, 40)), 0)
		})
	}
	s.Run(s.Now() + 30*sim.Second)
	for _, c := range []*Conn{sub, coord} {
		cc, st := c.ChannelCounts(), c.Stats()
		if cc == nil {
			t.Fatalf("%v: no channel counts with counting on", c)
		}
		var tx, ok uint64
		for ch := 0; ch < NumDataChannels; ch++ {
			tx += uint64(cc.TX[ch])
			ok += uint64(cc.OK[ch])
		}
		if tx != st.TXPDUs || ok != st.RXPDUs {
			t.Errorf("%v: Σ TX %d, Σ OK %d; want TXPDUs %d, RXPDUs %d", c, tx, ok, st.TXPDUs, st.RXPDUs)
		}
		if cc.OK[22] != 0 {
			t.Errorf("%v: %d receptions on the jammed channel 22", c, cc.OK[22])
		}
		if st.RXCorrupt == 0 {
			t.Errorf("%v: no corrupted reception under noise and a jammer", c)
		}
	}
	if coord.ChannelCounts().TX[22] == 0 {
		t.Error("the coordinator never transmitted on channel 22: the jammer was not exercised")
	}

	s2, _, plain := newTestNet(15, 1, -1)
	psub, pcoord := connectPair(t, s2, plain[0], plain[1], params75())
	if psub.ChannelCounts() != nil || pcoord.ChannelCounts() != nil {
		t.Error("a connection of a controller that does not count channels has channel counts")
	}
	off, on := newConnAllocs(false), newConnAllocs(true)
	if on != off+1 {
		t.Errorf("newConn allocations: %v counting, %v not; want exactly the ChannelCounts between them", on, off)
	}
}

// newConnAllocs returns the allocations of one newConn on a fresh
// controller, counting channels or not.
func newConnAllocs(count bool) float64 {
	s := sim.New(1)
	ctrl := NewController(s, sim.NewClock(s, 0), phy.NewMedium(s).NewRadio(), ControllerConfig{Addr: 1})
	if count {
		ctrl.CountChannels()
	}
	p := params75()
	return testing.AllocsPerRun(50, func() {
		newConn(ctrl, Coordinator, 2, p, 0x50654321, s.Now()+sim.Millisecond)
	})
}

// forceDrop kills a connection endpoint silently — the test double for a
// node losing power. (No TERMINATE_IND is sent; the peer must discover the
// loss through its supervision timeout.)
func (c *Conn) forceDrop() {
	c.terminate(LossHostTerminated)
}

func TestAdvertisingStopsAfterHostRequest(t *testing.T) {
	s, _, nodes := newTestNet(31, 0, 0)
	a := nodes[0].ctrl
	a.StartAdvertising(AdvParams{Interval: 50 * sim.Millisecond})
	s.Run(s.Now() + sim.Second)
	before := a.Events().AdvEvents
	if before == 0 {
		t.Fatal("no advertising events")
	}
	a.StopAdvertising()
	s.Run(s.Now() + sim.Second)
	after := a.Events().AdvEvents
	// At most one in-flight event may finish after the stop request.
	if after > before+1 {
		t.Fatalf("advertising continued after stop: %d -> %d", before, after)
	}
	// Restarting works.
	a.StartAdvertising(AdvParams{Interval: 50 * sim.Millisecond})
	s.Run(s.Now() + sim.Second)
	if a.Events().AdvEvents <= after {
		t.Fatal("advertising did not restart")
	}
}

// TestAdvertisingRestartsMidEvent stops and restarts advertising while its
// first ADV_IND is on the air — and once more with the event pre-empted
// between the stop and the restart. Advertising must go on, with one
// advertising activity registered: a second one, with the first still
// holding the radio, would leave the radio owned for good.
func TestAdvertisingRestartsMidEvent(t *testing.T) {
	for _, preempt := range []bool{false, true} {
		t.Run(fmt.Sprintf("preempt=%v", preempt), func(t *testing.T) {
			s, _, nodes := newTestNet(35, 0)
			a := nodes[0].ctrl
			p := AdvParams{Interval: 50 * sim.Millisecond}
			a.StartAdvertising(p)
			for a.radio.State() != phy.RadioTX {
				s.Run(s.Now() + 5*sim.Microsecond)
			}
			a.StopAdvertising()
			if preempt {
				// A second activity blocked once by the advertising event
				// takes the radio from it under alternating arbitration.
				a.sched.mode = ArbitrateAlternate
				other := &Activity{blockedBy: a.form.advAct}
				a.sched.Register(other)
				if _, ok := a.sched.Acquire(other, s.Now()+sim.Millisecond); !ok {
					t.Fatal("the second activity did not pre-empt the advertising event")
				}
				a.sched.Release(other)
				a.sched.Unregister(other)
			}
			a.StartAdvertising(p)
			before := a.Events().AdvEvents
			s.Run(s.Now() + 2*sim.Second)
			if got := a.Events().AdvEvents - before; got < 20 {
				t.Errorf("%d advertising events in the 2 s after the restart, want about 40", got)
			}
			if n := len(a.sched.acts); n != 1 {
				t.Errorf("%d activities registered, want the one advertising activity", n)
			}
		})
	}
}

func TestRequestParamsFromSubordinate(t *testing.T) {
	s, _, nodes := newTestNet(32, 1, -1)
	sub, coord := connectPair(t, s, nodes[0], nodes[1], params75())
	if err := coord.RequestParams(100 * sim.Millisecond); err == nil {
		t.Fatal("coordinator-side RequestParams must be rejected")
	}
	// Accepting handler: the interval changes on both sides.
	upcalls(coord.ctrl).Param = func(_ *Conn, iv sim.Duration) bool { return iv == 100*sim.Millisecond }
	if err := sub.RequestParams(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Run(s.Now() + 5*sim.Second)
	if coord.Interval() != 100*sim.Millisecond || sub.Interval() != 100*sim.Millisecond {
		t.Fatalf("intervals after accepted request: %v / %v", coord.Interval(), sub.Interval())
	}
	// Rejecting handler: nothing changes, connection survives.
	upcalls(coord.ctrl).Param = func(*Conn, sim.Duration) bool { return false }
	if err := sub.RequestParams(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Run(s.Now() + 5*sim.Second)
	if coord.Interval() != 100*sim.Millisecond {
		t.Fatalf("rejected request changed the interval to %v", coord.Interval())
	}
	if coord.Closed() || sub.Closed() {
		t.Fatal("connection died across a rejected parameter request")
	}
}

// A Conn is allocated per link end and lives as long as the link, so the
// size class it lands in is paid 16 500 times by the formed 10k city. It was
// 1 232 B (the 1 280 B class), then 936 B with 32-bit per-channel counters;
// without per-link closures, with its Activity inline and the scratch PDU on
// the controller it fits 768 B; with the parameter-request decision a
// ConnHandler method instead of a func field, 432 B, inside Go's 448 B size
// class. Growing past that costs 32 B more per connection: shrink something
// else first.
func TestConnFitsSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Conn{}); sz > 448 {
		t.Fatalf("unsafe.Sizeof(Conn{}) = %d, over the 448 B size class (ConnStats is %d of it)",
			sz, unsafe.Sizeof(ConnStats{}))
	} else {
		t.Logf("unsafe.Sizeof(Conn{}) = %d, ConnStats %d", sz, unsafe.Sizeof(ConnStats{}))
	}
}

// A Controller is allocated per node and carries the scratch PDU its
// connections share. Its advertising and scanning state lives in formation,
// held only while the controller forms links, so it is 480 B, a size class
// of its own; the next is 512 B.
func TestControllerFitsSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Controller{}); sz > 480 {
		t.Fatalf("unsafe.Sizeof(Controller{}) = %d, over the 480 B size class (Scheduler %d, DataPDU %d of it)",
			sz, unsafe.Sizeof(Scheduler{}), unsafe.Sizeof(DataPDU{}))
	} else {
		t.Logf("unsafe.Sizeof(Controller{}) = %d", sz)
	}
}

// TestFormedControllerDropsFormationState: once both ends of a link have
// stopped advertising and scanning, neither controller holds formation
// state; advertising again allocates it, and stopping drops it again.
func TestFormedControllerDropsFormationState(t *testing.T) {
	s, _, nodes := newTestNet(34, 0, 0)
	connectPair(t, s, nodes[0], nodes[1], params75())
	for _, n := range nodes {
		if n.ctrl.form != nil {
			t.Fatalf("%v holds formation state on a formed link", n.ctrl)
		}
	}
	ctrl := nodes[0].ctrl
	ctrl.StartAdvertising(AdvParams{Interval: 30 * sim.Millisecond})
	s.Run(s.Now() + 200*sim.Millisecond)
	if ctrl.form == nil || ctrl.Events().AdvEvents == 0 {
		t.Fatalf("advertising without formation state (%d advertising events)", ctrl.Events().AdvEvents)
	}
	ctrl.StopAdvertising()
	s.Run(s.Now() + 200*sim.Millisecond)
	if ctrl.form != nil {
		t.Fatal("formation state survives the end of advertising")
	}
}

// TestConnHoldsNoCallbacks: every event a link end arms is a method of a
// type declared over Conn, its data upcall is an interface L2CAP implements
// with its endpoint, and a parameter request goes to its controller's
// ConnHandler, so a Conn holds no func value. A func field — directly or
// inside a struct field — is one more heap object per link end for the
// garbage collector to mark. The same holds for the payloads queued in its
// LL ring: a queued item is its buffer, whose Put is its completion, so it
// carries no completion callback either.
func TestConnHoldsNoCallbacks(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := path + f.Name
			switch f.Type.Kind() {
			case reflect.Func:
				t.Errorf("%s is a func (%v): make it a handler type declared over Conn, or let a buffer's Put complete it", name, f.Type)
			case reflect.Struct:
				walk(name+".", f.Type)
			}
		}
	}
	walk("Conn.", reflect.TypeOf(Conn{}))
	walk("txItem.", reflect.TypeOf(txItem{}))
}

// TestRemovedConnIsUnreachable: the controller's connection table, its
// scheduler's activity list and its scratch PDU must not keep a terminated
// link reachable. The newest of three connections is the one a plain
// append-delete leaves behind the slice length, and with the Activity inside
// the Conn a stale activity pointer would hold the whole Conn and its queue.
func TestRemovedConnIsUnreachable(t *testing.T) {
	s, _, nodes := newTestNet(33, 0, 0, 0, 0)
	hub := nodes[3]
	var newest *Conn
	for _, n := range nodes[:3] {
		_, newest = connectPair(t, s, n, hub, params75())
	}
	if got := len(hub.ctrl.conns); got != 3 {
		t.Fatalf("hub has %d connections, want 3", got)
	}
	payload := []byte{1, 2, 3, 4}
	if !newest.SendBuf(LLIDDataStart, pktbuf.FromBytes(payload), 0) {
		t.Fatal("Send rejected")
	}
	for deadline := s.Now() + sim.Second; hub.ctrl.scratch.from != newest || len(hub.ctrl.scratch.Payload) == 0; {
		if s.Now() >= deadline {
			t.Fatal("the newest connection never put its payload in the controller's scratch PDU")
		}
		s.Run(s.Now() + 10*sim.Microsecond)
	}
	newest.Kill()
	conns, acts := hub.ctrl.conns, hub.ctrl.sched.acts
	if len(conns) != 2 || len(acts) != 2 {
		t.Fatalf("after Kill: %d connections, %d activities; want 2, 2", len(conns), len(acts))
	}
	for _, c := range conns[len(conns):cap(conns)] {
		if c == newest {
			t.Error("the terminated Conn stays in the connection table behind its length")
		}
	}
	for _, a := range acts[len(acts):cap(acts)] {
		if a == &newest.act {
			t.Error("the terminated Conn's Activity stays in the scheduler behind its length")
		}
	}
	if sc := &hub.ctrl.scratch; sc.from == newest || (len(sc.Payload) > 0 && &sc.Payload[0] == &payload[0]) {
		t.Error("the controller's scratch PDU still points at the terminated Conn or its payload")
	}
}
