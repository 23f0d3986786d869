package core

import (
	"math"
	"testing"

	"blemesh/internal/ble"
	"blemesh/internal/coap"
	"blemesh/internal/ip6"
	"blemesh/internal/phy"
	"blemesh/internal/rpl"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
)

// buildLine assembles a line topology n0 — n1 — ... — n(k-1) where each
// node i>0 coordinates the connection to node i-1 (paper Fig. 6c style) and
// routes are installed toward both ends.
func buildLine(t *testing.T, s *sim.Sim, k int, policy statconn.IntervalPolicy, ppm func(i int) float64) []*Node {
	t.Helper()
	medium := phy.NewMedium(s)
	nodes := make([]*Node, k)
	for i := 0; i < k; i++ {
		nodes[i] = NewNode(s, medium, NodeConfig{
			Name:     nodeName(i),
			MAC:      uint64(0x5A0000000000 + i + 1),
			ClockPPM: ppm(i),
			SCA:      50,
			Statconn: statconn.Config{Policy: policy},
		})
	}
	// Links: node i advertises, node i+1 connects.
	for i := 0; i < k-1; i++ {
		nodes[i].AcceptInbound(1)
		nodes[i+1].ConnectTo(nodes[i])
	}
	// Routes: toward node 0 and toward node k-1 along the line.
	for i := range nodes {
		for j := range nodes {
			if i == j {
				continue
			}
			next := i - 1
			if j > i {
				next = i + 1
			}
			nodes[i].AddHostRoute(nodes[j], nodes[next])
		}
	}
	return nodes
}

func nodeName(i int) string { return string(rune('A' + i)) }

func waitLinks(t *testing.T, s *sim.Sim, nodes []*Node, wantLinks int) {
	t.Helper()
	deadline := s.Now() + 30*sim.Second
	for s.Now() < deadline {
		total := 0
		for _, n := range nodes {
			total += len(n.NetIf.Links())
		}
		if total >= wantLinks*2 { // both endpoints count the link
			return
		}
		s.Run(s.Now() + 100*sim.Millisecond)
	}
	t.Fatalf("topology did not form within 30s")
}

func TestTwoNodeCoAPExchange(t *testing.T) {
	s := sim.New(1)
	nodes := buildLine(t, s, 2, statconn.Static{Interval: 75 * sim.Millisecond},
		func(i int) float64 { return []float64{1.5, -2}[i] })
	waitLinks(t, s, nodes, 1)
	server, client := nodes[0], nodes[1]
	server.Coap.Handler = func(_ ip6.Addr, req *coap.Message) *coap.Message {
		return &coap.Message{Type: coap.ACK, Code: coap.CodeValid}
	}
	var rtt sim.Duration
	ok := false
	req := &coap.Message{Type: coap.NON, Code: coap.CodeGET, Payload: make([]byte, 39)}
	req.SetPath("sensor")
	if err := client.Coap.Request(server.Addr(), req, func(m *coap.Message, d sim.Duration, _ error) {
		ok = m != nil
		rtt = d
	}); err != nil {
		t.Fatal(err)
	}
	s.Run(s.Now() + 5*sim.Second)
	if !ok {
		t.Fatal("no CoAP response over the BLE link")
	}
	// One hop each way at a 75ms interval: the RTT must be below ~2
	// intervals plus scheduling jitter.
	if rtt > 200*sim.Millisecond {
		t.Fatalf("single-hop RTT = %v", rtt)
	}
	if rtt < sim.Millisecond {
		t.Fatalf("implausibly small RTT %v", rtt)
	}
}

func TestMultiHopForwarding(t *testing.T) {
	s := sim.New(2)
	// 5 nodes, 4 hops; small drifts. Randomized intervals so that the
	// middle nodes' two same-interval connections cannot shade each
	// other and every NON request survives.
	nodes := buildLine(t, s, 5, statconn.Random{Min: 50 * sim.Millisecond, Max: 60 * sim.Millisecond},
		func(i int) float64 { return float64(i-2) * 1.5 })
	waitLinks(t, s, nodes, 4)
	server, client := nodes[0], nodes[4]
	server.Coap.Handler = func(_ ip6.Addr, req *coap.Message) *coap.Message {
		return &coap.Message{Type: coap.ACK, Code: coap.CodeValid}
	}
	delivered := 0
	var rtts []sim.Duration
	for i := 0; i < 20; i++ {
		i := i
		s.After(sim.Duration(i)*500*sim.Millisecond, func() {
			req := &coap.Message{Type: coap.NON, Code: coap.CodeGET, Payload: make([]byte, 39)}
			req.SetPath("sensor")
			client.Coap.Request(server.Addr(), req, func(m *coap.Message, d sim.Duration, _ error) {
				if m != nil {
					delivered++
					rtts = append(rtts, d)
				}
			})
		})
	}
	s.Run(s.Now() + 30*sim.Second)
	if delivered != 20 {
		t.Fatalf("delivered %d/20 over 4 hops", delivered)
	}
	// Intermediate nodes must actually forward.
	if f := nodes[2].Stack.Stats().Forwarded; f < 40 {
		t.Fatalf("middle node forwarded %d packets, want ≥ 40", f)
	}
	// 4 hops each way at 50ms: mean RTT should be in the hundreds of ms.
	var mean float64
	for _, r := range rtts {
		mean += r.Seconds()
	}
	mean /= float64(len(rtts))
	if mean > 0.5 {
		t.Fatalf("mean 4-hop RTT %.3fs too large", mean)
	}
}

func TestStatconnReconnectsAfterShadingLoss(t *testing.T) {
	// A 3-node fork: hub B subordinate for two coordinators A and C with
	// identical intervals and strong opposite drift. Shading kills a
	// link; statconn must re-establish it and traffic must keep flowing.
	s := sim.New(3)
	medium := phy.NewMedium(s)
	mk := func(name string, mac uint64, ppm float64) *Node {
		return NewNode(s, medium, NodeConfig{
			Name: name, MAC: mac, ClockPPM: ppm, SCA: 250,
			Statconn: statconn.Config{
				Policy:      statconn.Static{Interval: 75 * sim.Millisecond},
				Supervision: 750 * sim.Millisecond,
			},
		})
	}
	hub := mk("hub", 0xB0, 0)
	a := mk("a", 0xA0, +125)
	c := mk("c", 0xC0, -125)
	hub.AcceptInbound(2)
	a.ConnectTo(hub)
	c.ConnectTo(hub)
	s.Run(s.Now() + 10*sim.Second)

	losses := 0
	for _, n := range []*Node{hub, a, c} {
		losses += int(n.Statconn.Stats().SupervisionLoss)
	}
	s.Run(s.Now() + 900*sim.Second)
	lossesAfter := 0
	reopened := 0
	for _, n := range []*Node{hub, a, c} {
		lossesAfter += int(n.Statconn.Stats().SupervisionLoss)
		reopened += int(n.Statconn.Stats().Reconnects)
	}
	if lossesAfter == losses {
		t.Fatal("no shading loss in 900s with static equal intervals and ±125ppm")
	}
	if reopened == 0 {
		t.Fatal("statconn never reconnected after loss")
	}
	// Both links must be up again at the end.
	if len(hub.NetIf.Links()) != 2 {
		t.Fatalf("hub has %d links after recovery, want 2", len(hub.NetIf.Links()))
	}
}

func TestRandomPolicyKeepsIntervalsUniquePerNode(t *testing.T) {
	s := sim.New(4)
	medium := phy.NewMedium(s)
	policy := statconn.Random{Min: 65 * sim.Millisecond, Max: 85 * sim.Millisecond}
	var nodes []*Node
	for i := 0; i < 4; i++ {
		nodes = append(nodes, NewNode(s, medium, NodeConfig{
			Name: nodeName(i), MAC: uint64(0x700 + i), ClockPPM: float64(i) - 1.5,
			Statconn: statconn.Config{Policy: policy},
		}))
	}
	// Star: nodes 1..3 all coordinate to hub 0.
	nodes[0].AcceptInbound(3)
	for i := 1; i < 4; i++ {
		nodes[i].ConnectTo(nodes[0])
	}
	s.Run(s.Now() + 60*sim.Second)
	conns := nodes[0].Ctrl.Conns()
	if len(conns) != 3 {
		t.Fatalf("hub has %d connections, want 3", len(conns))
	}
	seen := map[sim.Duration]bool{}
	for _, c := range conns {
		iv := c.Interval()
		if iv < 65*sim.Millisecond || iv > 85*sim.Millisecond {
			t.Fatalf("interval %v outside [65:85]ms", iv)
		}
		if iv%ble.ConnIntervalUnit != 0 {
			t.Fatalf("interval %v not a 1.25ms multiple", iv)
		}
		if seen[iv] {
			t.Fatalf("duplicate interval %v on one node", iv)
		}
		seen[iv] = true
	}
}

func TestPktbufOverflowDropsUnderBurst(t *testing.T) {
	// Saturate a single link with far more queued bytes than the 6144-
	// byte pktbuf: the adapter must drop and count, not grow unboundedly.
	s := sim.New(5)
	nodes := buildLine(t, s, 2, statconn.Static{Interval: 500 * sim.Millisecond},
		func(i int) float64 { return 0 })
	waitLinks(t, s, nodes, 1)
	client, server := nodes[1], nodes[0]
	server.Coap.Handler = func(ip6.Addr, *coap.Message) *coap.Message {
		return &coap.Message{Type: coap.ACK, Code: coap.CodeValid}
	}
	sent := 0
	for i := 0; i < 200; i++ {
		req := &coap.Message{Type: coap.NON, Code: coap.CodeGET, Payload: make([]byte, 80)}
		req.SetPath("x")
		if err := client.Coap.Request(server.Addr(), req, nil); err == nil {
			sent++
		}
	}
	if sent >= 200 {
		t.Fatal("no backpressure on a 200-packet burst")
	}
	st := client.NetIf.Stats()
	if st.QueueDrops == 0 {
		t.Fatal("pktbuf overflow not counted")
	}
	if client.Stack.Pktbuf.Peak() > client.Stack.Pktbuf.Capacity {
		t.Fatal("pktbuf exceeded its capacity")
	}
}

func TestShadingModelMatchesPaperNumbers(t *testing.T) {
	// §6.2's worked examples.
	wc := WorstCase()
	if got := wc.TimeToOverlap(); got != 15*sim.Second {
		t.Fatalf("worst-case overlap = %v, want 15s", got)
	}
	if got := wc.EventsPerHour(); math.Abs(got-240) > 1 {
		t.Fatalf("worst-case events/h = %v, want 240", got)
	}
	typ := PaperTypical()
	if got := typ.TimeToOverlap().Seconds() / 3600; math.Abs(got-4.17) > 0.01 {
		t.Fatalf("typical overlap = %.3fh, want 4.17h", got)
	}
	if got := typ.EventsPerHour(); math.Abs(got-0.24) > 0.005 {
		t.Fatalf("typical events/h = %.3f, want 0.24", got)
	}
	// 14 links: 3.4 events/h, 80.6 per 24h.
	perHour := typ.ExpectedEventsPerHourNetwork(14)
	if math.Abs(perHour-3.36) > 0.1 {
		t.Fatalf("network events/h = %.2f, want ≈3.4", perHour)
	}
	if per24h := perHour * 24; math.Abs(per24h-80.6) > 1 {
		t.Fatalf("network events/24h = %.1f, want ≈80.6", per24h)
	}
}

func TestNodeAddressing(t *testing.T) {
	s := sim.New(6)
	medium := phy.NewMedium(s)
	n := NewNode(s, medium, NodeConfig{Name: "n", MAC: 0xABCDEF})
	if mac, ok := n.Addr().MAC(); !ok || mac != 0xABCDEF {
		t.Fatalf("mesh address does not embed MAC: %v", n.Addr())
	}
	if uint64(n.DevAddr()) != 0xABCDEF {
		t.Fatalf("dev addr mismatch")
	}
}

func TestStopRestartRebootsCleanly(t *testing.T) {
	// A three-node line: A — B — C, with B forwarding. Reboot B mid-run
	// and verify (a) all volatile state drops on Stop, (b) the links
	// re-establish and end-to-end traffic flows again after Restart.
	s := sim.New(7)
	nodes := buildLine(t, s, 3, statconn.Static{Interval: 75 * sim.Millisecond},
		func(i int) float64 { return []float64{3, -5, 10}[i] })
	waitLinks(t, s, nodes, 2)
	a, b, c := nodes[0], nodes[1], nodes[2]
	a.Coap.Handler = func(ip6.Addr, *coap.Message) *coap.Message {
		return &coap.Message{Type: coap.ACK, Code: coap.CodeValid}
	}

	exchange := func() bool {
		got := false
		req := &coap.Message{Type: coap.NON, Code: coap.CodeGET, Payload: make([]byte, 39)}
		req.SetPath("sensor")
		c.Coap.Request(a.Addr(), req, func(m *coap.Message, _ sim.Duration, _ error) {
			got = m != nil
		})
		s.Run(s.Now() + 5*sim.Second)
		return got
	}
	if !exchange() {
		t.Fatal("no end-to-end exchange before the reboot")
	}

	b.Stop()
	if b.Running() {
		t.Fatal("Stop left the node running")
	}
	if got := len(b.NetIf.Links()); got != 0 {
		t.Fatalf("stopped node still has %d links", got)
	}
	if got := b.Stack.Pktbuf.Used(); got != 0 {
		t.Fatalf("stopped node still holds %d pktbuf bytes", got)
	}
	if got := len(b.Ctrl.Conns()); got != 0 {
		t.Fatalf("stopped node still has %d BLE connections", got)
	}
	// While B is down, the end-to-end path must be broken.
	if exchange() {
		t.Fatal("exchange succeeded through a crashed router")
	}
	// Let the neighbors notice the loss (supervision timeouts) and churn.
	s.Run(s.Now() + 10*sim.Second)

	b.Restart()
	if !b.Running() {
		t.Fatal("Restart left the node stopped")
	}
	// The static links must re-establish and traffic must flow again.
	recovered := false
	deadline := s.Now() + 60*sim.Second
	for s.Now() < deadline {
		if len(b.NetIf.Links()) == 2 && exchange() {
			recovered = true
			break
		}
		s.Run(s.Now() + 500*sim.Millisecond)
	}
	if !recovered {
		t.Fatal("network did not recover after the reboot")
	}
}

// TestRemovedLinkIsUnreachable: the adapter's neighbor table must not keep a
// dead link reachable behind its length — with it its L2CAP endpoint,
// channel, ATT mux and queue. Killing a node's only link empties the table,
// which is the case a plain append-delete leaves the entry behind in.
func TestRemovedLinkIsUnreachable(t *testing.T) {
	s := sim.New(4)
	nodes := buildLine(t, s, 2, statconn.Static{Interval: 75 * sim.Millisecond},
		func(i int) float64 { return []float64{1, -1}[i] })
	waitLinks(t, s, nodes, 1)
	netif := nodes[1].NetIf
	if len(netif.links) != 1 {
		t.Fatalf("%d links, want 1", len(netif.links))
	}
	dead := netif.links[0]
	dead.conn.Kill()
	if len(netif.links) != 0 {
		t.Fatalf("after Kill: %d links, want 0", len(netif.links))
	}
	for _, l := range netif.links[:cap(netif.links)] {
		if l == dead {
			t.Error("the dead link stays in the neighbor table behind its length")
		}
	}
}

// TestStoppedNodeLeavesNoEvent: a node stopped while its radio is idle
// cancels every event its own layers armed — the RPL DAO refresh, sweep and
// trickle timers, statconn's re-dial backoff, the controller's advertising
// and scanning steps, the connections' events. The only events that stay
// queued are statconn's link-quality samplers, one per dynamic node: they
// model the observer, like the statistics a stop keeps, and run on a fixed
// cadence from the node's construction. Both ends of a formed RPL link are
// stopped, restarted and stopped again at once, which catches the timers
// the restart armed as well.
func TestStoppedNodeLeavesNoEvent(t *testing.T) {
	s := sim.New(9)
	medium := phy.NewMedium(s)
	nodes := make([]*Node, 2)
	for i := range nodes {
		nodes[i] = NewNode(s, medium, NodeConfig{
			Name:     nodeName(i),
			MAC:      uint64(0x5A0000000000 + i + 1),
			SCA:      50,
			Statconn: statconn.Config{Policy: statconn.Static{Interval: 75 * sim.Millisecond}},
			Routing:  &rpl.Config{Root: i == 0},
		})
	}
	nodes[0].AcceptInbound(1)
	nodes[1].ConnectTo(nodes[0])
	waitLinks(t, s, nodes, 1)
	for deadline := s.Now() + 30*sim.Second; !nodes[1].RPL.Joined(); s.Run(s.Now() + 100*sim.Millisecond) {
		if s.Now() >= deadline {
			t.Fatal("the non-root node did not join the DODAG within 30s")
		}
	}
	for deadline := s.Now() + sim.Second; nodes[0].Radio.State() != phy.RadioIdle || nodes[1].Radio.State() != phy.RadioIdle; s.Run(s.Now() + 10*sim.Microsecond) {
		if s.Now() >= deadline {
			t.Fatal("the radios were never idle together")
		}
	}
	const samplers = 2
	stopAll := func(when string) {
		t.Helper()
		for _, n := range nodes {
			n.Stop()
		}
		if got := s.Pending(); got != samplers {
			t.Errorf("%s: %d events queued, want the %d link-quality samplers", when, got, samplers)
		}
	}
	stopAll("stopped while formed")
	for _, n := range nodes {
		n.Restart()
	}
	stopAll("stopped again right after a restart")
}
