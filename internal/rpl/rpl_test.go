package rpl

import (
	"testing"

	"blemesh/internal/ip6"
	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
)

// testNode is one simulated node: a stack, an instance, and a fake netif
// that delivers packets to peers after a small fixed latency.
type testNode struct {
	mac   uint64
	stack *ip6.Stack
	inst  *Instance
	ifc   *fakeIf
}

type fakeIf struct {
	s         *sim.Sim
	peers     map[uint64]*testNode
	outs      map[uint64]int
	delivered map[uint64]int
}

func (f *fakeIf) Output(mac uint64, b *pktbuf.Buf, pid uint64) bool {
	if f.outs == nil {
		f.outs, f.delivered = map[uint64]int{}, map[uint64]int{}
	}
	f.outs[mac]++
	p, ok := f.peers[mac]
	if !ok {
		b.Put()
		return false
	}
	f.s.Post(2*sim.Millisecond, func() {
		if _, still := f.peers[mac]; !still {
			b.Put()
			return
		}
		f.delivered[mac]++
		p.stack.InputBuf(b, pid)
	})
	return true
}

func (f *fakeIf) HasNeighbor(mac uint64) bool { _, ok := f.peers[mac]; return ok }

func newTestNode(s *sim.Sim, mac uint64, cfg Config) *testNode {
	st := ip6.NewStack(s, mac)
	ifc := &fakeIf{s: s, peers: make(map[uint64]*testNode)}
	st.AddInterface(ifc)
	n := &testNode{mac: mac, stack: st, ifc: ifc, inst: New(s, st, cfg)}
	n.inst.Start()
	return n
}

func connect(a, b *testNode) {
	a.ifc.peers[b.mac] = b
	b.ifc.peers[a.mac] = a
	a.inst.LinkUp(b.mac)
	b.inst.LinkUp(a.mac)
}

func disconnect(a, b *testNode) {
	delete(a.ifc.peers, b.mac)
	delete(b.ifc.peers, a.mac)
	a.inst.LinkDown(b.mac)
	b.inst.LinkDown(a.mac)
}

func TestCodecRoundTrip(t *testing.T) {
	msgs := []Message{
		{Type: TypeDIO, Version: 7, Rank: 512, Root: ip6.ULA(ip6.DefaultPrefix, 0x5A0000000001)},
		{Type: TypeDIO, Flags: 0x80, Version: 0xFFFF, Rank: RankInfinite},
		{Type: TypeDAO, Seq: 9, Target: ip6.ULA(ip6.DefaultPrefix, 0x5A0000000005)},
		{Type: TypeDIS},
		{Type: TypeDIS, Flags: 1},
	}
	for _, m := range msgs {
		b := m.Encode()
		got, err := DecodeMessage(b)
		if err != nil {
			t.Fatalf("decode(%+v): %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip: sent %+v got %+v", m, got)
		}
		b2 := got.Encode()
		if string(b2) != string(b) {
			t.Fatalf("re-encode differs: % x vs % x", b2, b)
		}
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{},
		{TypeDIO},                     // truncated below the 2-byte floor
		{0x00, 0x00},                  // unknown type
		{0x7F, 0x00},                  // unknown type
		make([]byte, dioLen+1),        // wrong length for implied type 0
		append([]byte{TypeDIO, 0}, 1), // short DIO
		append([]byte{TypeDAO, 0}, 1), // short DAO
		make([]byte, 64),              // oversize garbage
		{TypeDIS, 0, 0},               // long DIS
	}
	for _, b := range bad {
		if _, err := DecodeMessage(b); err == nil {
			t.Fatalf("decode(% x) accepted garbage", b)
		}
	}
}

func TestTrickleDoublesAndSuppresses(t *testing.T) {
	s := sim.New(1)
	fires, sends := 0, 0
	tr := newTrickle(s, 100*sim.Millisecond, 3, 1, trickleFunc(func(send bool) {
		fires++
		if send {
			sends++
		}
	}))
	tr.start()
	s.Run(10 * sim.Second)
	// Intervals: 100ms, 200, 400, 800(=Imax), 800, ... → about 13 fires
	// in 10s; every one sends (nothing heard).
	if fires < 10 || fires > 16 {
		t.Fatalf("fires = %d", fires)
	}
	if sends != fires {
		t.Fatalf("sends %d != fires %d with no suppression input", sends, fires)
	}
	// Saturate the consistency counter continuously: everything suppresses.
	quiet := sends
	stop := s.Now() + sim.Time(10*sim.Second)
	var feed func()
	feed = func() {
		tr.hear()
		if s.Now() < stop {
			s.Post(10*sim.Millisecond, feed)
		}
	}
	s.Post(0, feed)
	s.Run(sim.Time(20 * sim.Second))
	if sends != quiet {
		t.Fatalf("sends advanced to %d despite saturation", sends)
	}
	// Reset snaps back to Imin: the next fire comes within 100ms.
	preFires := fires
	tr.reset()
	s.Run(s.Now() + sim.Time(100*sim.Millisecond))
	if fires == preFires {
		t.Fatal("no fire within Imin after reset")
	}
}

// line builds root—n1—n2 and waits for convergence.
func line(t *testing.T) (*sim.Sim, *testNode, *testNode, *testNode) {
	t.Helper()
	s := sim.New(42)
	root := newTestNode(s, 1, Config{Root: true})
	n1 := newTestNode(s, 2, Config{})
	n2 := newTestNode(s, 3, Config{})
	connect(root, n1)
	connect(n1, n2)
	s.Run(10 * sim.Second)
	return s, root, n1, n2
}

func TestLineJoinsAndRoutes(t *testing.T) {
	_, root, n1, n2 := line(t)
	if got := root.inst.Rank(); got != RootRank {
		t.Fatalf("root rank = %d", got)
	}
	if got := n1.inst.Rank(); got != RootRank+MinHopRankIncrease {
		t.Fatalf("n1 rank = %d", got)
	}
	if got := n2.inst.Rank(); got != RootRank+2*MinHopRankIncrease {
		t.Fatalf("n2 rank = %d", got)
	}
	// Upward: both nodes default-route toward the root.
	r, ok := n2.stack.LookupRoute(root.stack.GlobalAddr())
	if !ok || r.NextHop != ip6.LinkLocal(n1.mac) {
		t.Fatalf("n2 default route: %+v ok=%v", r, ok)
	}
	// Downward: the root has DAO host routes to both, n1 stores n2.
	r, ok = root.stack.LookupRoute(n2.stack.GlobalAddr())
	if !ok || r.PrefixLen != 128 || r.NextHop != ip6.LinkLocal(n1.mac) {
		t.Fatalf("root route to n2: %+v ok=%v", r, ok)
	}
	r, ok = n1.stack.LookupRoute(n2.stack.GlobalAddr())
	if !ok || r.PrefixLen != 128 || r.NextHop != ip6.LinkLocal(n2.mac) {
		t.Fatalf("n1 stored route to n2: %+v ok=%v", r, ok)
	}
	if n2.inst.Stats().Joins != 1 {
		t.Fatalf("n2 stats: %+v", n2.inst.Stats())
	}
}

func TestEndToEndDelivery(t *testing.T) {
	s, root, _, n2 := line(t)
	var got []byte
	root.stack.ListenUDP(9000, func(src ip6.Addr, srcPort uint16, payload []byte) {
		got = append([]byte(nil), payload...)
	})
	if _, err := n2.stack.SendUDPPID(root.stack.GlobalAddr(), 9000, 9000, []byte("hi")); err != nil {
		t.Fatalf("send: %v", err)
	}
	s.Run(s.Now() + sim.Time(time1s))
	if string(got) != "hi" {
		t.Fatalf("payload = %q", got)
	}
	// And downward, over the DAO host route.
	var back []byte
	n2.stack.ListenUDP(9001, func(src ip6.Addr, srcPort uint16, payload []byte) {
		back = append([]byte(nil), payload...)
	})
	if _, err := root.stack.SendUDPPID(n2.stack.GlobalAddr(), 9001, 9001, []byte("yo")); err != nil {
		t.Fatalf("send down: %v", err)
	}
	s.Run(s.Now() + sim.Time(time1s))
	if string(back) != "yo" {
		t.Fatalf("downward payload = %q", back)
	}
}

const time1s = sim.Second

// TestRepairSwitchesParent builds a diamond — root with children a and b,
// and c under both — then kills c's preferred uplink. c must re-home to the
// surviving parent without detaching, and the root's downward route to c
// must follow.
func TestRepairSwitchesParent(t *testing.T) {
	s := sim.New(7)
	root := newTestNode(s, 1, Config{Root: true})
	a := newTestNode(s, 2, Config{})
	b := newTestNode(s, 3, Config{})
	c := newTestNode(s, 4, Config{})
	connect(root, a)
	connect(root, b)
	connect(a, c)
	connect(b, c)
	s.Run(10 * sim.Second)
	if c.inst.Rank() != RootRank+2*MinHopRankIncrease {
		t.Fatalf("c rank = %d", c.inst.Rank())
	}
	pref := c.inst.Preferred()
	if pref != a.mac && pref != b.mac {
		t.Fatalf("c preferred = %012x", pref)
	}
	// Kill the active uplink.
	alt := a
	if pref == a.mac {
		disconnect(a, c)
		alt = b
	} else {
		disconnect(b, c)
	}
	s.Run(s.Now() + sim.Time(5*sim.Second))
	if got := c.inst.Preferred(); got != alt.mac {
		t.Fatalf("c preferred after repair = %012x, want %012x", got, alt.mac)
	}
	if !c.inst.Joined() {
		t.Fatal("c detached during repair")
	}
	if c.inst.Stats().ParentSwitches == 0 {
		t.Fatal("no parent switch counted")
	}
	r, ok := root.stack.LookupRoute(c.stack.GlobalAddr())
	if !ok || r.NextHop != ip6.LinkLocal(alt.mac) {
		t.Fatalf("root route to c after repair: %+v ok=%v", r, ok)
	}
}

// TestPoisonCascade cuts a line's middle link: the downstream node must
// hear nothing usable, and its stranded child must be poisoned to
// RankInfinite rather than looping through stale state.
func TestPoisonCascade(t *testing.T) {
	s, root, n1, n2 := line(t)
	disconnect(root, n1)
	s.Run(s.Now() + sim.Time(8*sim.Second))
	if n1.inst.Joined() {
		t.Fatalf("n1 still joined (rank %d) with no path to root", n1.inst.Rank())
	}
	if n2.inst.Joined() {
		t.Fatalf("n2 still joined (rank %d) behind a detached parent", n2.inst.Rank())
	}
	if n1.inst.Stats().LocalRepairs == 0 {
		t.Fatal("n1 counted no local repair")
	}
	// Heal the cut: everyone rejoins.
	connect(root, n1)
	s.Run(s.Now() + sim.Time(8*sim.Second))
	if !n1.inst.Joined() || !n2.inst.Joined() {
		t.Fatalf("rejoin failed: n1 %d n2 %d", n1.inst.Rank(), n2.inst.Rank())
	}
	if _, ok := root.stack.LookupRoute(n2.stack.GlobalAddr()); !ok {
		t.Fatal("root lost route to n2 after heal")
	}
}

// TestRootRebootBumpsVersion restarts the root; survivors must adopt the
// new DODAG version and re-register their routes.
func TestRootRebootBumpsVersion(t *testing.T) {
	s, root, n1, n2 := line(t)
	v0 := root.inst.Version()
	// A crash tears the root's links down and a restart re-forms them
	// (statconn replays LinkUp in production).
	disconnect(root, n1)
	root.inst.Stop()
	root.stack.Reset()
	root.inst.Start()
	connect(root, n1)
	s.Run(s.Now() + sim.Time(10*sim.Second))
	if got := root.inst.Version(); got != v0+1 {
		t.Fatalf("root version %d, want %d", got, v0+1)
	}
	if n2.inst.Version() != v0+1 {
		t.Fatalf("n2 version %d not upgraded", n2.inst.Version())
	}
	if _, ok := root.stack.LookupRoute(n2.stack.GlobalAddr()); !ok {
		t.Fatal("root missing route to n2 after reboot")
	}
	_ = n1
}

// TestETXSteersParentChoice gives one uplink a poor ETX; the joining node
// must prefer the clean one even though both parents share a rank.
func TestETXSteersParentChoice(t *testing.T) {
	s := sim.New(3)
	root := newTestNode(s, 1, Config{Root: true})
	a := newTestNode(s, 2, Config{})
	b := newTestNode(s, 3, Config{})
	c := newTestNode(s, 4, Config{})
	// Lossy link toward a (ETX 3), clean toward b. Sorted-MAC tie-break
	// would otherwise pick a.
	c.inst.SetETX(etxFunc(func(mac uint64) float64 {
		if mac == a.mac {
			return 3
		}
		return 1
	}))
	connect(root, a)
	connect(root, b)
	connect(a, c)
	connect(b, c)
	s.Run(15 * sim.Second)
	if got := c.inst.Preferred(); got != b.mac {
		t.Fatalf("c preferred %012x, want clean parent %012x", got, b.mac)
	}
	if got := c.inst.Rank(); got != RootRank+2*MinHopRankIncrease {
		t.Fatalf("c rank = %d", got)
	}
}

// TestMonotoneRankAlongParentChain checks the loop-avoidance invariant on
// a converged line: every node's rank strictly exceeds its parent's.
func TestMonotoneRankAlongParentChain(t *testing.T) {
	_, root, n1, n2 := line(t)
	if !(root.inst.Rank() < n1.inst.Rank() && n1.inst.Rank() < n2.inst.Rank()) {
		t.Fatalf("ranks not monotone: %d %d %d", root.inst.Rank(), n1.inst.Rank(), n2.inst.Rank())
	}
}

// TestNoPathPurgesStaleBranch severs a leaf from a line: the no-path DAO
// must purge the target at every ancestor, replacing the host routes with
// on-link sentinels rather than letting downward packets fall through to the
// default route (which points straight back at the stale ancestor — the
// classic storing-mode ping-pong).
func TestNoPathPurgesStaleBranch(t *testing.T) {
	s, root, n1, n2 := line(t)
	if _, ok := root.stack.LookupRoute(n2.stack.GlobalAddr()); !ok {
		t.Fatal("precondition: root has no route to n2")
	}
	disconnect(n1, n2)
	s.Run(s.Now() + sim.Time(time1s))
	// n1 dropped the entry on link-down and told the root; both must now
	// hold an on-link sentinel (empty next hop), not a forwarding route.
	for _, n := range []*testNode{n1, root} {
		r, ok := n.stack.LookupRoute(n2.stack.GlobalAddr())
		if !ok {
			t.Fatalf("%012x: purge removed the sentinel entirely", n.mac)
		}
		if !r.NextHop.IsUnspecified() {
			t.Fatalf("%012x: stale forwarding route survived the no-path: %+v", n.mac, r)
		}
	}
	// The branch heals: a fresh DAO reinstates real routes over the sentinel.
	connect(n1, n2)
	s.Run(s.Now() + sim.Time(8*sim.Second))
	r, ok := root.stack.LookupRoute(n2.stack.GlobalAddr())
	if !ok || r.NextHop != ip6.LinkLocal(n1.mac) {
		t.Fatalf("root route to n2 after heal: %+v ok=%v", r, ok)
	}
}

// TestStaleEchoCannotMoveTarget rebuilds the loop found in the mesh churn
// experiment: an ancestor A holds a fresh entry for target T via child C,
// and a re-homing neighbor readvertises a stale entry for T that points back
// through A. The old-seq advertisement must not displace A's entry — two
// live nodes each pointing the target at the other is a forwarding cycle.
func TestStaleEchoCannotMoveTarget(t *testing.T) {
	s := sim.New(11)
	root := newTestNode(s, 1, Config{Root: true})
	child := newTestNode(s, 4, Config{})
	connect(root, child)
	s.Run(5 * sim.Second)
	target := ip6.ULA(ip6.DefaultPrefix, 0x5A0000000009)
	// The child advertises T with seq 5; the root stores "T via child".
	child.inst.sendCtrl(root.mac, Message{Type: TypeDAO, Seq: 5, Target: target})
	s.Run(s.Now() + sim.Time(time1s))
	r, ok := root.stack.LookupRoute(target)
	if !ok || r.NextHop != ip6.LinkLocal(child.mac) {
		t.Fatalf("root route to T: %+v ok=%v", r, ok)
	}
	// A second neighbor echoes T with an older seq (a readvertised stale
	// entry). The root must keep the fresh branch.
	stale := newTestNode(s, 7, Config{})
	connect(root, stale)
	s.Run(s.Now() + sim.Time(time1s))
	stale.inst.sendCtrl(root.mac, Message{Type: TypeDAO, Seq: 4, Target: target})
	s.Run(s.Now() + sim.Time(time1s))
	if r, _ := root.stack.LookupRoute(target); r.NextHop != ip6.LinkLocal(child.mac) {
		t.Fatalf("stale echo moved T: %+v", r)
	}
	// A genuinely newer advertisement may move it.
	stale.inst.sendCtrl(root.mac, Message{Type: TypeDAO, Seq: 6, Target: target})
	s.Run(s.Now() + sim.Time(time1s))
	if r, _ := root.stack.LookupRoute(target); r.NextHop != ip6.LinkLocal(stale.mac) {
		t.Fatalf("fresh advertisement did not move T: %+v", r)
	}
}

// trickleFunc adapts a function to trickleOwner.
type trickleFunc func(send bool)

func (f trickleFunc) trickleFire(send bool) { f(send) }

// etxFunc adapts a function to LinkMetric.
type etxFunc func(mac uint64) float64

// ETX calls f.
func (f etxFunc) ETX(mac uint64) float64 { return f(mac) }
