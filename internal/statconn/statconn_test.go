package statconn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"blemesh/internal/ble"
	"blemesh/internal/phy"
	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
)

func TestStaticPolicy(t *testing.T) {
	p := Static{Interval: 75 * sim.Millisecond}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if got := p.Pick(rng, nil); got != 75*sim.Millisecond {
			t.Fatalf("static pick = %v", got)
		}
	}
	if p.EnforceUnique() {
		t.Fatal("static policy must not enforce uniqueness")
	}
	if p.String() == "" {
		t.Fatal("empty string")
	}
}

func TestRandomPolicyRangeAndGranularity(t *testing.T) {
	p := Random{Min: 65 * sim.Millisecond, Max: 85 * sim.Millisecond}
	rng := rand.New(rand.NewSource(2))
	seen := map[sim.Duration]bool{}
	for i := 0; i < 500; i++ {
		v := p.Pick(rng, nil)
		if v < 65*sim.Millisecond || v > 85*sim.Millisecond {
			t.Fatalf("pick %v outside window", v)
		}
		if v%ble.ConnIntervalUnit != 0 {
			t.Fatalf("pick %v not a 1.25ms multiple", v)
		}
		seen[v] = true
	}
	// [65:85]ms has 17 legal values; a sampler should hit most.
	if len(seen) < 12 {
		t.Fatalf("only %d distinct values drawn", len(seen))
	}
	if !p.EnforceUnique() {
		t.Fatal("random policy must enforce uniqueness")
	}
}

func TestRandomPolicyAvoidsUsedIntervals(t *testing.T) {
	p := Random{Min: 65 * sim.Millisecond, Max: 85 * sim.Millisecond}
	rng := rand.New(rand.NewSource(3))
	var used []sim.Duration
	// Fill all but one slot; picks must land on the free one.
	for v := 65 * sim.Millisecond; v <= 85*sim.Millisecond; v += ble.ConnIntervalUnit {
		if v != 75*sim.Millisecond {
			used = append(used, v)
		}
	}
	for i := 0; i < 20; i++ {
		if got := p.Pick(rng, used); got != 75*sim.Millisecond {
			t.Fatalf("pick %v despite only 75ms being free", got)
		}
	}
}

func TestQuickRandomPolicyAlwaysLegal(t *testing.T) {
	f := func(minRaw, maxRaw uint8, seed int64) bool {
		lo := sim.Duration(8+int(minRaw)%400) * sim.Millisecond
		hi := lo + sim.Duration(int(maxRaw)%100)*sim.Millisecond
		p := Random{Min: lo, Max: hi}
		rng := rand.New(rand.NewSource(seed))
		v := p.Pick(rng, nil)
		params := ble.ConnParams{Interval: v}
		return params.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// buildPair wires two controllers with managers on a fresh medium.
func buildPair(seed int64, cfg Config) (*sim.Sim, *Manager, *Manager, *ble.Controller, *ble.Controller) {
	s := sim.New(seed)
	medium := phy.NewMedium(s)
	mk := func(ppm float64, addr int) (*ble.Controller, *Manager) {
		clk := sim.NewClock(s, ppm)
		ctrl := ble.NewController(s, clk, medium.NewRadio(), ble.ControllerConfig{Addr: ble.DevAddr(addr)})
		return ctrl, New(s, ctrl, cfg)
	}
	ctrlA, mgrA := mk(1, 0xA)
	ctrlB, mgrB := mk(-1, 0xB)
	return s, mgrA, mgrB, ctrlA, ctrlB
}

func TestManagerEstablishesAndReports(t *testing.T) {
	s, mgrA, mgrB, ctrlA, ctrlB := buildPair(1, Config{})
	var up *ble.Conn
	mgrB.OnLink = &linkFuncs{Up: func(c *ble.Conn) { up = c }}
	mgrA.ExpectInbound(1)
	mgrB.Connect(ctrlA.Addr())
	s.Run(5 * sim.Second)
	if up == nil || up.Role() != ble.Coordinator {
		t.Fatalf("link not reported up: %v", up)
	}
	if mgrB.Stats().LinksOpened != 1 {
		t.Fatalf("stats: %+v", mgrB.Stats())
	}
	if ctrlB.FindConn(ctrlA.Addr()) == nil {
		t.Fatal("connection missing")
	}
}

// TestRemovedLinkIsUnreachable: the up list must not keep a dead link end
// reachable behind its length. Killing a node's only link empties the list,
// which is the case a plain append-delete leaves the Conn behind in.
func TestRemovedLinkIsUnreachable(t *testing.T) {
	s, mgrA, mgrB, ctrlA, _ := buildPair(3, Config{})
	mgrA.ExpectInbound(1)
	mgrB.Connect(ctrlA.Addr())
	s.Run(5 * sim.Second)
	if len(mgrB.up) != 1 {
		t.Fatalf("%d links up, want 1", len(mgrB.up))
	}
	dead := mgrB.up[0]
	dead.Kill()
	if len(mgrB.up) != 0 {
		t.Fatalf("after Kill: %d links up, want 0", len(mgrB.up))
	}
	for _, c := range mgrB.up[:cap(mgrB.up)] {
		if c == dead {
			t.Error("the dead Conn stays in the up list behind its length")
		}
	}
}

func TestManagerReconnectsAfterLoss(t *testing.T) {
	s, mgrA, mgrB, ctrlA, _ := buildPair(2, Config{})
	ups := 0
	var last *ble.Conn
	mgrB.OnLink = &linkFuncs{Up: func(c *ble.Conn) { ups++; last = c }}
	mgrA.ExpectInbound(1)
	mgrB.Connect(ctrlA.Addr())
	s.Run(5 * sim.Second)
	if ups != 1 {
		t.Fatalf("ups=%d", ups)
	}
	// Kill the link without a handshake (forced supervision loss).
	last.Close()
	s.Run(20 * sim.Second)
	if ups < 2 {
		t.Fatalf("no reconnect after loss (ups=%d)", ups)
	}
}

func TestManagerRejectsCollidingIntervalWithRandomPolicy(t *testing.T) {
	// Three coordinators race toward one subordinate. With the Random
	// policy active, no two of the subordinate's connections may share
	// an interval, whatever the coordinators drew.
	cfg := Config{Policy: Random{Min: 65 * sim.Millisecond, Max: 70 * sim.Millisecond}}
	s := sim.New(5)
	medium := phy.NewMedium(s)
	mk := func(ppm float64, addr int) (*ble.Controller, *Manager) {
		clk := sim.NewClock(s, ppm)
		ctrl := ble.NewController(s, clk, medium.NewRadio(), ble.ControllerConfig{Addr: ble.DevAddr(addr)})
		return ctrl, New(s, ctrl, cfg)
	}
	hubCtrl, hubMgr := mk(0, 0x1)
	hubMgr.ExpectInbound(3)
	for i := 0; i < 3; i++ {
		_, mgr := mk(float64(i), 0x10+i)
		mgr.Connect(hubCtrl.Addr())
	}
	s.Run(60 * sim.Second)
	conns := hubCtrl.Conns()
	if len(conns) != 3 {
		t.Fatalf("hub has %d conns", len(conns))
	}
	seen := map[sim.Duration]bool{}
	for _, c := range conns {
		if seen[c.Interval()] {
			t.Fatalf("duplicate interval %v survived on the hub", c.Interval())
		}
		seen[c.Interval()] = true
	}
	// A [65:70] window has 5 slots for 3 links: rejections are likely
	// but not guaranteed; the invariant above is what matters.
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.defaults()
	if c.Policy == nil {
		t.Fatal("no default policy")
	}
}

func TestRenegotiatePolicyBasics(t *testing.T) {
	p := Renegotiate{Target: 75 * sim.Millisecond}
	rng := rand.New(rand.NewSource(4))
	if p.Pick(rng, nil) != 75*sim.Millisecond {
		t.Fatal("renegotiate must open at the target interval")
	}
	if p.EnforceUnique() {
		t.Fatal("renegotiate must not close colliding connections")
	}
	if p.String() == "" {
		t.Fatal("empty string")
	}
	// pickFree avoids used values within the window.
	used := []sim.Duration{75 * sim.Millisecond}
	for i := 0; i < 50; i++ {
		v := p.pickFree(rng, used)
		if v == 0 || v == 75*sim.Millisecond {
			t.Fatalf("pickFree returned %v", v)
		}
		if v < 65*sim.Millisecond || v > 85*sim.Millisecond {
			t.Fatalf("pickFree %v outside default ±10ms window", v)
		}
	}
	// A fully occupied window yields 0.
	var all []sim.Duration
	for v := 65 * sim.Millisecond; v <= 85*sim.Millisecond; v += ble.ConnIntervalUnit {
		all = append(all, v)
	}
	if v := p.pickFree(rng, all); v != 0 {
		t.Fatalf("pickFree on a full window returned %v", v)
	}
}

func TestRenegotiateResolvesSetupCollision(t *testing.T) {
	// Two coordinators open at the same target toward one subordinate;
	// the subordinate renegotiates one of them to a different interval
	// instead of closing it.
	cfg := Config{Policy: Renegotiate{Target: 75 * sim.Millisecond, Window: 10 * sim.Millisecond}}
	s := sim.New(9)
	medium := phy.NewMedium(s)
	mk := func(ppm float64, addr int) (*ble.Controller, *Manager) {
		clk := sim.NewClock(s, ppm)
		ctrl := ble.NewController(s, clk, medium.NewRadio(), ble.ControllerConfig{Addr: ble.DevAddr(addr)})
		return ctrl, New(s, ctrl, cfg)
	}
	hubCtrl, hubMgr := mk(0, 0x1)
	hubMgr.ExpectInbound(2)
	var coords []*Manager
	for i := 0; i < 2; i++ {
		_, mgr := mk(float64(i)+1, 0x20+i)
		mgr.Connect(hubCtrl.Addr())
		coords = append(coords, mgr)
	}
	s.Run(30 * sim.Second)
	conns := hubCtrl.Conns()
	if len(conns) != 2 {
		t.Fatalf("hub has %d conns", len(conns))
	}
	if hubMgr.Stats().ParamRequests == 0 {
		t.Fatal("no renegotiation attempted despite guaranteed collision")
	}
	if conns[0].Interval() == conns[1].Interval() {
		t.Fatalf("collision not resolved: both at %v", conns[0].Interval())
	}
	// The coordinators decided the requests over the air: each has no
	// other link, so they accepted every one they received.
	a, r := coords[0].Stats().ParamAccepts+coords[1].Stats().ParamAccepts, coords[0].Stats().ParamRejects+coords[1].Stats().ParamRejects
	if a == 0 || r != 0 || a > hubMgr.Stats().ParamRequests {
		t.Fatalf("coordinators accepted %d and rejected %d of %d requests", a, r, hubMgr.Stats().ParamRequests)
	}
	if hubMgr.Stats().IntervalRejects != 0 {
		t.Fatal("renegotiate policy must not close connections")
	}
}

// TestStatsAllocatesNothing: Stats is a plain copy of the counters. With a
// qualified peer and a recorded recovery it builds no per-peer snapshot and
// reads no sketch; PeerLinks and RecoveryDist are where those live.
func TestStatsAllocatesNothing(t *testing.T) {
	s, mgrA, mgrB, ctrlA, ctrlB := buildPair(9, Config{})
	mgrA.ExpectInbound(1)
	mgrB.Connect(ctrlA.Addr())
	s.Run(5 * sim.Second)
	c := ctrlB.FindConn(ctrlA.Addr())
	if c == nil {
		t.Fatal("connection missing")
	}
	c.SendBuf(ble.LLIDDataStart, pktbuf.FromBytes(make([]byte, 20)), 0)
	s.Run(s.Now() + 2*sim.Second)
	ctrlA.FindConn(ctrlB.Addr()).Kill()
	s.Run(s.Now() + 20*sim.Second)
	if len(mgrB.PeerLinks()) != 1 || mgrB.RecoveryDist().N() == 0 {
		t.Fatalf("scenario: %d qualified peers, %d recoveries; want 1 and at least 1",
			len(mgrB.PeerLinks()), mgrB.RecoveryDist().N())
	}
	if allocs := testing.AllocsPerRun(100, func() { statsSink = mgrB.Stats() }); allocs != 0 {
		t.Fatalf("Stats allocates %v times per call, want 0", allocs)
	}
}

var statsSink Stats

func TestLinkQualitySnapshot(t *testing.T) {
	s, mgrA, mgrB, ctrlA, ctrlB := buildPair(9, Config{})
	mgrA.ExpectInbound(1)
	mgrB.Connect(ctrlA.Addr())
	s.Run(5 * sim.Second)
	// No traffic yet: ETX reads as a perfect link (optimistic bootstrap).
	if etx := mgrB.PeerETX(ctrlA.Addr()); etx != 1 {
		t.Fatalf("bootstrap ETX = %v, want 1", etx)
	}
	// Drive some LL traffic so the connection accumulates TX counters.
	c := ctrlB.FindConn(ctrlA.Addr())
	if c == nil {
		t.Fatal("connection missing")
	}
	for i := 0; i < 20; i++ {
		c.SendBuf(ble.LLIDDataStart, pktbuf.FromBytes(make([]byte, 20)), 0)
	}
	s.Run(10 * sim.Second)
	mgrB.SampleLinkQuality()
	links := mgrB.PeerLinks()
	if len(links) != 1 {
		t.Fatalf("PeerLinks = %+v, want one entry", links)
	}
	l := links[0]
	if l.Peer != ctrlA.Addr() || !l.Up {
		t.Fatalf("link snapshot: %+v", l)
	}
	if l.PDR <= 0 || l.PDR > 1 {
		t.Fatalf("PDR out of range: %v", l.PDR)
	}
	if l.ETX < 1 || l.ETX > 4 {
		t.Fatalf("ETX out of range: %v", l.ETX)
	}
	if got := mgrB.PeerETX(ctrlA.Addr()); got != l.ETX {
		t.Fatalf("PeerETX %v != snapshot ETX %v", got, l.ETX)
	}
	// Sampling must be repeatable without double counting: a second fold of
	// the same counters cannot move the estimate.
	before := mgrB.PeerETX(ctrlA.Addr())
	mgrB.SampleLinkQuality()
	if after := mgrB.PeerETX(ctrlA.Addr()); after != before {
		t.Fatalf("resample moved ETX %v -> %v with no new traffic", before, after)
	}
}

func TestPeerQualFold(t *testing.T) {
	q := &peerQual{}
	q.fold(ble.ConnStats{TXPDUs: 10, Retrans: 0})
	if pdr, ok := q.pdr(0, 0); !ok || pdr != 1 {
		t.Fatalf("clean fold: pdr=%v ok=%v", pdr, ok)
	}
	// 10 more PDUs, 10 retransmissions: sample PDR 0.5, EWMA pulls down.
	q.fold(ble.ConnStats{TXPDUs: 20, Retrans: 10})
	pdr, _ := q.pdr(0, 0)
	if pdr >= 1 || pdr <= 0.5 {
		t.Fatalf("ewma pdr = %v, want in (0.5, 1)", pdr)
	}
	// Counter restart (fresh connection object) must re-baseline, not
	// produce a bogus huge delta.
	q.fold(ble.ConnStats{TXPDUs: 2, Retrans: 0})
	if q.baseTX != 2 {
		t.Fatalf("baseline after restart = %d", q.baseTX)
	}
}

// linkFuncs adapts two functions to LinkHandler; a nil one ignores
// its upcall.
type linkFuncs struct {
	Up   func(c *ble.Conn)
	Down func(c *ble.Conn, reason ble.LossReason)
}

func (f *linkFuncs) LinkUp(c *ble.Conn) {
	if f.Up != nil {
		f.Up(c)
	}
}

func (f *linkFuncs) LinkDown(c *ble.Conn, reason ble.LossReason) {
	if f.Down != nil {
		f.Down(c, reason)
	}
}

// TestRedialNamesItsPeer: a pending re-dial names its peer, not its slot, so
// one armed before the slots slice grows — and moves — still dials that peer
// and no other; Shutdown cancels a pending one.
func TestRedialNamesItsPeer(t *testing.T) {
	s, mgrA, mgrB, ctrlA, ctrlB := buildPair(5, Config{})
	mgrA.ExpectInbound(1)
	mgrB.Connect(ctrlA.Addr())
	before := &mgrB.slots[0]
	for i := 0; i < 16; i++ {
		mgrB.quality(ble.DevAddr(0x100 + i)) // inbound peers: a slot each
	}
	if &mgrB.slots[0] == before {
		t.Fatal("the slots slice did not move; the test needs it to")
	}
	s.Run(5 * sim.Second)
	if conns := ctrlB.Conns(); len(conns) != 1 || conns[0].Peer() != ctrlA.Addr() {
		t.Fatalf("after the re-dial: %d connections, want one to %v", len(conns), ctrlA.Addr())
	}

	s, mgrA, mgrB, ctrlA, ctrlB = buildPair(6, Config{})
	mgrA.ExpectInbound(1)
	mgrB.Connect(ctrlA.Addr())
	redial := mgrB.slot(ctrlA.Addr()).redial
	if !redial.Scheduled() {
		t.Fatal("Connect armed no re-dial")
	}
	mgrB.Shutdown()
	if redial.Scheduled() {
		t.Fatal("Shutdown left the re-dial pending")
	}
	s.Run(5 * sim.Second)
	if n := len(ctrlB.Conns()); n != 0 {
		t.Fatalf("a stopped manager dialled: %d connections", n)
	}
}

// TestRenegotiateCoordinatorDecides: a Renegotiate coordinator accepts a
// requested interval none of its other links uses and rejects one that
// collides, counting each; a manager of another policy rejects without
// counting.
func TestRenegotiateCoordinatorDecides(t *testing.T) {
	ms := sim.Millisecond
	for _, policy := range []IntervalPolicy{Renegotiate{Target: 75 * ms}, Static{Interval: 75 * ms}} {
		s := sim.New(10)
		medium := phy.NewMedium(s)
		mk := func(ppm float64, addr int) (*ble.Controller, *Manager) {
			ctrl := ble.NewController(s, sim.NewClock(s, ppm), medium.NewRadio(), ble.ControllerConfig{Addr: ble.DevAddr(addr)})
			return ctrl, New(s, ctrl, Config{Policy: policy})
		}
		hubCtrl, hubMgr := mk(0, 0x1)
		for i := 0; i < 2; i++ {
			ctrl, mgr := mk(float64(i)+1, 0x20+i)
			mgr.ExpectInbound(1)
			hubMgr.Connect(ctrl.Addr())
		}
		s.Run(30 * sim.Second)
		conns := hubCtrl.Conns()
		if len(conns) != 2 || conns[0].Interval() != 75*ms || conns[1].Interval() != 75*ms {
			t.Fatalf("%v: hub has %d links, want two at 75ms", policy, len(conns))
		}
		h := (*connEvents)(hubMgr)
		collides, free := h.ParamRequest(conns[0], 75*ms), h.ParamRequest(conns[0], 80*ms)
		st := hubMgr.Stats()
		_, reneg := policy.(Renegotiate)
		if collides || free != reneg || st.ParamRejects != b2u(reneg) || st.ParamAccepts != b2u(reneg) {
			t.Fatalf("%v: 75ms accepted %v, 80ms accepted %v, rejects/accepts %d/%d",
				policy, collides, free, st.ParamRejects, st.ParamAccepts)
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
