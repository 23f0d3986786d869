package statconn

import (
	"math"
	"testing"

	"blemesh/internal/ble"
	"blemesh/internal/phy"
	"blemesh/internal/sim"
)

// dataJam destroys every packet on the data channels while on: links die by
// supervision timeout and new connections never exchange a packet, while
// advertising and CONNECT_INDs still get through.
type dataJam struct{ on bool }

func (j *dataJam) Corrupts(_ *sim.Sim, ch phy.Channel, _, _ sim.Time) bool {
	return j.on && ch < phy.AdvChannel37
}
func (j *dataJam) Busy(phy.Channel, sim.Time) bool { return false }

// mapModel is the Manager's per-peer bookkeeping restated the obvious way —
// one map per concept, keyed by peer — and advanced only from what a host
// can see: its own Connect/Shutdown/Restart calls and the LinkUp/LinkDown
// callbacks. The Manager keeps the same facts in one slice of slots that
// regrows as peers appear; the two must never disagree.
type mapModel struct {
	s              *sim.Sim
	wanted         map[ble.DevAddr]bool
	up             map[*ble.Conn]bool
	attempts       map[ble.DevAddr]int
	downSince      map[ble.DevAddr]sim.Time
	qual           map[ble.DevAddr]*modelQual
	events         map[ble.DevAddr]int // link events seen per peer
	recovery       []float64           // completed repairs, seconds
	pendingReopens int
	stopped        bool
}

type modelQual struct{ reconnects, losses uint64 }

func newMapModel(s *sim.Sim) *mapModel {
	return &mapModel{
		s:         s,
		wanted:    map[ble.DevAddr]bool{},
		up:        map[*ble.Conn]bool{},
		attempts:  map[ble.DevAddr]int{},
		downSince: map[ble.DevAddr]sim.Time{},
		qual:      map[ble.DevAddr]*modelQual{},
		events:    map[ble.DevAddr]int{},
	}
}

func (md *mapModel) quality(p ble.DevAddr) *modelQual {
	if md.qual[p] == nil {
		md.qual[p] = &modelQual{}
	}
	return md.qual[p]
}

// linkUp mirrors a coordinator-role LinkUp.
func (md *mapModel) linkUp(c *ble.Conn) {
	p := c.Peer()
	md.events[p]++
	delete(md.attempts, p)
	if t0, ok := md.downSince[p]; ok {
		delete(md.downSince, p)
		md.recovery = append(md.recovery, (md.s.Now() - t0).Seconds())
	}
	q := md.quality(p)
	md.up[c] = true
	if md.pendingReopens > 0 {
		md.pendingReopens--
		q.reconnects++
	}
}

// linkDown mirrors a coordinator-role LinkDown.
func (md *mapModel) linkDown(c *ble.Conn, reason ble.LossReason) {
	p := c.Peer()
	md.events[p]++
	delete(md.up, c)
	if md.stopped {
		return
	}
	proven := c.Stats().EventsOK > 0
	if reason == ble.LossSupervision {
		if proven {
			md.quality(p).losses++
		} else if md.wanted[p] {
			md.attempts[p]++
		}
	}
	if md.wanted[p] {
		if proven {
			if _, measuring := md.downSince[p]; !measuring {
				md.downSince[p] = md.s.Now()
			}
			delete(md.attempts, p)
		}
		md.pendingReopens++
	}
}

func (md *mapModel) shutdown() {
	md.stopped = true
	md.pendingReopens = 0
	md.wanted = map[ble.DevAddr]bool{}
	md.attempts = map[ble.DevAddr]int{}
	md.downSince = map[ble.DevAddr]sim.Time{}
}

// attemptCount returns peer's consecutive failed initiation attempts, 0 for a
// peer the manager never touched.
func attemptCount(m *Manager, peer ble.DevAddr) int {
	if s := m.slot(peer); s != nil {
		return s.attempts
	}
	return 0
}

// check compares every per-peer fact the Manager holds with the model.
func (md *mapModel) check(t *testing.T, stage string, m *Manager, peers []ble.DevAddr) {
	t.Helper()
	for _, p := range peers {
		if got, want := m.wanted(p), md.wanted[p]; got != want {
			t.Errorf("%s: wanted(%v) = %v, model %v", stage, p, got, want)
		}
		if got, want := attemptCount(m, p), md.attempts[p]; got != want {
			t.Errorf("%s: attemptCount(%v) = %d, model %d", stage, p, got, want)
		}
		t0, measuring := md.downSince[p]
		if s := m.slot(p); s != nil && s.measuring {
			if !measuring || s.downSince != t0 {
				t.Errorf("%s: %v down since %v, model (%v, %v)", stage, p, s.downSince, t0, measuring)
			}
		} else if measuring {
			t.Errorf("%s: %v not measuring a recovery, model has it down since %v", stage, p, t0)
		}
	}
	if len(m.up) != len(md.up) {
		t.Errorf("%s: %d links up, model %d", stage, len(m.up), len(md.up))
	}
	upPeer := map[ble.DevAddr]bool{}
	for c := range md.up {
		upPeer[c.Peer()] = true
		if !m.isUp(c) {
			t.Errorf("%s: model has %v up, manager does not", stage, c)
		}
	}
	links := m.PeerLinks()
	if len(links) != len(md.qual) {
		t.Errorf("%s: PeerLinks() has %d peers, model %d", stage, len(links), len(md.qual))
	}
	for i, l := range links {
		if i > 0 && links[i-1].Peer >= l.Peer {
			t.Errorf("%s: PeerLinks() not sorted by peer at %d", stage, i)
		}
		q := md.qual[l.Peer]
		if q == nil {
			t.Errorf("%s: PeerLinks() lists %v, model never saw it", stage, l.Peer)
			continue
		}
		if l.Up != upPeer[l.Peer] || l.Reconnects != q.reconnects || l.Losses != q.losses {
			t.Errorf("%s: link %v = {up %v reconnects %d losses %d}, model {%v %d %d}",
				stage, l.Peer, l.Up, l.Reconnects, l.Losses, upPeer[l.Peer], q.reconnects, q.losses)
		}
	}
	rec := m.RecoveryDist()
	if rec.N() != len(md.recovery) {
		t.Fatalf("%s: %d recovery samples, model %d", stage, rec.N(), len(md.recovery))
	}
	if len(md.recovery) > 0 {
		sum, max := 0.0, 0.0
		for _, v := range md.recovery {
			sum += v
			max = math.Max(max, v)
		}
		if rec.Max() != max || math.Abs(rec.Mean()-sum/float64(len(md.recovery))) > 1e-9 {
			t.Errorf("%s: recovery max %v mean %v, model max %v mean %v",
				stage, rec.Max(), rec.Mean(), max, sum/float64(len(md.recovery)))
		}
	}
}

// TestManagerAgainstMapModel drives one coordinator toward ten peers through
// connect, link loss, backoff, Shutdown, Restart and reconnect, and after
// every stage compares the Manager's slot table with mapModel. Ten peers
// force the slots slice to regrow (4 → 8 → 16) while earlier peers' quality
// state is live in it, and both regrows happen inside the LinkUp of a
// repaired link — while handleConnect is on the stack with a pointer into
// the old backing array — so a write through a stale pointer would surface
// as a lost reconnect count.
func TestManagerAgainstMapModel(t *testing.T) {
	const nPeers = 10
	s := sim.New(21)
	medium := phy.NewMedium(s)
	jam := &dataJam{}
	medium.AddInterference(jam)
	mk := func(ppm float64, addr int) (*ble.Controller, *Manager) {
		clk := sim.NewClock(s, ppm)
		ctrl := ble.NewController(s, clk, medium.NewRadio(), ble.ControllerConfig{Addr: ble.DevAddr(addr)})
		return ctrl, New(s, ctrl, Config{})
	}
	hubCtrl, hub := mk(0, 0x1)
	var addrs []ble.DevAddr
	var peerCtrls []*ble.Controller
	for i := 0; i < nPeers; i++ {
		ctrl, mgr := mk(float64(i%5)-2, 0x100+i)
		mgr.ExpectInbound(1)
		addrs = append(addrs, ctrl.Addr())
		peerCtrls = append(peerCtrls, ctrl)
	}
	// A peer the hub never hears of: every lookup on it must miss.
	probe := append(append([]ble.DevAddr(nil), addrs...), ble.DevAddr(0xDEAD))

	md := newMapModel(s)
	connect := func(i int) {
		md.wanted[addrs[i]] = true
		hub.Connect(addrs[i])
	}
	// Peers [4, chainLimit) are declared one by one from inside LinkUp.
	chain, chainLimit := 4, 4
	hub.OnLink = &linkFuncs{
		Up: func(c *ble.Conn) {
			md.linkUp(c)
			if chain < chainLimit {
				chain++
				connect(chain - 1)
			}
		},
		Down: md.linkDown,
	}
	runFor := func(d sim.Duration) { s.Run(s.Now() + d) }
	allUp := func(stage string, n int) {
		t.Helper()
		if len(md.up) != n {
			t.Fatalf("%s: %d of %d links up — the scenario did not get where the stage needs it", stage, len(md.up), n)
		}
	}

	for i := 0; i < 4; i++ {
		connect(i)
	}
	runFor(10 * sim.Second)
	md.check(t, "four peers", hub, probe)
	allUp("four peers", 4)

	// grow kills victim's proven link from the far side and lets the
	// repair's LinkUp start declaring peers up to limit — so the slots
	// slice regrows inside handleConnect, before it credits the reconnect.
	grow := func(stage string, victim, limit int) {
		t.Helper()
		oldBacking, oldCap := &hub.slots[0], cap(hub.slots)
		eventsBefore := map[ble.DevAddr]int{}
		qualBefore := map[ble.DevAddr]peerQual{}
		for _, p := range addrs[:chain] {
			eventsBefore[p] = md.events[p]
			qualBefore[p] = hub.slot(p).qual
		}
		samples := len(md.recovery)
		chainLimit = limit
		peerCtrls[victim].FindConn(hubCtrl.Addr()).Kill()
		runFor(40 * sim.Second)
		md.check(t, stage, hub, probe)
		allUp(stage, limit)
		if q := md.qual[addrs[victim]]; q.losses != 1 || q.reconnects != 1 || len(md.recovery) <= samples {
			t.Fatalf("%s: victim has %+v and %d new recovery samples, want one loss, one reconnect, a sample",
				stage, *q, len(md.recovery)-samples)
		}
		if len(hub.slots) != limit || cap(hub.slots) <= oldCap || &hub.slots[0] == oldBacking {
			t.Fatalf("%s: slots len %d cap %d (was %d), backing moved %v — the table did not regrow",
				stage, len(hub.slots), cap(hub.slots), oldCap, &hub.slots[0] != oldBacking)
		}
		quiet := 0
		for p, n := range eventsBefore {
			if md.events[p] != n {
				continue // the peer's link changed meanwhile; check() covers it
			}
			quiet++
			if got := hub.slot(p).qual; got != qualBefore[p] {
				t.Errorf("%s: %v quality state changed across the regrow with no link event: %+v → %+v",
					stage, p, qualBefore[p], got)
			}
		}
		if quiet == 0 {
			t.Fatalf("%s: every earlier peer saw link events during the regrow; nothing was compared", stage)
		}
	}
	grow("eight peers", 1, 8)    // the fifth slot regrows 4 → 8
	grow("ten peers", 2, nPeers) // the ninth regrows 8 → 16

	// Data channels jammed: proven links die, repairs fail to establish and
	// back off.
	jam.on = true
	runFor(12 * sim.Second)
	md.check(t, "jammed", hub, probe)
	for c := range md.up {
		if c.Stats().EventsOK > 0 {
			t.Fatalf("jammed: %v still exchanges packets", c)
		}
	}
	deepest := 0
	for _, p := range addrs {
		if n := attemptCount(hub, p); n > deepest {
			deepest = n
		}
	}
	if deepest < 1 {
		t.Fatal("jammed: no peer is backing off after a failed establishment")
	}
	jam.on = false
	runFor(40 * sim.Second)
	md.check(t, "recovered", hub, probe)
	allUp("recovered", nPeers)
	if len(md.recovery) < 1+nPeers {
		t.Fatalf("recovered: %d recovery samples, want one per repaired link", len(md.recovery))
	}

	// Shutdown in the middle of a backoff episode, then Restart.
	jam.on = true
	runFor(6 * sim.Second)
	md.check(t, "jammed again", hub, probe)
	md.shutdown()
	hub.Shutdown()
	hubCtrl.Shutdown()
	md.check(t, "shutdown", hub, probe)
	jam.on = false
	runFor(5 * sim.Second) // stale backoff timers fire into the stopped manager
	md.check(t, "down", hub, probe)
	allUp("down", 0)
	if len(hub.PeerLinks()) != nPeers {
		t.Fatalf("down: PeerLinks() kept %d of %d peers across Shutdown", len(hub.PeerLinks()), nPeers)
	}
	md.stopped = false
	hub.Restart()
	for i := range addrs {
		connect(i)
	}
	runFor(40 * sim.Second)
	md.check(t, "restarted", hub, probe)
	allUp("restarted", nPeers)
}
