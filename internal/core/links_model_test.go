package core

import (
	"sort"
	"testing"

	"blemesh/internal/ble"
	"blemesh/internal/phy"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
)

// TestNetIfLinksAgainstMapModel keeps the adapter's neighbor table honest
// against a plain map[mac]*ble.Conn fed from the connection manager's link
// callbacks: a hub with five links has them removed while a caller iterates
// Links(), is handed stale connections to remove, crashes (the controller
// walks its own connection table while each teardown removes a link here)
// and reboots.
func TestNetIfLinksAgainstMapModel(t *testing.T) {
	const leaves = 5
	s := sim.New(3)
	medium := phy.NewMedium(s)
	mk := func(i int) *Node {
		return NewNode(s, medium, NodeConfig{
			Name:     nodeName(i),
			MAC:      uint64(0x5A0000000001 + i),
			ClockPPM: float64(i) - 2,
			Statconn: statconn.Config{Policy: statconn.Static{Interval: 75 * sim.Millisecond}},
		})
	}
	hub := mk(0)
	model := map[uint64]*ble.Conn{}
	node := hub.Statconn.OnLink
	hub.Statconn.OnLink = &linkFuncs{
		Up: func(c *ble.Conn) { node.LinkUp(c); model[uint64(c.Peer())] = c },
		Down: func(c *ble.Conn, r ble.LossReason) {
			node.LinkDown(c, r)
			if model[uint64(c.Peer())] == c {
				delete(model, uint64(c.Peer()))
			}
		},
	}
	var macs []uint64
	for i := 1; i <= leaves; i++ {
		leaf := mk(i)
		leaf.AcceptInbound(1)
		hub.ConnectTo(leaf)
		macs = append(macs, uint64(leaf.DevAddr()))
	}
	check := func(stage string) {
		t.Helper()
		got := hub.NetIf.Links()
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		var want []uint64
		for mac := range model {
			want = append(want, mac)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("%s: Links() = %x, model %x", stage, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: Links() = %x, model %x", stage, got, want)
			}
		}
		for _, mac := range macs {
			_, present := model[mac]
			if hub.NetIf.HasNeighbor(mac) != present {
				t.Fatalf("%s: HasNeighbor(%x) = %v, model %v", stage, mac, !present, present)
			}
			if !present && (hub.NetIf.Channel(mac) != nil || hub.NetIf.QueueDepth(mac) != 0) {
				t.Fatalf("%s: removed neighbor %x still has a channel or a queue", stage, mac)
			}
		}
	}
	formed := func(stage string) {
		t.Helper()
		for deadline := s.Now() + 60*sim.Second; len(model) < leaves; {
			if s.Now() >= deadline {
				t.Fatalf("%s: %d of %d links up after 60s", stage, len(model), leaves)
			}
			s.Run(s.Now() + 100*sim.Millisecond)
		}
		check(stage)
	}
	formed("formed")

	// Remove every other link while walking Links(): the walk sees its own
	// snapshot, the table shrinks under it, the survivors stay reachable.
	var stale []*ble.Conn
	for i, mac := range hub.NetIf.Links() {
		if i%2 == 1 {
			continue
		}
		c := model[mac]
		hub.NetIf.RemoveLink(c)
		delete(model, mac)
		stale = append(stale, c)
		check("removed during the walk")
	}
	// A connection the table no longer holds — or holds a successor of — is
	// not a reason to drop anything.
	for _, c := range stale {
		hub.NetIf.RemoveLink(c)
		check("stale remove")
	}
	// The removed links' connections are still alive below the adapter;
	// kill them so statconn re-establishes and the adapter re-adds.
	for _, c := range stale {
		model[uint64(c.Peer())] = c // LinkDown will report exactly these
		c.Kill()
	}
	formed("re-formed")

	hub.Stop()
	check("stopped")
	if len(model) != 0 {
		t.Fatalf("stopped: model still has %d links — LinkDown did not fire for each", len(model))
	}
	hub.Restart()
	formed("restarted")
}

// linkFuncs adapts two functions to statconn.LinkHandler; a nil one ignores
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
