package ble

import (
	"encoding/binary"
	"fmt"
	"testing"

	"blemesh/internal/phy"
	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
)

// TestLLNeverLosesOrReordersUnderNoise stamps every LL payload with a
// sequence number and verifies the acknowledged-exactly-once contract of
// the SN/NESN scheme under background noise, bidirectional load, and a
// second connection competing for the radio.
func TestLLNeverLosesOrReordersUnderNoise(t *testing.T) {
	s := sim.New(99)
	m := phy.NewMedium(s)
	m.AddInterference(phy.RandomNoise{PER: 0.005})
	mk := func(ppm float64, addr int) *testNode {
		clk := sim.NewClock(s, ppm)
		radio := m.NewRadio()
		ctrl := NewController(s, clk, radio, ControllerConfig{Addr: DevAddr(addr), PoolBytes: 1 << 20})
		return &testNode{ctrl: ctrl, radio: radio, clk: clk}
	}
	hub := mk(0.5, 0xA1)
	peer := mk(-0.7, 0xA2)
	other := mk(1.2, 0xA3)

	var hubConn, peerConn *Conn
	upcalls(hub.ctrl).Up = func(c *Conn) {
		if c.Peer() == peer.ctrl.Addr() {
			hubConn = c
		}
	}
	upcalls(peer.ctrl).Up = func(c *Conn) { peerConn = c }
	// hub <-> peer: hub coordinator. hub <-> other: hub subordinate
	// (so hub's radio is contended, like a forwarder).
	peer.ctrl.StartAdvertising(AdvParams{Interval: 90 * sim.Millisecond})
	p1 := ConnParams{Interval: 75 * sim.Millisecond}
	if err := p1.Validate(); err != nil {
		t.Fatal(err)
	}
	hub.ctrl.Connect(peer.ctrl.Addr(), p1)
	s.Run(3 * sim.Second)
	hub.ctrl.StartAdvertising(AdvParams{Interval: 90 * sim.Millisecond})
	p2 := ConnParams{Interval: 65 * sim.Millisecond}
	if err := p2.Validate(); err != nil {
		t.Fatal(err)
	}
	other.ctrl.Connect(hub.ctrl.Addr(), p2)
	s.Run(3 * sim.Second)
	if hubConn == nil || peerConn == nil {
		t.Fatal("connections not established")
	}

	// Bidirectional sequenced streams.
	var rxAtPeer, rxAtHub []uint32
	peerConn.OnData = DataFunc(func(_ LLID, p []byte, _ uint64) { rxAtPeer = append(rxAtPeer, binary.BigEndian.Uint32(p)) })
	hubConn.OnData = DataFunc(func(_ LLID, p []byte, _ uint64) { rxAtHub = append(rxAtHub, binary.BigEndian.Uint32(p)) })
	// Acknowledgements are the PDUs each end saw acked from here on.
	sentHub, sentPeer := uint32(0), uint32(0)
	baseHub, basePeer := hubConn.Stats().TXUnique, peerConn.Stats().TXUnique
	pump := func(c *Conn, seq *uint32) func() {
		var f func()
		f = func() {
			if c.Closed() {
				return
			}
			for c.QueueLen() < 8 {
				p := make([]byte, 40)
				binary.BigEndian.PutUint32(p, *seq)
				if !c.SendBuf(LLIDDataStart, pktbuf.FromBytes(p), 0) {
					break
				}
				*seq++
			}
			s.After(20*sim.Millisecond, f)
		}
		return f
	}
	s.After(0, pump(hubConn, &sentHub))
	s.After(0, pump(peerConn, &sentPeer))
	s.Run(s.Now() + 300*sim.Second)
	ackedHub := int(hubConn.Stats().TXUnique - baseHub)
	ackedPeer := int(peerConn.Stats().TXUnique - basePeer)

	check := func(dir string, rx []uint32, acked int) {
		for i, v := range rx {
			if v != uint32(i) {
				t.Fatalf("%s: position %d got seq %d (loss/reorder/dup)", dir, i, v)
			}
		}
		if acked > len(rx) {
			t.Fatalf("%s: %d acked but only %d delivered — LL acked a frame the peer never got",
				dir, acked, len(rx))
		}
		if len(rx) < 1000 {
			t.Fatalf("%s: only %d delivered in 300s", dir, len(rx))
		}
	}
	check("hub->peer", rxAtPeer, ackedHub)
	check("peer->hub", rxAtHub, ackedPeer)
	fmt.Printf("hub->peer delivered=%d acked=%d; peer->hub delivered=%d acked=%d; retrans=%d/%d\n",
		len(rxAtPeer), ackedHub, len(rxAtHub), ackedPeer, hubConn.Stats().Retrans, peerConn.Stats().Retrans)
}
