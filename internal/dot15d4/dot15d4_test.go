package dot15d4

import (
	"bytes"
	"testing"

	"blemesh/internal/coap"
	"blemesh/internal/ip6"
	"blemesh/internal/phy"
	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
)

func TestAirtime(t *testing.T) {
	// A 127-byte frame: (6+127)*32µs = 4256µs.
	if Airtime(127) != 4256*sim.Microsecond {
		t.Fatalf("airtime(127) = %v", Airtime(127))
	}
	if Airtime(AckFrameLen) != 352*sim.Microsecond {
		t.Fatalf("ack airtime = %v", Airtime(AckFrameLen))
	}
}

func TestUnicastWithAck(t *testing.T) {
	s := sim.New(1)
	m := phy.NewMedium(s)
	a := NewMAC(s, m, 0x0A)
	b := NewMAC(s, m, 0x0B)
	var got []byte
	b.SetReceiver(func(src uint64, p []byte, _ uint64) {
		if src == 0x0A {
			got = append([]byte(nil), p...)
		}
	})
	if !a.SendBuf(0x0B, pktbuf.FromBytes([]byte("frame")), 0) {
		t.Fatal("send rejected")
	}
	s.Run(sim.Second)
	if !bytes.Equal(got, []byte("frame")) {
		t.Fatalf("payload = %q", got)
	}
	if st := a.Stats(); st.Delivered != 1 || st.CCAFail+st.NoAck != 0 {
		t.Fatalf("sender stats %+v, want the frame delivered and no failure", st)
	}
	if a.Stats().RXAcks != 1 || b.Stats().AcksSent != 1 {
		t.Fatalf("ack counters: %+v / %+v", a.Stats(), b.Stats())
	}
}

func TestBroadcastNoAck(t *testing.T) {
	s := sim.New(2)
	m := phy.NewMedium(s)
	a := NewMAC(s, m, 0x0A)
	b := NewMAC(s, m, 0x0B)
	c := NewMAC(s, m, 0x0C)
	rx := 0
	b.SetReceiver(func(uint64, []byte, uint64) { rx++ })
	c.SetReceiver(func(uint64, []byte, uint64) { rx++ })
	a.SendBuf(BroadcastAddr, pktbuf.FromBytes([]byte("hello")), 0)
	s.Run(sim.Second)
	if rx != 2 {
		t.Fatalf("broadcast reached %d receivers", rx)
	}
	if b.Stats().AcksSent+c.Stats().AcksSent != 0 {
		t.Fatal("broadcast was acknowledged")
	}
}

func TestRetryAfterCollisionThenDrop(t *testing.T) {
	// A jammed channel blocks CCA forever: the sender must exhaust its
	// backoffs and report channel-access failure.
	s := sim.New(3)
	m := phy.NewMedium(s)
	m.AddInterference(phy.Jammer{Ch: Channel})
	a := NewMAC(s, m, 0x0A)
	a.SendBuf(0x0B, pktbuf.FromBytes([]byte("x")), 0)
	s.Run(10 * sim.Second)
	if a.Stats().Delivered != 0 {
		t.Fatal("send into jammed channel succeeded")
	}
	if a.Stats().CCAFail != 1 {
		t.Fatalf("CCAFail=%d", a.Stats().CCAFail)
	}
}

func TestNoAckDropsAfterMaxRetries(t *testing.T) {
	// Receiver that never acks (no radio at destination address).
	s := sim.New(4)
	m := phy.NewMedium(s)
	a := NewMAC(s, m, 0x0A)
	NewMAC(s, m, 0x0C) // bystander, not the destination
	a.SendBuf(0x0B, pktbuf.FromBytes([]byte("x")), 0)
	s.Run(10 * sim.Second)
	if a.Stats().Delivered != 0 {
		t.Fatal("unacked frame reported success")
	}
	st := a.Stats()
	if st.NoAck != 1 || st.Retries != MaxFrameRetries {
		t.Fatalf("NoAck=%d Retries=%d (want 1/%d)", st.NoAck, st.Retries, MaxFrameRetries)
	}
}

func TestQueueBound(t *testing.T) {
	s := sim.New(5)
	m := phy.NewMedium(s)
	m.AddInterference(phy.Jammer{Ch: Channel}) // block service
	a := NewMAC(s, m, 0x0A)
	accepted := 0
	for i := 0; i < 50; i++ {
		if a.SendBuf(0x0B, pktbuf.FromBytes([]byte{byte(i)}), 0) {
			accepted++
		}
	}
	if accepted > queueCap+1 {
		t.Fatalf("queue accepted %d frames, cap %d", accepted, queueCap)
	}
	if a.Stats().QueueDrops == 0 {
		t.Fatal("queue overflow not counted")
	}
	_ = s
}

func TestContentionManySenders(t *testing.T) {
	// 8 senders each deliver 20 unicast frames to one sink. At moderate
	// load CSMA/CA delivers the vast majority but not everything — data
	// frames collide with acknowledgements in the turnaround gap, the
	// loss process behind the paper's 83%% PDR under load (Fig. 10a).
	s := sim.New(6)
	m := phy.NewMedium(s)
	sink := NewMAC(s, m, 0xFF0)
	rx := 0
	sink.SetReceiver(func(uint64, []byte, uint64) { rx++ })
	var senders []*MAC
	for i := 0; i < 8; i++ {
		mac := NewMAC(s, m, uint64(0x100+i))
		senders = append(senders, mac)
		for j := 0; j < 20; j++ {
			j := j
			s.At(sim.Time(j)*100*sim.Millisecond+sim.Time(i)*7*sim.Millisecond, func() {
				mac.SendBuf(0xFF0, pktbuf.FromBytes(make([]byte, 50)), 0)
			})
		}
	}
	s.Run(60 * sim.Second)
	okCount, failCount := 0, 0
	for _, mac := range senders {
		st := mac.Stats()
		okCount += int(st.Delivered)
		failCount += int(st.CCAFail + st.NoAck)
	}
	if okCount+failCount != 160 {
		t.Fatalf("%d frames completed, want 160", okCount+failCount)
	}
	if okCount < 140 {
		t.Fatalf("only %d/160 frames acknowledged at moderate load", okCount)
	}
	if rx < okCount {
		t.Fatalf("sink received %d < acked %d", rx, okCount)
	}
}

func TestIPOverDot15d4SingleHop(t *testing.T) {
	s := sim.New(7)
	m := phy.NewMedium(s)
	a := NewNode(s, m, "m3-1", 0x31)
	b := NewNode(s, m, "m3-2", 0x32)
	b.Coap.Handler = func(_ ip6.Addr, req *coap.Message) *coap.Message {
		return &coap.Message{Type: coap.ACK, Code: coap.CodeValid}
	}
	ok := false
	var rtt sim.Duration
	req := &coap.Message{Type: coap.NON, Code: coap.CodeGET, Payload: make([]byte, 39)}
	req.SetPath("sensor")
	if err := a.Coap.Request(b.Addr(), req, func(mm *coap.Message, d sim.Duration, _ error) {
		ok = mm != nil
		rtt = d
	}); err != nil {
		t.Fatal(err)
	}
	s.Run(5 * sim.Second)
	if !ok {
		t.Fatal("CoAP over 802.15.4 failed")
	}
	// CSMA/CA backoffs are sub-ms: the RTT must be far below a BLE
	// connection interval (the Fig. 10b contrast).
	if rtt > 20*sim.Millisecond {
		t.Fatalf("single-hop RTT = %v, expected a few ms", rtt)
	}
}

func TestIPOverDot15d4MultiHopForwarding(t *testing.T) {
	s := sim.New(8)
	m := phy.NewMedium(s)
	n1 := NewNode(s, m, "m3-1", 0x41)
	n2 := NewNode(s, m, "m3-2", 0x42)
	n3 := NewNode(s, m, "m3-3", 0x43)
	// Static routes n1 -> n2 -> n3 and back.
	n1.AddHostRoute(n3, n2)
	n3.AddHostRoute(n1, n2)
	n3.Coap.Handler = func(_ ip6.Addr, req *coap.Message) *coap.Message {
		return &coap.Message{Type: coap.ACK, Code: coap.CodeValid}
	}
	delivered := 0
	for i := 0; i < 10; i++ {
		i := i
		s.After(sim.Duration(i)*200*sim.Millisecond, func() {
			req := &coap.Message{Type: coap.NON, Code: coap.CodeGET, Payload: make([]byte, 39)}
			req.SetPath("x")
			n1.Coap.Request(n3.Addr(), req, func(mm *coap.Message, _ sim.Duration, _ error) {
				if mm != nil {
					delivered++
				}
			})
		})
	}
	s.Run(30 * sim.Second)
	if delivered != 10 {
		t.Fatalf("delivered %d/10 over 2 hops", delivered)
	}
	if n2.Stack.Stats().Forwarded < 20 {
		t.Fatalf("middle node forwarded %d", n2.Stack.Stats().Forwarded)
	}
}

// TestOversizePacketDroppedOverDot15d4: there is no 6LoWPAN fragmentation,
// so a packet whose compressed form exceeds one frame is dropped at the
// adapter — counted, its pktbuf charge returned, and nothing panics.
func TestOversizePacketDroppedOverDot15d4(t *testing.T) {
	s := sim.New(9)
	m := phy.NewMedium(s)
	a := NewNode(s, m, "m3-1", 0x51)
	b := NewNode(s, m, "m3-2", 0x52)
	got := false
	b.Stack.ListenUDP(7777, func(ip6.Addr, uint16, []byte) { got = true })
	if _, err := a.Stack.SendUDPPID(b.Addr(), 7777, 7777, make([]byte, 600)); err == nil {
		t.Fatal("a 600-byte UDP payload was accepted for one 802.15.4 frame")
	}
	s.Run(5 * sim.Second)
	if got {
		t.Fatal("oversize packet delivered")
	}
	if st := a.NetIf.Stats(); st.Oversize != 1 || st.TXPackets != 0 {
		t.Fatalf("adapter stats %+v, want Oversize=1 and nothing sent", st)
	}
	if u := a.Stack.Pktbuf.Used(); u != 0 {
		t.Fatalf("pktbuf holds %d bytes after the drop", u)
	}
}

// TestOutputReportsMACQueueFull: a packet the MAC refuses because its queue
// is full is a failed Output — the stack counts the drop and the send
// errors — and its pktbuf charge is returned at once, not at a completion
// that never comes.
func TestOutputReportsMACQueueFull(t *testing.T) {
	s := sim.New(10)
	m := phy.NewMedium(s)
	a := NewNode(s, m, "m3-1", 0x61)
	b := NewNode(s, m, "m3-2", 0x62)
	// The sim never runs, so the MAC serves none: one frame goes into
	// service and queueCap more wait behind it.
	for i := 0; i <= queueCap; i++ {
		if _, err := a.Stack.SendUDPPID(b.Addr(), 7777, 7777, make([]byte, 39)); err != nil {
			t.Fatalf("packet %d refused below the queue bound: %v", i, err)
		}
	}
	used := a.Stack.Pktbuf.Used()
	if _, err := a.Stack.SendUDPPID(b.Addr(), 7777, 7777, make([]byte, 39)); err == nil {
		t.Fatal("a packet past the MAC queue bound was reported sent")
	}
	if u := a.Stack.Pktbuf.Used(); u != used {
		t.Fatalf("pktbuf holds %d bytes after the refused packet, %d before", u, used)
	}
	if st := a.NetIf.Stats(); st.QueueDrops != 1 {
		t.Fatalf("adapter stats %+v, want one queue drop", st)
	}
	if st := a.MAC.Stats(); st.QueueDrops != 1 || st.CCAFail+st.NoAck != 0 {
		t.Fatalf("MAC stats %+v, want one queue drop and no TX failure", st)
	}
	if st := a.Stack.Stats(); st.QueueDrops != 1 || st.Sent != uint64(queueCap+1) {
		t.Fatalf("stack stats %+v, want one queue drop", st)
	}
}

// TestFrameAllocs counts what one unicast frame costs the 802.15.4 twin, from
// the sender's IP stack through NetIf, both MACs and the acknowledgement to
// the receiver's stack. The queued entry is a value in the MAC's ring, the
// buffer's Put is the frame's completion, and every step the MAC schedules is
// a handler type over MAC, so no *txEntry, completion closure or event
// closure is allocated per frame. What still is: the data *Frame and the ACK
// *Frame, which phy.Packet carries until delivery.
func TestFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so the count is not the code path's")
	}
	s := sim.New(11)
	m := phy.NewMedium(s)
	a := NewNode(s, m, "m3-1", 0x71)
	b := NewNode(s, m, "m3-2", 0x72)
	got := 0
	b.Stack.ListenUDP(7777, func(ip6.Addr, uint16, []byte) { got++ })
	payload := make([]byte, 39)
	send := func() {
		if _, err := a.Stack.SendUDPPID(b.Addr(), 7777, 7777, payload); err != nil {
			t.Fatal(err)
		}
		s.Run(s.Now() + 20*sim.Millisecond)
	}
	send() // the pools and the timer wheel's levels fill here
	const runs = 200
	allocs := testing.AllocsPerRun(runs, send)
	// AllocsPerRun makes one warm-up call of its own.
	if st := a.MAC.Stats(); got != runs+2 || st.Delivered != runs+2 || st.Retries != 0 {
		t.Fatalf("%d of %d frames received, MAC stats %+v: want every frame acknowledged on its first try", got, runs+2, st)
	}
	if allocs > 2 {
		t.Errorf("one frame allocates %.0f times, budget 2 (it was 8 with the MAC's CSMA/CA, retry and ACK steps scheduled as closures and method values)", allocs)
	}
	t.Logf("allocations per frame: %.0f", allocs)
}
