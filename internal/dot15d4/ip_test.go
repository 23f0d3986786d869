package dot15d4_test

// The IP-over-802.15.4 tests run the stack a network builds: the node of
// core.NewDot15d4Node, its MAC and 6LoWPAN adapter under the IPv6 stack and
// the CoAP endpoint.

import (
	"testing"

	"blemesh/internal/coap"
	"blemesh/internal/core"
	"blemesh/internal/dot15d4"
	"blemesh/internal/ip6"
	"blemesh/internal/phy"
	"blemesh/internal/sim"
)

func TestIPOverDot15d4SingleHop(t *testing.T) {
	s := sim.New(7)
	m := phy.NewMedium(s)
	a := core.NewDot15d4Node(s, m, "m3-1", 0x31, nil)
	b := core.NewDot15d4Node(s, m, "m3-2", 0x32, nil)
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
	n1 := core.NewDot15d4Node(s, m, "m3-1", 0x41, nil)
	n2 := core.NewDot15d4Node(s, m, "m3-2", 0x42, nil)
	n3 := core.NewDot15d4Node(s, m, "m3-3", 0x43, nil)
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
	a := core.NewDot15d4Node(s, m, "m3-1", 0x51, nil)
	b := core.NewDot15d4Node(s, m, "m3-2", 0x52, nil)
	got := false
	b.Stack.ListenUDP(7777, func(ip6.Addr, uint16, []byte) { got = true })
	if _, err := a.Stack.SendUDPPID(b.Addr(), 7777, 7777, make([]byte, 600)); err == nil {
		t.Fatal("a 600-byte UDP payload was accepted for one 802.15.4 frame")
	}
	s.Run(5 * sim.Second)
	if got {
		t.Fatal("oversize packet delivered")
	}
	if st := a.Adapter.Stats(); st.Oversize != 1 || st.TXPackets != 0 {
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
	a := core.NewDot15d4Node(s, m, "m3-1", 0x61, nil)
	b := core.NewDot15d4Node(s, m, "m3-2", 0x62, nil)
	// The sim never runs, so the MAC serves none: one frame goes into
	// service and dot15d4.QueueCap more wait behind it.
	for i := 0; i <= dot15d4.QueueCap; i++ {
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
	if st := a.Adapter.Stats(); st.QueueDrops != 1 {
		t.Fatalf("adapter stats %+v, want one queue drop", st)
	}
	if st := a.MAC.Stats(); st.QueueDrops != 1 || st.CCAFail+st.NoAck != 0 {
		t.Fatalf("MAC stats %+v, want one queue drop and no TX failure", st)
	}
	if st := a.Stack.Stats(); st.QueueDrops != 1 || st.Sent != uint64(dot15d4.QueueCap+1) {
		t.Fatalf("stack stats %+v, want one queue drop", st)
	}
}

// TestFrameAllocs counts what one unicast frame costs an 802.15.4 node, from
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
	a := core.NewDot15d4Node(s, m, "m3-1", 0x71, nil)
	b := core.NewDot15d4Node(s, m, "m3-2", 0x72, nil)
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
