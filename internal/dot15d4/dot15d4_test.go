package dot15d4

import (
	"bytes"
	"testing"

	"blemesh/internal/phy"
	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
)

// frames is a Receiver that counts the data frames a MAC hands up and keeps
// the last one and its source.
type frames struct {
	n    int
	src  uint64
	last []byte
}

func (f *frames) Receive(src uint64, p []byte, _ uint64) {
	f.n++
	f.src = src
	f.last = append(f.last[:0], p...)
}

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
	var got frames
	b.SetReceiver(&got)
	if !a.SendBuf(0x0B, pktbuf.FromBytes([]byte("frame")), 0) {
		t.Fatal("send rejected")
	}
	s.Run(sim.Second)
	if got.n != 1 || got.src != 0x0A || !bytes.Equal(got.last, []byte("frame")) {
		t.Fatalf("received %d frames, the last %q from %#x", got.n, got.last, got.src)
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
	var rxB, rxC frames
	b.SetReceiver(&rxB)
	c.SetReceiver(&rxC)
	a.SendBuf(BroadcastAddr, pktbuf.FromBytes([]byte("hello")), 0)
	s.Run(sim.Second)
	if rx := rxB.n + rxC.n; rx != 2 {
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
	var rx frames
	sink.SetReceiver(&rx)
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
	if rx.n < okCount {
		t.Fatalf("sink received %d < acked %d", rx.n, okCount)
	}
}
