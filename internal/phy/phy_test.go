package phy

import (
	"testing"
	"testing/quick"
	"unsafe"

	"blemesh/internal/sim"
)

func setup() (*sim.Sim, *Medium) {
	s := sim.New(1)
	return s, NewMedium(s)
}

func TestDeliveryToListener(t *testing.T) {
	s, m := setup()
	tx := m.NewRadio()
	rx := m.NewRadio()
	var got []Packet
	var oks []bool
	rx.SetReceiver(func(p Packet, ch Channel, ok bool) {
		got = append(got, p)
		oks = append(oks, ok)
	})
	rx.StartListen(5)
	tx.Transmit(5, Packet{Bits: 800, Payload: "hello"}, 800*sim.Microsecond, nil)
	s.Run(sim.Second)
	if len(got) != 1 || !oks[0] {
		t.Fatalf("want 1 clean delivery, got %d (oks=%v)", len(got), oks)
	}
	if got[0].Payload != "hello" || got[0].Src != tx.ID() {
		t.Fatalf("payload/src mismatch: %+v", got[0])
	}
}

func TestNoDeliveryWrongChannel(t *testing.T) {
	s, m := setup()
	tx := m.NewRadio()
	rx := m.NewRadio()
	n := 0
	rx.SetReceiver(func(Packet, Channel, bool) { n++ })
	rx.StartListen(6)
	tx.Transmit(5, Packet{Bits: 80}, 80*sim.Microsecond, nil)
	s.Run(sim.Second)
	if n != 0 {
		t.Fatalf("received %d packets on wrong channel", n)
	}
}

func TestNoDeliveryWhenTunedMidPacket(t *testing.T) {
	s, m := setup()
	tx := m.NewRadio()
	rx := m.NewRadio()
	n := 0
	rx.SetReceiver(func(Packet, Channel, bool) { n++ })
	s.After(0, func() { tx.Transmit(5, Packet{Bits: 8000}, sim.Millisecond, nil) })
	s.After(500*sim.Microsecond, func() { rx.StartListen(5) }) // too late
	s.Run(sim.Second)
	if n != 0 {
		t.Fatalf("mid-packet listener decoded a packet (n=%d)", n)
	}
}

func TestCollisionCorruptsBoth(t *testing.T) {
	s, m := setup()
	a := m.NewRadio()
	b := m.NewRadio()
	rx := m.NewRadio()
	var oks []bool
	rx.SetReceiver(func(_ Packet, _ Channel, ok bool) { oks = append(oks, ok) })
	rx.StartListen(9)
	s.After(0, func() { a.Transmit(9, Packet{Bits: 800}, 800*sim.Microsecond, nil) })
	s.After(100*sim.Microsecond, func() { b.Transmit(9, Packet{Bits: 800}, 800*sim.Microsecond, nil) })
	s.Run(sim.Second)
	if len(oks) != 2 {
		t.Fatalf("want 2 end-of-packet indications, got %d", len(oks))
	}
	for i, ok := range oks {
		if ok {
			t.Errorf("packet %d survived a collision", i)
		}
	}
	if st := m.Stats(); st.Collisions != 2 {
		t.Errorf("collision counter = %d, want 2", st.Collisions)
	}
}

// TestNoCollisionAcrossChannels: the medium keeps one in-flight list for
// every channel, so each use of it must look at the channel — collision
// marking, CCA (Busy), SoleListener, and removal on abort.
func TestNoCollisionAcrossChannels(t *testing.T) {
	s, m := setup()
	a := m.NewRadio()
	b := m.NewRadio()
	rx1 := m.NewRadio()
	rx2 := m.NewRadio()
	c := m.NewRadio()
	rx5 := m.NewRadio()
	ok1, ok2 := false, false
	rx1.SetReceiver(func(_ Packet, _ Channel, ok bool) { ok1 = ok })
	rx2.SetReceiver(func(_ Packet, _ Channel, ok bool) { ok2 = ok })
	rx1.StartListen(3)
	rx2.StartListen(4)
	a.Transmit(3, Packet{Bits: 80}, 80*sim.Microsecond, nil)
	b.Transmit(4, Packet{Bits: 80}, 80*sim.Microsecond, nil)
	s.Run(sim.Second)
	if !ok1 || !ok2 {
		t.Fatalf("cross-channel transmissions interfered: ok1=%v ok2=%v", ok1, ok2)
	}

	// Channels 3 and 4 in flight at once: channel 5 reads free and a packet
	// on it would reach rx5 alone; aborting channel 3 leaves channel 4's
	// packet whole.
	ok1, ok2 = true, false
	var got4 []Packet
	rx2.SetReceiver(func(p Packet, _ Channel, ok bool) { ok2 = ok; got4 = append(got4, p) })
	rx5.StartListen(5)
	a.Transmit(3, Packet{Bits: 800}, 800*sim.Microsecond, nil)
	b.Transmit(4, Packet{Bits: 800, Payload: "four"}, 800*sim.Microsecond, nil)
	if !m.Busy(3) || !m.Busy(4) || m.Busy(5) {
		t.Fatalf("Busy(3, 4, 5) = %v, %v, %v; want true, true, false", m.Busy(3), m.Busy(4), m.Busy(5))
	}
	if !c.SoleListener(5, rx5) {
		t.Fatal("SoleListener on channel 5 is false while only channels 3 and 4 carry packets")
	}
	if c.SoleListener(4, rx2) {
		t.Fatal("SoleListener on channel 4 is true under a packet in flight there")
	}
	a.AbortTX()
	if m.Busy(3) || !m.Busy(4) {
		t.Fatalf("after aborting channel 3: Busy(3, 4) = %v, %v; want false, true", m.Busy(3), m.Busy(4))
	}
	s.Run(2 * sim.Second)
	if ok1 || !ok2 || len(got4) != 1 || got4[0].Payload != "four" {
		t.Fatalf("channel 3 delivered ok=%v (want false), channel 4 ok=%v packets %v (want one \"four\")", ok1, ok2, got4)
	}
	if st := m.Stats(); st.Collisions != 0 {
		t.Fatalf("collisions = %d across channels, want 0", st.Collisions)
	}
}

func TestJammerKillsChannelAndTripsCCA(t *testing.T) {
	s, m := setup()
	m.AddInterference(Jammer{Ch: 22})
	tx := m.NewRadio()
	rx := m.NewRadio()
	var oks []bool
	rx.SetReceiver(func(_ Packet, _ Channel, ok bool) { oks = append(oks, ok) })
	rx.StartListen(22)
	tx.Transmit(22, Packet{Bits: 80}, 80*sim.Microsecond, nil)
	s.Run(sim.Second)
	if len(oks) != 1 || oks[0] {
		t.Fatalf("packet on jammed channel 22 should be corrupted: %v", oks)
	}
	if !m.Busy(22) {
		t.Error("jammed channel should read busy to CCA")
	}
	if m.Busy(21) {
		t.Error("channel 21 should be clear")
	}
}

func TestRandomNoisePER(t *testing.T) {
	s, m := setup()
	m.AddInterference(RandomNoise{PER: 0.3})
	tx := m.NewRadio()
	rx := m.NewRadio()
	delivered := 0
	total := 2000
	rx.SetReceiver(func(_ Packet, _ Channel, ok bool) {
		if ok {
			delivered++
		}
	})
	rx.StartListen(1)
	for i := 0; i < total; i++ {
		s.At(sim.Time(i)*sim.Millisecond, func() {
			tx.Transmit(1, Packet{Bits: 80}, 80*sim.Microsecond, nil)
		})
	}
	s.Run(sim.Hour)
	rate := float64(delivered) / float64(total)
	if rate < 0.65 || rate > 0.75 {
		t.Fatalf("delivery rate %v, want ~0.70 with PER 0.3", rate)
	}
}

func TestBusyDuringTransmission(t *testing.T) {
	s, m := setup()
	tx := m.NewRadio()
	s.After(0, func() { tx.Transmit(11, Packet{Bits: 8000}, sim.Millisecond, nil) })
	busyMid, busyAfter := false, true
	s.After(500*sim.Microsecond, func() { busyMid = m.Busy(11) })
	s.After(2*sim.Millisecond, func() { busyAfter = m.Busy(11) })
	s.Run(sim.Second)
	if !busyMid {
		t.Error("channel should be busy mid-transmission")
	}
	if busyAfter {
		t.Error("channel should be clear after transmission")
	}
}

func TestTransmitDoneCallbackAndState(t *testing.T) {
	s, m := setup()
	tx := m.NewRadio()
	var doneAt sim.Time
	tx.Transmit(2, Packet{Bits: 160}, 160*sim.Microsecond, sim.Func(func() { doneAt = s.Now() }))
	if tx.State() != RadioTX {
		t.Fatal("radio should be in TX state during transmission")
	}
	s.Run(sim.Second)
	if doneAt != 160*sim.Microsecond {
		t.Fatalf("done callback at %v, want 160us", doneAt)
	}
	if tx.State() != RadioIdle {
		t.Fatal("radio should be idle after transmission")
	}
}

func TestRXTimeAccounting(t *testing.T) {
	s, m := setup()
	r := m.NewRadio()
	s.After(0, func() { r.StartListen(7) })
	s.After(10*sim.Millisecond, func() { r.StopListen() })
	s.After(20*sim.Millisecond, func() { r.StartListen(8) })
	s.After(25*sim.Millisecond, func() { r.StopListen() })
	s.Run(sim.Second)
	if r.RXTime != 15*sim.Millisecond {
		t.Fatalf("RXTime = %v, want 15ms", r.RXTime)
	}
}

func TestTXTimeAccounting(t *testing.T) {
	s, m := setup()
	r := m.NewRadio()
	r.Transmit(1, Packet{Bits: 920}, 920*sim.Microsecond, nil)
	s.Run(sim.Second)
	if r.TXTime != 920*sim.Microsecond || r.TXPkts != 1 {
		t.Fatalf("TXTime=%v TXPkts=%d", r.TXTime, r.TXPkts)
	}
}

func TestListenChannelSwitchKeepsAccounting(t *testing.T) {
	s, m := setup()
	r := m.NewRadio()
	s.After(0, func() { r.StartListen(1) })
	s.After(5*sim.Millisecond, func() { r.StartListen(2) }) // retune
	s.After(8*sim.Millisecond, func() { r.StopListen() })
	s.Run(sim.Second)
	if r.RXTime != 8*sim.Millisecond {
		t.Fatalf("RXTime across retune = %v, want 8ms", r.RXTime)
	}
	if r.Listening() != -1 {
		t.Fatal("radio should not be listening after StopListen")
	}
}

func TestTransmitWhileListeningStopsRX(t *testing.T) {
	s, m := setup()
	r := m.NewRadio()
	s.After(0, func() { r.StartListen(1) })
	s.After(3*sim.Millisecond, func() {
		r.Transmit(1, Packet{Bits: 80}, 80*sim.Microsecond, nil)
	})
	s.Run(sim.Second)
	if r.RXTime != 3*sim.Millisecond {
		t.Fatalf("RXTime = %v, want 3ms (listen ends at TX)", r.RXTime)
	}
	if r.State() != RadioIdle {
		t.Fatal("radio should be idle after TX (listen not auto-resumed)")
	}
}

func TestQuickBroadcastReachesAllListeners(t *testing.T) {
	// Property: a clean transmission is delivered exactly once to every
	// radio listening on its channel from before the start, and to no
	// other radio.
	f := func(nRadios uint8, chRaw uint8, listenMask uint16) bool {
		n := int(nRadios%8) + 2
		ch := Channel(chRaw % NumChannels)
		s := sim.New(int64(nRadios) + int64(chRaw)<<8)
		m := NewMedium(s)
		tx := m.NewRadio()
		counts := make([]int, n)
		listening := make([]bool, n)
		for i := 0; i < n; i++ {
			i := i
			r := m.NewRadio()
			r.SetReceiver(func(_ Packet, c Channel, ok bool) {
				if c == ch && ok {
					counts[i]++
				}
			})
			if listenMask&(1<<uint(i)) != 0 {
				listening[i] = true
				r.StartListen(ch)
			}
		}
		tx.Transmit(ch, Packet{Bits: 80}, 80*sim.Microsecond, nil)
		s.Run(sim.Second)
		for i := 0; i < n; i++ {
			want := 0
			if listening[i] {
				want = 1
			}
			if counts[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicOnDoubleTransmit(t *testing.T) {
	s, m := setup()
	r := m.NewRadio()
	r.Transmit(1, Packet{Bits: 8000}, sim.Millisecond, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double transmit should panic")
		}
	}()
	r.Transmit(2, Packet{Bits: 80}, 80*sim.Microsecond, nil)
	_ = s
}

func TestRadioStateString(t *testing.T) {
	if RadioIdle.String() != "idle" || RadioRX.String() != "rx" || RadioTX.String() != "tx" {
		t.Fatal("RadioState strings wrong")
	}
}

func TestAbortTXFreesChannelAndCorruptsPacket(t *testing.T) {
	s, m := setup()
	tx := m.NewRadio()
	rx := m.NewRadio()
	var oks []bool
	rx.SetReceiver(func(_ Packet, _ Channel, ok bool) { oks = append(oks, ok) })
	rx.StartListen(5)
	s.After(0, func() { tx.Transmit(5, Packet{Bits: 8000}, sim.Millisecond, nil) })
	s.After(300*sim.Microsecond, func() {
		tx.AbortTX()
		if tx.State() != RadioIdle {
			t.Error("radio not idle after abort")
		}
		if m.Busy(5) {
			t.Error("channel busy after abort")
		}
	})
	s.Run(sim.Second)
	// The partial packet is reported corrupted at the listener.
	if len(oks) != 1 || oks[0] {
		t.Fatalf("aborted packet deliveries: %v", oks)
	}
	// Abort when idle is a no-op.
	tx.AbortTX()
	if tx.State() != RadioIdle {
		t.Fatal("no-op abort changed state")
	}
}

// TestRemoveActiveClearsVacatedSlot: transmissions are recycled, so a stale
// pointer left behind the in-flight slice's length would keep one — and its
// packet payload — reachable. Both removal paths (abort and end of packet)
// must nil the slot they vacate.
func TestRemoveActiveClearsVacatedSlot(t *testing.T) {
	s, m := setup()
	a, b, c := m.NewRadio(), m.NewRadio(), m.NewRadio()
	stale := func() int {
		lst := m.active
		n := 0
		for _, tx := range lst[len(lst):cap(lst)] {
			if tx != nil {
				n++
			}
		}
		return n
	}
	for _, r := range []*Radio{a, b, c} {
		r.Transmit(5, Packet{Bits: 800, Payload: make([]byte, 100)}, sim.Millisecond, nil)
	}
	a.AbortTX() // swap-remove from the front: the tail entry moves down
	if got := len(m.active); got != 2 || stale() != 0 {
		t.Fatalf("after abort: %d in flight, %d stale slots behind them; want 2, 0", got, stale())
	}
	s.Run(sim.Second)
	if got := len(m.active); got != 0 || stale() != 0 {
		t.Fatalf("after end of packet: %d in flight, %d stale slots; want 0, 0", got, stale())
	}
}

func TestCarrierCallbackFiresAtPacketStart(t *testing.T) {
	s, m := setup()
	tx := m.NewRadio()
	rx := m.NewRadio()
	var carrierAt, carrierEnd sim.Time
	rx.SetCarrier(func(_ Channel, end sim.Time) {
		carrierAt = s.Now()
		carrierEnd = end
	})
	rx.StartListen(3)
	s.After(100*sim.Microsecond, func() {
		tx.Transmit(3, Packet{Bits: 800}, 800*sim.Microsecond, nil)
	})
	s.Run(sim.Second)
	if carrierAt != 100*sim.Microsecond {
		t.Fatalf("carrier at %v, want 100us", carrierAt)
	}
	if carrierEnd != 900*sim.Microsecond {
		t.Fatalf("carrier end %v, want 900us", carrierEnd)
	}
}

func TestCarrierNotFiredForLateListener(t *testing.T) {
	s, m := setup()
	tx := m.NewRadio()
	rx := m.NewRadio()
	fired := false
	rx.SetCarrier(func(Channel, sim.Time) { fired = true })
	s.After(0, func() { tx.Transmit(3, Packet{Bits: 8000}, sim.Millisecond, nil) })
	s.After(500*sim.Microsecond, func() { rx.StartListen(3) })
	s.Run(sim.Second)
	if fired {
		t.Fatal("carrier fired for a mid-packet listener")
	}
}

// A Radio is allocated per node, so the formed 100k city pays its size 100 000
// times. It is 128 B, exactly one size class; growing past that moves a radio
// allocated by NewRadio alone into the 144 B class: shrink something else
// first.
func TestRadioFitsSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Radio{}); sz > 128 {
		t.Fatalf("unsafe.Sizeof(Radio{}) = %d, over the 128 B size class", sz)
	} else {
		t.Logf("unsafe.Sizeof(Radio{}) = %d", sz)
	}
}
