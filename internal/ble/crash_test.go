package ble

import (
	"testing"

	"blemesh/internal/phy"
	"blemesh/internal/sim"
)

// TestCrashInsideFormationWindow crashes a controller (Shutdown) inside each
// window of link formation — an ADV_IND on the air, the listen window after
// it, the IFS before a CONNECT_IND, the CONNECT_IND on the air — and restarts
// its host at once. No step armed before the crash may act: the crash drops
// the formation state, and over the next 5 ms, which every such step falls
// inside, the crashed controller opens no link and its AdvEvents and
// ConnectsTX stay put. A restarted advertiser advertises at a 10 s interval,
// so its own first event falls after the window and its radio must stay
// idle throughout; a restarted initiator scans channel 37 while the
// advertiser's interrupted event moves on to 38 and 39, so it hears nothing,
// and the advertiser, which no CONNECT_IND reaches, opens no link either.
func TestCrashInsideFormationWindow(t *testing.T) {
	const window = 5 * sim.Millisecond
	cases := []struct {
		name       string
		advertiser bool // the advertiser crashes; else the initiator
		in         func(adv, init *Controller) bool
	}{
		{"ADV_IND airtime", true, func(adv, _ *Controller) bool { return adv.radio.State() == phy.RadioTX }},
		{"listen window", true, func(adv, _ *Controller) bool { return adv.radio.State() == phy.RadioRX }},
		{"IFS before CONNECT_IND", false, func(_, in *Controller) bool {
			return in.form != nil && in.form.initAct != nil && in.radio.State() != phy.RadioTX
		}},
		{"CONNECT_IND airtime", false, func(_, in *Controller) bool {
			return in.form != nil && in.form.initAct != nil && in.radio.State() == phy.RadioTX
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _, nodes := newTestNet(41, 0, 0)
			adv, init := nodes[0].ctrl, nodes[1].ctrl
			adv.StartAdvertising(AdvParams{Interval: 90 * sim.Millisecond, DataLen: 11})
			if err := init.Connect(adv.Addr(), params75()); err != nil {
				t.Fatal(err)
			}
			deadline := s.Now() + sim.Second
			for !tc.in(adv, init) {
				if s.Now() >= deadline {
					t.Fatal("the window never opened")
				}
				s.Run(s.Now() + 5*sim.Microsecond)
			}
			crashed, peer := init, adv
			if tc.advertiser {
				crashed, peer = adv, init
			}
			before, peerOpened := crashed.Events(), peer.Events().ConnsOpened

			crashed.Shutdown()
			if crashed.form != nil {
				t.Fatal("Shutdown kept the formation state")
			}
			end := s.Now() + window
			if tc.advertiser {
				adv.StartAdvertising(AdvParams{Interval: 10 * sim.Second, DataLen: 11})
				if adv.form.advNext <= end {
					t.Fatalf("the restarted advertiser's first event at %v falls inside the window", adv.form.advNext)
				}
			} else if err := init.Connect(adv.Addr(), params75()); err != nil {
				t.Fatal(err)
			}

			for s.Now() < end {
				s.Run(s.Now() + 5*sim.Microsecond)
				if tc.advertiser && adv.radio.State() != phy.RadioIdle {
					t.Fatalf("at %v the restarted advertiser's radio is %v", s.Now(), adv.radio.State())
				}
			}
			after := crashed.Events()
			if after.ConnsOpened != before.ConnsOpened || len(crashed.Conns()) != 0 {
				t.Errorf("a link opened on the crashed controller (%d -> %d opened, %d live)",
					before.ConnsOpened, after.ConnsOpened, len(crashed.Conns()))
			}
			if after.AdvEvents != before.AdvEvents || after.ConnectsTX != before.ConnectsTX {
				t.Errorf("AdvEvents %d -> %d, ConnectsTX %d -> %d",
					before.AdvEvents, after.AdvEvents, before.ConnectsTX, after.ConnectsTX)
			}
			if !tc.advertiser && peer.Events().ConnsOpened != peerOpened {
				t.Error("the advertiser accepted a CONNECT_IND from the crashed initiator")
			}
		})
	}
}
