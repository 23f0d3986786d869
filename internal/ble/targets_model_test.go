package ble

import (
	"math/rand"
	"testing"

	"blemesh/internal/sim"
)

// TestScanTargetsAgainstMapModel drives the controller's scan-target table
// through a random script of Connect (new and re-declared peers), Shutdown
// and targets consumed by an answered advertisement, and after every step
// compares it with a plain map[DevAddr]ConnParams kept here: same members,
// same parameters, and scanning on — with the formation state that holds the
// table allocated — exactly while the map is non-empty.
func TestScanTargetsAgainstMapModel(t *testing.T) {
	s, _, nodes := newTestNet(5, 0, 1, -1, 2)
	scanner := nodes[0].ctrl
	peers := []DevAddr{0x51, 0x52, 0x53, 0x54, 0x55, 0x56} // never on the air
	for _, n := range nodes[1:] {
		peers = append(peers, n.ctrl.Addr()) // advertise later in the script
	}
	model := map[DevAddr]ConnParams{}
	upcalls(scanner).Up = func(c *Conn) { delete(model, c.Peer()) }
	check := func(step int, op string) {
		t.Helper()
		f := scanner.form
		if (f != nil) != scanner.scanOn {
			t.Fatalf("step %d (%s): formation state held %v while scanning %v", step, op, f != nil, scanner.scanOn)
		}
		if f == nil {
			f = new(formation)
		}
		if len(f.scanTargets) != len(model) {
			t.Fatalf("step %d (%s): %d targets, model %d", step, op, len(f.scanTargets), len(model))
		}
		for _, p := range peers {
			got, ok := f.targetGet(p)
			want, wantOK := model[p]
			if ok != wantOK || got != want {
				t.Fatalf("step %d (%s): target %v = (%+v, %v), model (%+v, %v)", step, op, p, got, ok, want, wantOK)
			}
		}
		if scanner.scanOn != (len(model) > 0) {
			t.Fatalf("step %d (%s): scanning %v with %d targets", step, op, scanner.scanOn, len(model))
		}
	}
	rng := rand.New(rand.NewSource(17))
	advertising := 0
	for step := 0; step < 400; step++ {
		p := peers[rng.Intn(len(peers))]
		op := "connect"
		switch r := rng.Intn(20); {
		case r < 11:
			params := ConnParams{Interval: sim.Duration(6+rng.Intn(60)) * ConnIntervalUnit}
			if err := scanner.Connect(p, params); err != nil {
				t.Fatal(err)
			}
			// What the table must hold: the validated parameters with
			// this controller's declared clock accuracy.
			if err := params.Validate(); err != nil {
				t.Fatal(err)
			}
			params.CoordSCA = scanner.cfg.SCA
			model[p] = params
		case r < 14:
			op = "shutdown"
			scanner.Shutdown()
			model = map[DevAddr]ConnParams{}
		case advertising < len(nodes)-1:
			op = "advertiser appears"
			advertising++
			nodes[advertising].ctrl.StartAdvertising(AdvParams{Interval: 30 * sim.Millisecond, DataLen: 11})
		}
		check(step, op)
		s.Run(s.Now() + sim.Duration(rng.Intn(120))*sim.Millisecond)
		check(step, op+", then time passes")
	}
	if scanner.Events().ConnsOpened == 0 {
		t.Fatal("no target was ever consumed by a connection; the script lost its coverage")
	}
}
