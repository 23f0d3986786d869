package trace

import (
	"fmt"
	"testing"

	"blemesh/internal/sim"
)

// TestMultiSiteMergeByTime: rings registered against different sims (the
// sharded scheduler's per-domain clocks) merge on (At, seq) — timestamp
// first, site-tagged sequence as the tiebreaker.
func TestMultiSiteMergeByTime(t *testing.T) {
	s0, s1 := sim.New(1), sim.New(2)
	l := New(s0, 1024)
	l.RegisterNode("a", s0, 0)
	l.RegisterNode("b", s1, 1)
	l.Freeze()
	l.Enable()

	// Interleave emissions against out-of-order wall progress: site 1
	// emits at t=5ms before site 0 emits at t=3ms.
	s1.PostAt(5*sim.Millisecond, func() { l.Add("b", 0, 0, seqRec(1)) })
	s1.Run(10 * sim.Millisecond)
	s0.PostAt(3*sim.Millisecond, func() { l.Add("a", 0, 0, seqRec(1)) })
	s0.PostAt(5*sim.Millisecond, func() { l.Add("a", 0, 0, seqRec(2)) })
	s0.Run(10 * sim.Millisecond)

	evs := l.Events("")
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	// a1 (3ms) first; at 5ms site 0 precedes site 1.
	want := []string{"a1", "a2", "b1"}
	for i, d := range want {
		if got := fmt.Sprint(evs[i].Node, seqOf(evs[i])); got != d {
			t.Fatalf("pos %d: got %q want %q (order %v)", i, got, d, evs)
		}
	}
	if l.Total() != 3 {
		t.Fatalf("Total = %d, want 3", l.Total())
	}
}

// TestFrozenLogRefusesUnknownNodes: after Freeze, an unregistered emitter
// is a programming error, not a silent map mutation from a worker.
func TestFrozenLogRefusesUnknownNodes(t *testing.T) {
	s := sim.New(1)
	l := New(s, 64)
	l.RegisterNode("known", s, 0)
	l.Freeze()
	l.Enable()
	l.Add("known", 0, 0, seqRec(1))
	defer func() {
		if recover() == nil {
			t.Fatal("emit from unregistered node on frozen log did not panic")
		}
	}()
	l.Add("ghost", 0, 0, seqRec(2))
}

// TestDecidePktPerRing: sampling verdicts land on the minting node's ring
// when registered, and still sum correctly across rings and the legacy
// global counters.
func TestDecidePktPerRing(t *testing.T) {
	s := sim.New(1)
	l := New(s, 64)
	l.RegisterNode("a", s, 0)
	l.SetSampleRate(0.5)
	var kept int
	for id := uint64(1); id <= 100; id++ {
		if l.DecidePkt("a", id) {
			kept++
		}
	}
	for id := uint64(101); id <= 200; id++ {
		if l.DecidePkt("unregistered", id) {
			kept++
		}
	}
	if int(l.PktKept()) != kept || l.PktKept()+l.PktDropped() != 200 {
		t.Fatalf("kept=%d dropped=%d, want %d kept of 200", l.PktKept(), l.PktDropped(), kept)
	}
}
