package phy

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"blemesh/internal/sim"
)

// candidates returns the NodeIDs neighborScan yields for sender on channel
// 0, in visit order, down the selected path. It first tunes every other
// radio to that channel: the scan visits receiving radios only, so this asks
// the indexed scan and the linear oracle the same question — who is in
// range.
func candidates(m *Medium, sender *Radio, linear bool) []NodeID {
	for _, rd := range m.radios {
		if rd != sender {
			rd.StartListen(0)
		}
	}
	prev := m.linear
	m.linear = linear
	defer func() { m.linear = prev }()
	var out []NodeID
	m.neighborScan(sender, 0, func(r *Radio) {
		out = append(out, r.id)
	})
	return out
}

// requireSameScan asserts the linear oracle and the receive-list scan visit
// the same radios in the same order.
func requireSameScan(t *testing.T, m *Medium, sender *Radio) {
	t.Helper()
	lin := candidates(m, sender, true)
	idx := candidates(m, sender, false)
	if !reflect.DeepEqual(lin, idx) {
		t.Fatalf("sender %d: linear scan %v != indexed scan %v", sender.id, lin, idx)
	}
}

// TestGridBoundaryCandidates pins the range check at the exact geometric
// edges: radios at distance exactly r (in range — boundary inclusive), a
// hair beyond r (out), on multiples of r, at negative coordinates, and
// separated only vertically (3D distance).
func TestGridBoundaryCandidates(t *testing.T) {
	const r = 10.0
	s := sim.New(1)
	m := NewMedium(s)
	m.SetRange(r)

	sender := m.NewRadio()
	sender.SetPosition(0, 0, 0)

	place := func(x, y, z float64) *Radio {
		rd := m.NewRadio()
		rd.SetPosition(x, y, z)
		return rd
	}
	exactEast := place(r, 0, 0)                   // distance exactly r, due east
	beyond := place(math.Nextafter(r, 11), 0, 0)  // just out of range
	exactDiag := place(6, 8, 0)                   // 6-8-10 triple: distance exactly r, diagonal
	cellEdge := place(math.Nextafter(r, 9), 0, 0) // a hair inside r
	corner := place(-6, -8, 0)                    // negative coordinates, exactly r
	vertical := place(0, 0, r)                    // exactly r straight up (3D)
	tooHigh := place(0, 0, math.Nextafter(r, 11))
	farCell := place(2.5*r, 2.5*r, 0) // far out of range

	got := candidates(m, sender, false)
	want := []NodeID{exactEast.id, exactDiag.id, cellEdge.id, corner.id, vertical.id}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("boundary candidates = %v, want %v", got, want)
	}
	for _, out := range []*Radio{beyond, tooHigh, farCell} {
		for _, id := range got {
			if id == out.id {
				t.Fatalf("radio %d at out-of-range position made the candidate set", out.id)
			}
		}
	}
	requireSameScan(t, m, sender)
	// The relation is symmetric: every in-range radio sees the sender too.
	for _, rd := range []*Radio{exactEast, exactDiag, cellEdge, corner, vertical} {
		requireSameScan(t, m, rd)
	}
}

// TestGridMatchesLinearRandom sweeps randomized layouts — including radios
// planted on multiples of the range and at exactly range distance — and
// requires the indexed scan to equal the linear scan for every sender.
func TestGridMatchesLinearRandom(t *testing.T) {
	const r = 7.5
	for seed := int64(1); seed <= 5; seed++ {
		s := sim.New(seed)
		m := NewMedium(s)
		m.SetRange(r)
		rng := rand.New(rand.NewSource(seed))
		radios := make([]*Radio, 0, 120)
		for i := 0; i < 100; i++ {
			rd := m.NewRadio()
			rd.SetPosition(rng.Float64()*100-50, rng.Float64()*100-50, 0)
			radios = append(radios, rd)
		}
		// Radios on exact multiples of the range, and exact range-r pairs
		// around them.
		for i := 0; i < 10; i++ {
			rd := m.NewRadio()
			rd.SetPosition(float64(i-5)*r, float64(i%3)*r, 0)
			radios = append(radios, rd)
			pair := m.NewRadio()
			pair.SetPosition(float64(i-5)*r+r, float64(i%3)*r, 0)
			radios = append(radios, pair)
		}
		for _, rd := range radios {
			requireSameScan(t, m, rd)
		}
	}
}

// TestScanFollowsMove verifies the scan tracks SetPosition down both paths:
// a radio moved out of range drops out, one moved back in returns.
func TestScanFollowsMove(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s)
	m.SetRange(5)
	a := m.NewRadio()
	a.SetPosition(0, 0, 0)
	b := m.NewRadio()
	b.SetPosition(3, 0, 0)
	if got := candidates(m, a, false); len(got) != 1 || got[0] != b.id {
		t.Fatalf("before move: candidates %v, want [%d]", got, b.id)
	}
	b.SetPosition(40, 40, 0) // far out of range
	if got := candidates(m, a, false); len(got) != 0 {
		t.Fatalf("after move out: candidates %v, want none", got)
	}
	b.SetPosition(-4, 0, 0) // back in range, on the other side
	if got := candidates(m, a, false); len(got) != 1 || got[0] != b.id {
		t.Fatalf("after move back: candidates %v, want [%d]", got, b.id)
	}
	requireSameScan(t, m, a)
}

// TestRangeBeforeAndAfterRegistration pins SetRange semantics: enabling
// geometry after radios registered applies to them, and disabling returns to
// the everyone-hears-everyone scan.
func TestRangeBeforeAndAfterRegistration(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s)
	a := m.NewRadio()
	a.SetPosition(0, 0, 0)
	b := m.NewRadio()
	b.SetPosition(100, 0, 0)
	// Geometry-free: everyone hears everyone.
	if got := candidates(m, a, false); len(got) != 1 {
		t.Fatalf("geometry-free candidates %v, want [b]", got)
	}
	m.SetRange(10)
	if got := candidates(m, a, false); len(got) != 0 {
		t.Fatalf("geometric candidates %v, want none (100m apart, 10m range)", got)
	}
	requireSameScan(t, m, a)
	m.SetRange(0)
	if got := candidates(m, a, false); len(got) != 1 {
		t.Fatalf("after disabling geometry candidates %v, want [b]", got)
	}
}

// TestGeometricDelivery drives real transmissions: an in-range listener
// receives, an out-of-range listener does not, and two out-of-range senders
// transmitting simultaneously on one channel do not collide.
func TestGeometricDelivery(t *testing.T) {
	s := sim.New(1)
	m := NewMedium(s)
	m.SetRange(10)
	tx1 := m.NewRadio()
	tx1.SetPosition(0, 0, 0)
	near := m.NewRadio()
	near.SetPosition(5, 0, 0)
	far := m.NewRadio()
	far.SetPosition(50, 0, 0)
	tx2 := m.NewRadio()
	tx2.SetPosition(55, 0, 0)

	got := map[NodeID][]bool{}
	for _, rd := range []*Radio{near, far} {
		id := rd.ID()
		rd.SetReceiver(func(_ Packet, _ Channel, ok bool) { got[id] = append(got[id], ok) })
		rd.StartListen(0)
	}
	// Overlapping same-channel transmissions from RF-disjoint positions.
	tx1.Transmit(0, Packet{Bits: 64}, 100*sim.Microsecond, nil)
	tx2.Transmit(0, Packet{Bits: 64}, 100*sim.Microsecond, nil)
	s.Run(sim.Second)

	if want := []bool{true}; !reflect.DeepEqual(got[near.ID()], want) {
		t.Fatalf("near listener got %v, want %v (clean delivery from tx1 only)", got[near.ID()], want)
	}
	if want := []bool{true}; !reflect.DeepEqual(got[far.ID()], want) {
		t.Fatalf("far listener got %v, want %v (clean delivery from tx2 only)", got[far.ID()], want)
	}
	if c := m.Stats().Collisions; c != 0 {
		t.Fatalf("out-of-range senders collided: %d collisions", c)
	}
}

// randomField registers n radios at seeded random positions in a side×side
// square and drives one real transmission per radio, so every radio has
// been scanned for before a test starts changing the geometry.
func randomField(seed int64, n int, side, r float64) (*sim.Sim, *Medium, []*Radio) {
	s := sim.New(seed)
	m := NewMedium(s)
	m.SetRange(r)
	rng := rand.New(rand.NewSource(seed))
	radios := make([]*Radio, n)
	for i := range radios {
		radios[i] = m.NewRadio()
		radios[i].SetPosition(rng.Float64()*side, rng.Float64()*side, 0)
	}
	for _, rd := range radios {
		rd.Transmit(3, Packet{Bits: 80}, 80*sim.Microsecond, nil)
		s.Run(s.Now() + sim.Millisecond)
	}
	return s, m, radios
}

// requireAllSameScan holds every radio of the medium to requireSameScan.
func requireAllSameScan(t *testing.T, m *Medium) {
	t.Helper()
	for _, rd := range m.radios {
		requireSameScan(t, m, rd)
	}
}

// TestScanFollowsGeometryChanges changes who hears whom after every radio
// has transmitted, in each way the medium allows, and holds the scan to the
// linear oracle (visit set and order) for every radio afterwards. Each row
// also checks that its change is visible at all, so a scan that missed the
// change could not pass by agreeing with an oracle that did not move.
func TestScanFollowsGeometryChanges(t *testing.T) {
	const r = 10.0
	for _, tc := range []struct {
		name       string
		seed       int64
		n          int
		side       float64
		changeSeen func(t *testing.T, s *sim.Sim, m *Medium, radios []*Radio)
	}{
		{"SetPosition after the first TX", 1, 60, 60, func(t *testing.T, _ *sim.Sim, m *Medium, radios []*Radio) {
			a, b := radios[0], radios[len(radios)-1]
			b.SetPosition(1000, 1000, 0)
			requireAllSameScan(t, m)
			if slices.Contains(candidates(m, a, false), b.id) {
				t.Fatal("radio moved far away is still a neighbour")
			}
			b.SetPosition(a.px+1, a.py, 0)
			if !slices.Contains(candidates(m, a, false), b.id) || !slices.Contains(candidates(m, b, false), a.id) {
				t.Fatal("radio moved next to the sender is not a neighbour")
			}
		}},
		{"radio registered after the first TX", 2, 60, 60, func(t *testing.T, s *sim.Sim, m *Medium, radios []*Radio) {
			a := radios[7]
			late := m.NewRadio()
			late.SetPosition(a.px, a.py+2, 0)
			requireAllSameScan(t, m)
			if !slices.Contains(candidates(m, a, false), late.id) {
				t.Fatal("late radio missing from its neighbour's scan")
			}
			// And it is heard on the air, not just scanned.
			heard := 0
			late.SetReceiver(func(_ Packet, _ Channel, ok bool) {
				if ok {
					heard++
				}
			})
			late.StartListen(3)
			a.Transmit(3, Packet{Bits: 80}, 80*sim.Microsecond, nil)
			s.Run(s.Now() + sim.Millisecond)
			if heard != 1 {
				t.Fatalf("late radio heard %d packets from its neighbour, want 1", heard)
			}
			// A radio registered without a position sits on the origin, next
			// to the corner radio.
			corner := radios[0]
			corner.SetPosition(1, 1, 0)
			requireAllSameScan(t, m)
			unplaced := m.NewRadio()
			if !slices.Contains(candidates(m, corner, false), unplaced.id) {
				t.Fatal("radio registered without a position missing from its neighbour's scan")
			}
		}},
		{"SetRange shrinking and growing", 3, 60, 60, func(t *testing.T, _ *sim.Sim, m *Medium, radios []*Radio) {
			count := func() (n int) {
				for _, rd := range radios {
					n += len(candidates(m, rd, false))
				}
				return n
			}
			base := count()
			m.SetRange(r / 2)
			requireAllSameScan(t, m)
			small := count()
			m.SetRange(2 * r)
			large := count()
			if !(small < base && base < large) {
				t.Fatalf("neighbour pairs at r/2, r, 2r = %d, %d, %d: want strictly increasing", small, base, large)
			}
		}},
		{"second domain added late", 4, 40, 40, func(t *testing.T, s *sim.Sim, m *Medium, radios []*Radio) {
			// A medium is one RF domain, so the second domain is a second
			// medium on the same clock, its radios on the same spots.
			before := make([][]NodeID, len(radios))
			for i, rd := range radios {
				before[i] = candidates(m, rd, false)
			}
			m2 := NewMedium(s)
			m2.SetRange(r)
			twins := make([]*Radio, len(radios))
			heard := 0
			for i, rd := range radios {
				twins[i] = m2.NewRadio()
				twins[i].SetPosition(rd.px, rd.py, rd.pz)
				twins[i].SetReceiver(func(Packet, Channel, bool) { heard++ })
			}
			requireAllSameScan(t, m2)
			for i, rd := range radios {
				if got := candidates(m, rd, false); !reflect.DeepEqual(got, before[i]) {
					t.Fatalf("radio %d: neighbours changed when an RF-isolated medium was added: %v -> %v", rd.id, before[i], got)
				}
				// Both media number their radios from 0, so the twin hears the
				// twins of exactly the radios its original hears.
				if got := candidates(m2, twins[i], false); !reflect.DeepEqual(got, before[i]) {
					t.Fatalf("twin of radio %d hears %v, want %v", rd.id, got, before[i])
				}
			}
			// And nothing crosses on the air: every twin is tuned to the
			// channel its original's medium transmits on.
			for _, tw := range twins {
				tw.StartListen(3)
			}
			radios[0].Transmit(3, Packet{Bits: 80}, 80*sim.Microsecond, nil)
			s.Run(s.Now() + sim.Millisecond)
			if heard != 0 || m2.Busy(3) || m2.Stats().Transmissions != 0 {
				t.Fatalf("a transmission crossed media: %d indications, stats %+v", heard, m2.Stats())
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, m, radios := randomField(tc.seed, tc.n, tc.side, r)
			tc.changeSeen(t, s, m, radios)
			requireAllSameScan(t, m)
		})
	}
}

// TestNeighborScanReentrant transmits from inside a receiver callback: the
// nested Transmit runs a carrier scan — and builds the nested sender's
// neighbour list for the first time — while the outer end-of-packet scan is
// still walking its own. The order in which receivers are visited, nested
// deliveries included, must equal the linear oracle's.
func TestNeighborScanReentrant(t *testing.T) {
	run := func(linear bool) []NodeID {
		s := sim.New(1)
		m := NewMedium(s)
		m.SetRange(10)
		m.SetLinearScan(linear)
		var radios []*Radio
		var visits []NodeID
		for i := 0; i < 6; i++ {
			rd := m.NewRadio()
			rd.SetPosition(float64(i), 0, 0) // everyone in range of everyone
			radios = append(radios, rd)
		}
		for _, rd := range radios[1:] {
			rd := rd
			rd.SetReceiver(func(pkt Packet, ch Channel, ok bool) {
				visits = append(visits, rd.id)
				// The second and fourth receivers answer on the spot.
				if pkt.Src == radios[0].id && (rd == radios[2] || rd == radios[4]) {
					rd.Transmit(ch, Packet{Bits: 80}, 80*sim.Microsecond, sim.Func(func() { rd.StartListen(ch) }))
				}
			})
			rd.SetCarrier(func(Channel, sim.Time) { visits = append(visits, -rd.id) })
			rd.StartListen(7)
		}
		radios[0].Transmit(7, Packet{Bits: 80}, 80*sim.Microsecond, nil)
		s.Run(sim.Second)
		return visits
	}
	lin, cached := run(true), run(false)
	if len(lin) < 10 {
		t.Fatalf("scenario too quiet to prove anything: visits %v", lin)
	}
	if !reflect.DeepEqual(lin, cached) {
		t.Fatalf("reentrant visit order differs:\n linear %v\n cached %v", lin, cached)
	}
}
