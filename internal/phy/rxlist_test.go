package phy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"blemesh/internal/sim"
)

// indication is one callback a medium made: kind 'C' (carrier) or 'R'
// (end of packet), the radio that got it (its index in rxWorld.radios, which
// on the first medium is its NodeID), the channel, and ok (always true for a
// carrier indication).
type indication struct {
	kind  byte
	radio int
	ch    Channel
	ok    bool
}

func (i indication) String() string {
	return fmt.Sprintf("%c%d/ch%d/%v", i.kind, i.radio, i.ch, i.ok)
}

// rxWorld is two geometry-free media on one clock — two RF-isolated sites
// whose transmissions interleave in time — whose radios log every indication.
// inScan, when set, runs inside every callback — the hook the reentrancy
// script uses to retune radios (of either medium) in the middle of a scan.
type rxWorld struct {
	s      *sim.Sim
	media  [2]*Medium
	radios []*Radio
	log    []indication
	inScan func(visited *Radio, ch Channel)
}

func newRXWorld(linear bool, perMedium int) *rxWorld {
	w := &rxWorld{s: sim.New(1)}
	for i := range w.media {
		m := NewMedium(w.s)
		m.SetLinearScan(linear)
		w.media[i] = m
		for j := 0; j < perMedium; j++ {
			rd, idx := m.NewRadio(), len(w.radios)
			rd.SetCarrier(func(ch Channel, _ sim.Time) {
				w.log = append(w.log, indication{'C', idx, ch, true})
				if w.inScan != nil {
					w.inScan(rd, ch)
				}
			})
			rd.SetReceiver(func(_ Packet, ch Channel, ok bool) {
				w.log = append(w.log, indication{'R', idx, ch, ok})
				if w.inScan != nil {
					w.inScan(rd, ch)
				}
			})
			w.radios = append(w.radios, rd)
		}
	}
	return w
}

// checkRXLists asserts the invariant the indexed scan rests on: a radio is
// in its medium's list exactly while its state is RadioRX, and every list is
// strictly increasing in NodeID (sorted, no duplicates).
func (w *rxWorld) checkRXLists(t *testing.T, step int) {
	t.Helper()
	listed := make(map[*Radio]bool)
	for d, m := range w.media {
		for i, rd := range m.rx {
			if rd.medium != m {
				t.Fatalf("step %d: radio %d of another medium listed in medium %d", step, rd.id, d)
			}
			if i > 0 && m.rx[i-1].id >= rd.id {
				t.Fatalf("step %d: medium %d list not strictly increasing at %d: %d then %d",
					step, d, i, m.rx[i-1].id, rd.id)
			}
			listed[rd] = true
		}
	}
	for _, rd := range w.radios {
		if listed[rd] != (rd.state == RadioRX) {
			t.Fatalf("step %d: radio %d state %v, listed %v", step, rd.id, rd.state, listed[rd])
		}
	}
}

// act applies one random radio operation. The draw sequence depends only on
// rng and on radio states, which both worlds of a differential pair share as
// long as they behave identically.
func (w *rxWorld) act(rng *rand.Rand) {
	rd := w.radios[rng.Intn(len(w.radios))]
	ch := Channel(rng.Intn(3))
	switch op := rng.Intn(10); {
	case op < 4: // same channel, other channel and RX→RX retune all land here
		if rd.state != RadioTX {
			rd.StartListen(ch)
		}
	case op < 6:
		rd.StopListen()
	case op < 9:
		if rd.state != RadioTX {
			air := sim.Duration(40+rng.Intn(300)) * sim.Microsecond
			rd.Transmit(ch, Packet{Bits: 80}, air, nil)
		}
	default:
		rd.AbortTX()
	}
}

// TestRXListMatchesLinearRandom drives geometry-free media down the
// RX-list path and their twins down the every-radio oracle with one random
// script of StartListen, StopListen, Transmit and AbortTX: the two must make
// the same indications in the same order, and the list invariant must hold
// after every step.
func TestRXListMatchesLinearRandom(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		idx, lin := newRXWorld(false, 6), newRXWorld(true, 6)
		driveBoth(t, idx, lin, seed, 2000)
	}
}

// driveBoth applies one random script to the indexed world and its linear
// twin, lets transmissions end between operations, checks the list invariant
// after every step, and requires identical indication logs.
func driveBoth(t *testing.T, idx, lin *rxWorld, seed int64, steps int) {
	t.Helper()
	ri, rl := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	for step := 0; step < steps; step++ {
		idx.act(ri)
		lin.act(rl)
		idx.checkRXLists(t, step)
		lin.checkRXLists(t, step)
		until := idx.s.Now() + sim.Duration(ri.Intn(150))*sim.Microsecond
		rl.Intn(150)
		idx.s.Run(until)
		lin.s.Run(until)
		idx.checkRXLists(t, step)
	}
	if len(idx.log) < 200 {
		t.Fatalf("seed %d: only %d indications, script too quiet", seed, len(idx.log))
	}
	if !reflect.DeepEqual(idx.log, lin.log) {
		t.Fatalf("seed %d: indexed and linear scans diverge (%d vs %d indications)\n%s",
			seed, len(idx.log), len(lin.log), firstDiff(idx.log, lin.log))
	}
}

func firstDiff(a, b []indication) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("first difference at %d: indexed %v, linear %v", i, a[i], b[i])
		}
	}
	return "one log is a prefix of the other"
}

// TestRXListScanReentrantRandom retunes radios from inside the scan: every
// callback stops or retunes the visited radio, starts or stops another one
// (of lower or higher NodeID) on the scanned channel, or transmits. The
// every-radio loop looks at a radio's state when it reaches it; the list
// walk must see exactly the same radios.
func TestRXListScanReentrantRandom(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		idx, lin := newRXWorld(false, 7), newRXWorld(true, 7)
		for _, w := range []*rxWorld{idx, lin} {
			w := w
			rng := rand.New(rand.NewSource(seed * 977))
			depth := 0
			w.inScan = func(visited *Radio, ch Channel) {
				other := w.radios[rng.Intn(len(w.radios))]
				switch rng.Intn(6) {
				case 0:
					visited.StopListen()
				case 1:
					visited.StartListen(Channel(rng.Intn(3)))
				case 2:
					if other.state != RadioTX {
						other.StartListen(ch)
					}
				case 3:
					other.StopListen()
				case 4:
					// Nested scans go two deep at most, or a script in which
					// everyone answers everyone never ends.
					if visited.state != RadioTX && depth < 2 {
						depth++
						visited.Transmit(ch, Packet{Bits: 80}, 60*sim.Microsecond, nil)
						depth--
					}
				}
			}
		}
		driveBoth(t, idx, lin, seed, 1500)
	}
}

// TestRXListScanVisitsAtVisitTime pins the one case a snapshot of the list
// gets wrong. Radio 2 transmits while 1 and 3 listen; 1's carrier callback
// starts 0 and 4 listening on the channel and stops 3. The scan has passed
// 0, has not reached 4, and must no longer find 3.
func TestRXListScanVisitsAtVisitTime(t *testing.T) {
	for _, linear := range []bool{false, true} {
		w := newRXWorld(linear, 6)
		r := w.radios
		r[1].StartListen(7)
		r[3].StartListen(7)
		w.inScan = func(visited *Radio, ch Channel) {
			if visited == r[1] && len(w.log) == 1 {
				r[0].StartListen(ch)
				r[4].StartListen(ch)
				r[3].StopListen()
			}
		}
		r[2].Transmit(7, Packet{Bits: 80}, 80*sim.Microsecond, nil)
		want := []indication{{'C', 1, 7, true}, {'C', 4, 7, true}}
		if !reflect.DeepEqual(w.log, want) {
			t.Fatalf("linear=%v: carrier indications %v, want %v", linear, w.log, want)
		}
		w.checkRXLists(t, 0)
		// At the end of the packet 0, 1 and 4 are all tuned in since its
		// first bit.
		w.log = nil
		w.s.Run(sim.Millisecond)
		want = []indication{{'R', 0, 7, true}, {'R', 1, 7, true}, {'R', 4, 7, true}}
		if !reflect.DeepEqual(w.log, want) {
			t.Fatalf("linear=%v: end-of-packet indications %v, want %v", linear, w.log, want)
		}
	}
}
