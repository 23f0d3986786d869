package sim

import (
	"math"
	"math/bits"
)

// Hierarchical timer wheel geometry. Time is quantised into 65 536 ns ticks;
// eight levels of 64 slots each span 64^8 = 2^48 ticks, and every
// non-negative Time is a tick below 2^47, so every event has a slot: the
// wheel is the whole queue, and no timer waits anywhere else.
//
// A tick is coarse next to a BLE packet (80 µs empty, IFS 150 µs), so a
// level-0 slot often holds several events; the per-slot (when, seq) min-scan
// keeps the order exact, and the coarser tick saves a level on every long
// timer: the first five levels cover 4.2 ms, 268 ms, 17.2 s, 18.3 min and
// 19.5 h, so a 75 ms connection wake-up is placed twice (level 1, then
// level 0) and the BLE stack's timer horizons (1 µs, 150 µs, 75 ms, 4 s)
// touch three levels.
const (
	wheelShift  = 16 // tick granularity: 65 536 ns
	wheelBits   = 6  // slots per level
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 8
)

// wheelLevel is one ring of 64 slots. A slot is the head of an intrusive
// doubly-linked list threaded through Event.next/prev, so filing or
// cancelling an event never touches the allocator. The level's occupancy
// bitmap lives in the queue: that keeps a level at exactly 512 bytes (one
// more word would cost the next allocator size class) and lets pop compare
// levels without loading them.
type wheelLevel [wheelSlots]*Event

// wheelQueue is the production event-queue engine: O(1) scheduling into a
// bitmap-indexed slot, pops that scan at most one 64-bit word per level.
// Levels are allocated on first placement, so an idle queue is one 152-byte
// struct and a queue costs what the timer horizons it has actually seen
// cost — cheap enough to give every RF-isolated site of a city its own
// wheel.
//
// Invariants:
//   - cur never exceeds the tick of any queued event, so a slot never has
//     to distinguish events one wheel revolution apart;
//   - an event lives at the lowest level whose current 64-slot window
//     covers its tick, so cascades strictly descend;
//   - a cancelled event is unlinked from its slot at once, so the queue
//     never holds a dead event and len() counts what it holds.
//
// Events scheduled in a tick the cursor has already passed (possible when a
// cascade advances the cursor beyond the simulation clock) are filed in the
// cursor's own level-0 slot; the per-slot (when, seq) min-scan keeps them
// correctly ordered.
type wheelQueue struct {
	cur  int64 // current tick; no live event has a smaller tick
	live int
	// levelOcc summarises per-level occupancy: bit l is set while level l
	// has at least one occupied slot (and is therefore allocated). Sparse
	// queues (a handful of pending timers spread over several levels — the
	// cancel-heavy ACK pattern) pop without probing empty levels at all.
	levelOcc uint8
	occupied [wheelLevels]uint64 // bit i of word l set while level l slot i holds events
	level    [wheelLevels]*wheelLevel
}

func newWheelQueue() *wheelQueue { return &wheelQueue{} }

func tickOf(t Time) int64 { return int64(t) >> wheelShift }

func (w *wheelQueue) push(e *Event) {
	w.live++
	w.place(e)
}

// place files e at the lowest level whose current window covers the event's
// tick: the smallest L with (tick>>6L) − (cur>>6L) < 64. Comparing slot
// numbers rather than the raw tick delta guarantees an event never shares a
// slot with events a full revolution away. The search ends by the top
// level, where both shifted ticks are below 32. The event's idx records
// level<<6 | slot, so cancellation unlinks it without a search.
func (w *wheelQueue) place(e *Event) {
	tk := tickOf(e.when)
	if tk < w.cur {
		tk = w.cur
	}
	l, shift := 0, uint(0)
	for (tk>>shift)-(w.cur>>shift) >= wheelSlots {
		l++
		shift += wheelBits
	}
	lv := w.level[l]
	if lv == nil {
		lv = new(wheelLevel)
		w.level[l] = lv
	}
	i := int(tk>>shift) & wheelMask
	e.idx = l<<wheelBits | i
	head := lv[i]
	e.next = head
	if head != nil {
		head.prev = e
	}
	lv[i] = e
	w.occupied[l] |= 1 << uint(i)
	w.levelOcc |= 1 << uint(l)
}

// vacate clears the occupancy bits of a slot that just became empty.
func (w *wheelQueue) vacate(l, i int) {
	w.occupied[l] &^= 1 << uint(i)
	if w.occupied[l] == 0 {
		w.levelOcc &^= 1 << uint(l)
	}
}

// taken finishes a pop: e is out of its slot and is the global minimum.
func (w *wheelQueue) taken(e *Event) *Event {
	if tk := tickOf(e.when); tk > w.cur {
		w.cur = tk
	}
	e.idx = -1
	w.live--
	return e
}

// pop removes and returns the (when, seq)-minimum event with when <= limit,
// or nil. Higher-level slots whose window starts at or before the level-0
// candidate tick are cascaded down first — on a tie the cascaded slot may
// hold an event with an earlier sequence number, so equality must cascade.
func (w *wheelQueue) pop(limit Time) *Event {
	for {
		if w.live == 0 {
			return nil
		}
		var (
			t0 = int64(math.MaxInt64)
			s0 = -1
		)
		if w.levelOcc&1 != 0 {
			occ := w.occupied[0]
			i0 := int(w.cur) & wheelMask
			r := occ>>uint(i0) | occ<<uint(wheelSlots-i0)
			j := (i0 + bits.TrailingZeros64(r)) & wheelMask
			t0 = w.cur + int64((j-i0)&wheelMask)
			s0 = j
		}
		// Fast path: a level-0 slot at the cursor tick can be preceded (or
		// tied, which also matters — FIFO) only by a higher-level slot whose
		// window base is <= cur, and within the current window the sole such
		// slot at level l is the one indexed by the cursor itself; every
		// other occupied slot has base > cur. Two slots at different levels
		// can share a window base, and one cascade handles only one of them,
		// so "the cursor reached this tick" does not by itself prove the
		// higher levels are clear — the bit tests below do.
		fast := t0 == w.cur
		if fast {
			for occ := w.levelOcc &^ 1; occ != 0; occ &= occ - 1 {
				l := bits.TrailingZeros8(occ)
				iL := int(w.cur>>uint(wheelBits*l)) & wheelMask
				if w.occupied[l]&(1<<uint(iL)) != 0 {
					fast = false
					break
				}
			}
		}
		if !fast {
			// nextBase tracks the smallest window base of every occupied
			// higher-level slot other than the chosen one (including the
			// runner-up slot within the chosen level). It lower-bounds the
			// tick of every event outside the chosen slot and enables the
			// singleton direct-pop below.
			bestBase, nextBase := int64(math.MaxInt64), int64(math.MaxInt64)
			bestL, bestJ := -1, -1
			for occ := w.levelOcc &^ 1; occ != 0; occ &= occ - 1 {
				l := bits.TrailingZeros8(occ)
				shift := uint(wheelBits * l)
				q := w.cur >> shift
				iL := int(q) & wheelMask
				r := w.occupied[l]>>uint(iL) | w.occupied[l]<<uint(wheelSlots-iL)
				tz := bits.TrailingZeros64(r)
				j := (iL + tz) & wheelMask
				base := (q + int64(tz)) << shift
				if base < bestBase {
					if bestBase < nextBase {
						nextBase = bestBase
					}
					bestBase, bestL, bestJ = base, l, j
					if r2 := r &^ (1 << uint(tz)); r2 != 0 {
						b2 := (q + int64(bits.TrailingZeros64(r2))) << shift
						if b2 < nextBase {
							nextBase = b2
						}
					}
				} else if base < nextBase {
					nextBase = base
				}
			}
			if bestL >= 0 && bestBase <= t0 {
				lv := w.level[bestL]
				head := lv[bestJ]
				// Singleton direct pop: a slot holding one event whose tick
				// is strictly below the level-0 candidate and every other
				// slot's window base is the global (when, seq) minimum — no tie is possible across a strict
				// tick gap, so the cascade can be skipped. This is the
				// schedule-then-cancel steady state: a lone pending tick
				// timer parked one level up.
				if head.next == nil {
					if tk := tickOf(head.when); tk < t0 && tk < nextBase {
						if head.when > limit {
							return nil
						}
						lv[bestJ] = nil
						w.vacate(bestL, bestJ)
						return w.taken(head)
					}
				}
				// Advancing the cursor to the slot's window start is safe:
				// bestBase is a lower bound on every live event's tick.
				if bestBase > w.cur {
					w.cur = bestBase
				}
				// Detach the whole list first: re-placement always descends
				// to a lower level, so it cannot link back into this slot.
				lv[bestJ] = nil
				w.vacate(bestL, bestJ)
				for e := head; e != nil; {
					next := e.next
					w.place(e)
					e = next
				}
				continue
			}
		}
		if s0 < 0 {
			return nil
		}
		// Extract the (when, seq) minimum of slot s0.
		lv0 := w.level[0]
		head := lv0[s0]
		first := head
		for e := head.next; e != nil; e = e.next {
			if e.when < first.when || (e.when == first.when && e.seq < first.seq) {
				first = e
			}
		}
		if first.when > limit {
			return nil
		}
		if next := first.next; first == head {
			lv0[s0] = next
			if next == nil {
				w.vacate(0, s0)
			}
		} else {
			first.prev.next = next
			if next != nil {
				next.prev = first.prev
			}
		}
		return w.taken(first)
	}
}

// cancel unlinks an event from the list its idx names. The head of a list
// is the event the slot points at; its prev is never read, so place does
// not clear it, and an unlinked event keeps its stale links (place and the
// Sim free list overwrite them). Every pointer store spared is a write
// barrier spared while the collector runs.
func (w *wheelQueue) cancel(e *Event) {
	w.live--
	l, i := e.idx>>wheelBits, e.idx&wheelMask
	next := e.next
	if lv := w.level[l]; lv[i] == e {
		lv[i] = next
		if next == nil {
			w.vacate(l, i)
		}
		return
	}
	// A stale idx would splice a foreign list here; a nil prev (never
	// linked) or a neighbour that does not point back fails loudly instead.
	if e.prev.next != e {
		panic("sim: wheel cancel: event is not in its encoded slot")
	}
	e.prev.next = next
	if next != nil {
		next.prev = e.prev
	}
}

func (w *wheelQueue) len() int { return w.live }

// peek returns the earliest timestamp among live events without moving the
// cursor or cascading a slot. Within a
// level the first occupied slot from the cursor holds the level's minimum,
// but levels overlap: an event filed at level 2 an hour ago can be due
// before anything at level 0, so every occupied level is consulted — except
// one whose first slot starts at or after the best timestamp found so far,
// since a slot's window base bounds every event in it from below. (The one
// exception, an event filed behind the cursor, sits in the cursor's level-0
// slot, which is looked at first and so is never skipped.)
func (w *wheelQueue) peek() (Time, bool) {
	if w.live == 0 {
		return 0, false
	}
	best := Time(math.MaxInt64)
	for occ := w.levelOcc; occ != 0; occ &= occ - 1 {
		l := bits.TrailingZeros8(occ)
		shift := uint(wheelBits * l)
		q := w.cur >> shift
		iL := int(q) & wheelMask
		r := w.occupied[l]>>uint(iL) | w.occupied[l]<<uint(wheelSlots-iL)
		tz := bits.TrailingZeros64(r)
		if Time((q+int64(tz))<<shift<<wheelShift) >= best {
			continue
		}
		for e := w.level[l][(iL+tz)&wheelMask]; e != nil; e = e.next {
			if e.when < best {
				best = e.when
			}
		}
	}
	return best, true
}
