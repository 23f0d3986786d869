// Package pktbuf provides the pooled, headroom-reserving packet buffers the
// whole datapath (CoAP → ip6 → 6LoWPAN → L2CAP → BLE / 802.15.4) threads by
// reference, in the style of RIOT GNRC's pktbuf and the kernel's skbuff: a
// packet is allocated once with enough headroom for the worst-case header
// stack, each layer prepends its header in place, and fragmentation /
// segmentation / retransmission queues hold refcounted views into the same
// backing arena instead of copying payload bytes.
//
// Buffers come from size-classed sync.Pools. Refcounting is explicit: Get
// (or New/Slice/Ref) acquires, Put releases; the final Put returns the arena
// to its pool. Arenas are owned by a single goroutine between Get and the
// final Put — the simulation is single-threaded per Sim — so reference
// counts are plain integers; the pools themselves are safe to share across
// the parallel sweep's worker goroutines.
//
// Tests can disable pooling process-wide (SetPooling(false)), in which case
// every Get is a plain make and every final Put drops the arena for the GC.
// The datapath must behave byte-identically in both modes; the equivalence
// tests in internal/exp lock that down.
package pktbuf

import (
	"fmt"
	"sync"
)

// DefaultHeadroom is the worst-case header stack the datapath prepends in
// place: IPv6 (40) + UDP (8) is the largest uncompressed form, 6LoWPAN
// IPHC recompression and the L2CAP SDU/basic headers all fit in the space
// those vacate plus this reserve. 64 bytes leaves slack for the 2-byte SDU
// header, the 4-byte basic header and alignment.
const DefaultHeadroom = 64

// Size classes. The small class covers LL fragments and K-frame PDUs, the
// mid class a full compressed 6LoWPAN frame or the paper's 100-byte IP
// packets with headroom, the large class a worst-case 1280-byte IPv6 MTU
// reassembly plus headroom.
var classSizes = [...]int{256, 1664, 4096}

type arena struct {
	data []byte
	refs int32
	// class is the index into classSizes, or -1 for an oversized arena
	// (never pooled).
	class int8
	// [sharedLo, sharedHi) is the union of all view ranges that were ever
	// shared (Slice/Ref) while this arena had multiple handles. Prepend and
	// Append that would write inside it migrate to a fresh arena first
	// (copy-on-write), so no view extension can corrupt a sibling view.
	// Cleared when the handle count returns to 1.
	sharedLo, sharedHi int
}

// share widens the arena's shared range to include [lo, hi).
func (a *arena) share(lo, hi int) {
	if a.sharedHi <= a.sharedLo { // empty
		a.sharedLo, a.sharedHi = lo, hi
		return
	}
	if lo < a.sharedLo {
		a.sharedLo = lo
	}
	if hi > a.sharedHi {
		a.sharedHi = hi
	}
}

// overlapsShared reports whether writing [lo, hi) could touch bytes of a
// sibling view.
func (a *arena) overlapsShared(lo, hi int) bool {
	return a.refs > 1 && lo < a.sharedHi && hi > a.sharedLo
}

// Buf is one refcounted view [off,end) into a backing arena. The zero Buf
// is invalid; obtain one through Get, New, or Slice.
type Buf struct {
	a   *arena
	off int
	end int
}

var (
	poolingOn = true

	arenaPools [len(classSizes)]sync.Pool
	bufPool    = sync.Pool{New: func() any { return new(Buf) }}
)

// SetPooling is the reference switch of internal/exp's
// TestPoolingByteIdentity and TestPacketPathAllocBudget: off, every Get is a
// plain make, the path the pooled one is compared against. Nothing outside
// tests calls it; flip it only while no buffers are live.
func SetPooling(on bool) { poolingOn = on }

func classFor(n int) int {
	for c, sz := range classSizes {
		if n <= sz {
			return c
		}
	}
	return -1
}

func getArena(n int) *arena {
	c := classFor(n)
	if poolingOn && c >= 0 {
		if v := arenaPools[c].Get(); v != nil {
			a := v.(*arena)
			a.refs = 1
			a.sharedLo, a.sharedHi = 0, 0
			return a
		}
	}
	sz := n
	if c >= 0 {
		sz = classSizes[c]
	}
	return &arena{data: make([]byte, sz), refs: 1, class: int8(c)}
}

func putArena(a *arena) {
	if poolingOn && a.class >= 0 {
		arenaPools[a.class].Put(a)
	}
}

func getBuf() *Buf {
	if poolingOn {
		return bufPool.Get().(*Buf)
	}
	return new(Buf)
}

func putBuf(b *Buf) {
	b.a, b.off, b.end = nil, 0, 0
	if poolingOn {
		bufPool.Put(b)
	}
}

// New returns an empty buffer whose view starts headroom bytes into an
// arena with capacity for at least headroom+capHint bytes. The caller owns
// one reference.
func New(headroom, capHint int) *Buf {
	a := getArena(headroom + capHint)
	b := getBuf()
	b.a, b.off, b.end = a, headroom, headroom
	return b
}

// Get returns a buffer of length n preceded by headroom bytes of reserve.
// The n bytes are NOT zeroed unless the arena is fresh — callers must write
// before they read (the pool-poisoning test enforces it).
func Get(headroom, n int) *Buf {
	b := New(headroom, n)
	b.end += n
	return b
}

// FromBytes returns a pooled buffer holding a copy of p with the default
// headroom reserve. It is the boundary constructor for []byte-based callers.
func FromBytes(p []byte) *Buf {
	b := Get(DefaultHeadroom, len(p))
	copy(b.Bytes(), p)
	return b
}

// Bytes returns the current view. The slice aliases the arena: it is valid
// until the buffer's final Put and must not be retained past it.
func (b *Buf) Bytes() []byte { return b.a.data[b.off:b.end] }

// Len returns the view length.
func (b *Buf) Len() int { return b.end - b.off }

// Headroom returns the bytes available for Prepend without growing.
func (b *Buf) Headroom() int { return b.off }

// Prepend extends the view n bytes to the front and returns the new front
// region. If the headroom is exhausted the buffer migrates to a larger
// arena (views sharing the old arena are unaffected).
func (b *Buf) Prepend(n int) []byte {
	if n < 0 {
		panic("pktbuf: negative prepend")
	}
	if b.off < n {
		b.grow(n-b.off, 0)
	} else if b.a.overlapsShared(b.off-n, b.off) {
		b.grow(n, 0) // copy-on-write: the headroom belongs to a sibling
	}
	b.off -= n
	return b.a.data[b.off : b.off+n]
}

// Append extends the view n bytes at the back and returns the appended
// region, growing the arena if the tailroom is exhausted.
func (b *Buf) Append(n int) []byte {
	if n < 0 {
		panic("pktbuf: negative append")
	}
	if len(b.a.data)-b.end < n {
		b.grow(0, n-(len(b.a.data)-b.end))
	} else if b.a.overlapsShared(b.end, b.end+n) {
		b.grow(0, n) // copy-on-write: the tailroom belongs to a sibling
	}
	out := b.a.data[b.end : b.end+n]
	b.end += n
	return out
}

// AppendBytes appends a copy of p to the view.
func (b *Buf) AppendBytes(p []byte) { copy(b.Append(len(p)), p) }

// TrimFront drops n bytes from the front of the view (they become headroom).
func (b *Buf) TrimFront(n int) {
	if n < 0 || n > b.Len() {
		panic(fmt.Sprintf("pktbuf: trim front %d of %d", n, b.Len()))
	}
	b.off += n
}

// Trim truncates the view to length n (the cut bytes become tailroom).
func (b *Buf) Trim(n int) {
	if n < 0 || n > b.Len() {
		panic(fmt.Sprintf("pktbuf: trim to %d of %d", n, b.Len()))
	}
	b.end = b.off + n
}

// grow migrates the view to a larger arena with at least the requested
// extra head/tail space, preserving the view bytes. Views sharing the old
// arena keep it intact — grow never recycles an arena with outstanding
// references, and the migrating buffer transfers its own reference.
func (b *Buf) grow(needHead, needTail int) {
	oldLen := b.Len()
	head := b.off + needHead
	if needHead > 0 && head < DefaultHeadroom {
		head = DefaultHeadroom // re-arm the reserve, not just the one prepend
	}
	tail := (len(b.a.data) - b.end) + needTail
	a := getArena(head + oldLen + tail)
	copy(a.data[head:], b.Bytes())
	old := b.a
	b.a, b.off, b.end = a, head, head+oldLen
	old.refs--
	if old.refs == 0 {
		putArena(old)
	} else if old.refs == 1 {
		old.sharedLo, old.sharedHi = 0, 0
	} else if old.refs < 0 {
		panic("pktbuf: grow of released buf")
	}
}

// Ref returns a new handle on the same view for an additional owner, adding
// a reference to the backing arena. Each handle is released with its own
// Put; handles must never be shared between owners.
func (b *Buf) Ref() *Buf {
	if b.a == nil {
		panic("pktbuf: ref of released buf")
	}
	b.a.refs++
	b.a.share(b.off, b.end)
	nb := getBuf()
	nb.a, nb.off, nb.end = b.a, b.off, b.end
	return nb
}

// Slice returns a new buffer viewing [i,j) of b (relative to b's view),
// sharing the arena and holding its own reference. Prepend/Append on any
// handle of a shared arena copy-on-write when they would touch bytes a
// sibling view can see, so views cannot corrupt each other; mutating
// Bytes() of a shared view remains the caller's responsibility.
func (b *Buf) Slice(i, j int) *Buf {
	if i < 0 || j < i || j > b.Len() {
		panic(fmt.Sprintf("pktbuf: slice [%d:%d) of %d", i, j, b.Len()))
	}
	b.a.refs++
	b.a.share(b.off, b.end)
	nb := getBuf()
	nb.a, nb.off, nb.end = b.a, b.off+i, b.off+j
	return nb
}

// Clone returns an independent pooled copy of the view with the default
// headroom (for receivers that must own their bytes).
func (b *Buf) Clone() *Buf {
	nb := Get(DefaultHeadroom, b.Len())
	copy(nb.Bytes(), b.Bytes())
	return nb
}

// Put releases the caller's reference. The final reference returns the
// arena to its size-class pool. Releasing an already-released buffer
// panics — a double Put means two owners think they hold the last
// reference, which would hand one packet's bytes to two packets.
func (b *Buf) Put() {
	if b.a == nil {
		panic("pktbuf: double put")
	}
	a := b.a
	putBuf(b)
	a.refs--
	if a.refs == 0 {
		putArena(a)
	} else if a.refs == 1 {
		a.sharedLo, a.sharedHi = 0, 0
	} else if a.refs < 0 {
		panic("pktbuf: arena refcount underflow")
	}
}

// Refs returns the backing arena's reference count (test hook).
func (b *Buf) Refs() int { return int(b.a.refs) }
