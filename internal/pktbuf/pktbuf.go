// Package pktbuf provides the pooled, headroom-reserving packet buffers the
// whole datapath (CoAP → ip6 → 6LoWPAN → L2CAP → BLE / 802.15.4) threads by
// pointer, in the style of RIOT GNRC's pktbuf and the kernel's skbuff: a
// packet is allocated once with enough headroom for the worst-case header
// stack and each layer prepends its header in place.
//
// A buffer has exactly one owner. Get (or New, FromBytes, Clone) acquires,
// Put releases and returns the arena to its size-classed sync.Pool; handing
// a buffer to another layer hands over ownership. A layer that splits a
// packet (L2CAP segmentation) copies each segment into a buffer of its own.
// Between Get and Put an arena belongs to a single goroutine — the
// simulation is single-threaded per Sim — while the pools themselves are
// safe to share across the parallel sweep's worker goroutines.
//
// A buffer may also carry a charge on a byte budget (the node's GNRC-style
// packet pool, ip6.Pool): the interface queue bills a frame to the budget
// when it queues it (Charge), and Put of the buffer that carries the charge
// returns it. A layer that splits a buffer moves the charge to the buffer
// that completes last (MoveCharge), so the charge is held exactly until the
// whole packet is delivered or dropped.
//
// Tests can disable pooling process-wide (SetPooling(false)), in which case
// every Get is a plain make and every Put drops the arena for the GC.
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
	// class is the index into classSizes, or -1 for an oversized arena
	// (never pooled).
	class int8
}

// Buf is the view [off,end) into the backing arena it owns. The zero Buf
// is invalid; obtain one through Get, New, or FromBytes.
type Buf struct {
	a   *arena
	off int
	end int
	// budget, when set, is billed charge bytes until Put.
	budget Budget
	charge int
}

// Budget is a byte budget a buffer can be charged to; Put returns the
// charge through Free.
type Budget interface {
	Free(n int)
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
			return v.(*arena)
		}
	}
	sz := n
	if c >= 0 {
		sz = classSizes[c]
	}
	return &arena{data: make([]byte, sz), class: int8(c)}
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
	*b = Buf{}
	if poolingOn {
		bufPool.Put(b)
	}
}

// New returns an empty buffer, owned by the caller, whose view starts
// headroom bytes into an arena with capacity for at least headroom+capHint
// bytes.
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
// until the buffer's Put and must not be retained past it.
func (b *Buf) Bytes() []byte { return b.a.data[b.off:b.end] }

// Len returns the view length.
func (b *Buf) Len() int { return b.end - b.off }

// Headroom returns the bytes available for Prepend without growing.
func (b *Buf) Headroom() int { return b.off }

// Prepend extends the view n bytes to the front and returns the new front
// region. If the headroom is exhausted the buffer migrates to a larger
// arena.
func (b *Buf) Prepend(n int) []byte {
	if n < 0 {
		panic("pktbuf: negative prepend")
	}
	if b.off < n {
		b.grow(n-b.off, 0)
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
// extra head/tail space, preserving the view bytes, and returns the old
// arena to its pool.
func (b *Buf) grow(needHead, needTail int) {
	oldLen := b.Len()
	head := b.off + needHead
	if needHead > 0 && head < DefaultHeadroom {
		head = DefaultHeadroom // re-arm the reserve, not just the one prepend
	}
	tail := (len(b.a.data) - b.end) + needTail
	a := getArena(head + oldLen + tail)
	copy(a.data[head:], b.Bytes())
	putArena(b.a)
	b.a, b.off, b.end = a, head, head+oldLen
}

// Clone returns an independent pooled copy of the view with the default
// headroom (for receivers that must own their bytes).
func (b *Buf) Clone() *Buf {
	nb := Get(DefaultHeadroom, b.Len())
	copy(nb.Bytes(), b.Bytes())
	return nb
}

// Charge bills n bytes, already reserved on budget, to b: b's Put returns
// them. A buffer carries at most one charge.
func (b *Buf) Charge(budget Budget, n int) {
	if b.budget != nil {
		panic("pktbuf: buffer already charged")
	}
	b.budget, b.charge = budget, n
}

// MoveCharge hands b's charge, if any, to dst, which then returns it on its
// own Put. A layer that splits b calls it with the part that completes last.
func (b *Buf) MoveCharge(dst *Buf) {
	if b.budget == nil {
		return
	}
	dst.Charge(b.budget, b.charge)
	b.budget, b.charge = nil, 0
}

// Put releases the buffer, returns its charge to its budget and its arena
// to its size-class pool. Releasing an already-released buffer panics — a
// double Put means two owners think they hold the packet, which would hand
// one packet's bytes to two packets.
func (b *Buf) Put() {
	if b.a == nil {
		panic("pktbuf: double put")
	}
	if b.budget != nil {
		b.budget.Free(b.charge)
	}
	a := b.a
	putBuf(b)
	putArena(a)
}
