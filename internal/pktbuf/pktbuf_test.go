package pktbuf

import (
	"bytes"
	"testing"
)

func TestPrependAppendLayout(t *testing.T) {
	b := New(8, 16)
	defer b.Put()
	if b.Len() != 0 || b.Headroom() != 8 {
		t.Fatalf("fresh buf: len=%d headroom=%d", b.Len(), b.Headroom())
	}
	copy(b.Append(3), "xyz")
	copy(b.Prepend(2), "ab")
	if got := string(b.Bytes()); got != "abxyz" {
		t.Fatalf("view = %q, want abxyz", got)
	}
	b.TrimFront(1)
	b.Trim(3)
	if got := string(b.Bytes()); got != "bxy" {
		t.Fatalf("after trims view = %q, want bxy", got)
	}
	if b.Headroom() != 8-2+1 {
		t.Fatalf("headroom after trims = %d", b.Headroom())
	}
}

func TestDoublePutPanics(t *testing.T) {
	// Disable pooling so the struct cannot be re-issued between the two
	// Puts — the panic must be deterministic for the test.
	defer SetPooling(poolingOn)
	SetPooling(false)
	b := Get(4, 4)
	b.Put()
	defer func() {
		if recover() == nil {
			t.Fatal("second Put did not panic")
		}
	}()
	b.Put()
}

// TestPrependGrowPreservesPayload is the headroom-exhaustion fallback: a
// Prepend beyond the reserve migrates the buffer to a fresh arena with the
// reserve re-armed, and the payload comes along intact.
func TestPrependGrowPreservesPayload(t *testing.T) {
	b := Get(2, 8)
	defer b.Put()
	copy(b.Bytes(), "ABCDEFGH")
	hdr := b.Prepend(10) // exceeds the 2-byte headroom: must grow
	for i := range hdr {
		hdr[i] = '!'
	}
	if got := string(b.Bytes()); got != "!!!!!!!!!!ABCDEFGH" {
		t.Fatalf("view after grow = %q", got)
	}
	if b.Headroom() != DefaultHeadroom-10 {
		t.Fatalf("headroom after grow = %d, want the %d B reserve less the prepend", b.Headroom(), DefaultHeadroom-10)
	}
}

func TestAppendGrow(t *testing.T) {
	b := New(4, 4)
	payload := bytes.Repeat([]byte{0x5A}, 3000) // beyond the mid class
	b.AppendBytes(payload)
	if !bytes.Equal(b.Bytes(), payload) {
		t.Fatal("append-grow lost bytes")
	}
	b.Put()
}

// TestPoolReusePoisoning: a dirty buffer returned to the pool must not leak
// its bytes into the next packet through any path that promises content.
// Get explicitly does NOT zero (callers write before reading); what must
// hold is that a recycled arena's stale bytes never alias a live view.
func TestPoolReusePoisoning(t *testing.T) {
	defer SetPooling(poolingOn)
	SetPooling(true)
	b := Get(8, 16)
	for i := range b.Bytes() {
		b.Bytes()[i] = 0xA5 // poison
	}
	stale := b.Bytes()
	b.Put()
	nb := Get(8, 16)
	defer nb.Put()
	for i := range nb.Bytes() {
		nb.Bytes()[i] = 0x3C
	}
	// The stale slice and the new view may share an arena (that is the
	// point of pooling); the old OWNER must observe its slice as dead, i.e.
	// the repo convention "never retain Bytes() past Put" is what the
	// equivalence suite enforces end-to-end. Here we pin the allocator-side
	// guarantee: the new view is fully writable and reads back what was
	// written, regardless of the poison.
	for i, v := range nb.Bytes() {
		if v != 0x3C {
			t.Fatalf("byte %d = %#x after write, pool reuse corrupted view", i, v)
		}
	}
	_ = stale
}

func TestUnpooledModeIndependentArenas(t *testing.T) {
	defer SetPooling(poolingOn)
	SetPooling(false)
	b := Get(8, 16)
	for i := range b.Bytes() {
		b.Bytes()[i] = 0xEE
	}
	b.Put()
	nb := Get(8, 16)
	defer nb.Put()
	for _, v := range nb.Bytes() {
		if v == 0xEE {
			t.Fatal("unpooled Get returned a recycled arena")
		}
	}
}

func TestFromBytesClone(t *testing.T) {
	src := []byte("hello world")
	b := FromBytes(src)
	src[0] = 'X'
	if string(b.Bytes()) != "hello world" {
		t.Fatalf("FromBytes did not copy: %q", b.Bytes())
	}
	c := b.Clone()
	b.Bytes()[0] = 'Y'
	if string(c.Bytes()) != "hello world" {
		t.Fatalf("Clone did not copy: %q", c.Bytes())
	}
	if c.Headroom() != DefaultHeadroom {
		t.Fatalf("clone headroom = %d", c.Headroom())
	}
	b.Put()
	c.Put()
}

func TestZeroAllocSteadyState(t *testing.T) {
	defer SetPooling(poolingOn)
	SetPooling(true)
	// Warm the pools.
	for i := 0; i < 8; i++ {
		b := Get(DefaultHeadroom, 100)
		b.Put()
	}
	avg := testing.AllocsPerRun(200, func() {
		b := Get(DefaultHeadroom, 100)
		b.Prepend(8)
		b.Prepend(40)
		c := FromBytes(b.Bytes()[:60])
		c.Put()
		b.Put()
	})
	if raceEnabled {
		t.Logf("steady-state allocs/op = %v, not asserted: the race detector's sync.Pool drops entries", avg)
		return
	}
	if avg > 0.1 {
		t.Fatalf("steady-state allocs/op = %v, want 0", avg)
	}
}

// budget is a Budget that counts what is still charged to it.
type budget struct{ used int }

func (b *budget) Free(n int) { b.used -= n }

// TestChargeTravelsWithBuffer: a charge is returned by the Put of the
// buffer carrying it, MoveCharge hands it on, and a buffer without one
// returns nothing.
func TestChargeTravelsWithBuffer(t *testing.T) {
	bud := &budget{used: 100}
	whole, last, plain := Get(8, 100), Get(8, 10), Get(8, 1)
	whole.Charge(bud, 100)
	whole.MoveCharge(last)
	whole.Put()
	plain.Put()
	if bud.used != 100 {
		t.Fatalf("%d bytes charged after the split buffer's and an uncharged buffer's Put, want 100", bud.used)
	}
	last.Put()
	if bud.used != 0 {
		t.Fatalf("%d bytes charged after the Put of the buffer carrying the charge, want 0", bud.used)
	}
}
