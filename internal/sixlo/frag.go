package sixlo

import (
	"encoding/binary"
	"fmt"

	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
)

// Fragmentation dispatch values (RFC 4944 §5.3).
const (
	dispatchFrag1 byte = 0xC0 // 11000xxx
	dispatchFragN byte = 0xE0 // 11100xxx
	maskFrag      byte = 0xF8
)

// Fragment header sizes.
const (
	frag1HeaderLen = 4
	fragNHeaderLen = 5
)

// maxDatagramSize is the largest frame the 11-bit datagram_size field of the
// fragment headers can describe.
const maxDatagramSize = 0x7FF

// Fragment splits a 6LoWPAN frame into link fragments of at most mtu bytes
// each (including fragment headers). Offsets are in 8-byte units as the RFC
// requires, so non-final fragment payloads are multiples of 8. A frame that
// fits one link frame comes back unchanged as the only element; otherwise
// every fragment is a fresh pooled buffer and frame is released. On success
// the caller owns the returned buffers; on error it still owns frame.
//
// Deviation from RFC 4944: the datagram_size field counts the bytes of the
// frame being fragmented (the compressed form), not the uncompressed IPv6
// datagram. Both endpoints of this implementation agree on that meaning;
// the on-air byte counts are identical.
func Fragment(frame *pktbuf.Buf, mtu int, tag uint16) ([]*pktbuf.Buf, error) {
	size := frame.Len()
	if size+frag1HeaderLen <= mtu {
		return []*pktbuf.Buf{frame}, nil
	}
	if size > maxDatagramSize {
		return nil, fmt.Errorf("sixlo: datagram too large (%d)", size)
	}
	if mtu < fragNHeaderLen+8 {
		return nil, fmt.Errorf("sixlo: MTU %d too small to fragment", mtu)
	}
	data := frame.Bytes()
	var out []*pktbuf.Buf
	for off := 0; off < size; {
		hl, dispatch := fragNHeaderLen, dispatchFragN
		if off == 0 {
			hl, dispatch = frag1HeaderLen, dispatchFrag1
		}
		n := min((mtu-hl)&^7, size-off)
		f := pktbuf.Get(0, hl+n)
		b := f.Bytes()
		b[0] = dispatch | byte(size>>8)
		b[1] = byte(size)
		binary.BigEndian.PutUint16(b[2:], tag)
		if off > 0 {
			b[4] = byte(off / 8)
		}
		copy(b[hl:], data[off:off+n])
		out = append(out, f)
		off += n
	}
	frame.Put()
	return out, nil
}

// IsFragment reports whether a received frame is a fragment.
func IsFragment(frame []byte) bool {
	if len(frame) == 0 {
		return false
	}
	d := frame[0] & maskFrag
	return d == dispatchFrag1 || d == dispatchFragN
}

// reassembly is one in-progress datagram, accumulated in a pooled buffer
// that is handed to the stack on completion (or released on expiry).
type reassembly struct {
	size    int
	buf     *pktbuf.Buf
	have    [(maxDatagramSize + 1) / 8 / 64]uint64 // 8-byte units received
	got     int                                    // units received
	expires sim.Time
	pid     uint64 // provenance ID carried by the datagram's fragments
}

// ReassemblerStats counts reassembly outcomes.
type ReassemblerStats struct {
	Completed uint64
	Timeouts  uint64
	Dropped   uint64 // table full, malformed or overlapping
}

// Reassembler rebuilds datagrams from fragments, keyed by (sender, tag),
// with the RFC's 5-second timeout and a bounded table.
type Reassembler struct {
	s       *sim.Sim
	table   map[uint64]*reassembly
	maxSlot int
	Timeout sim.Duration
	stats   ReassemblerStats
}

// NewReassembler creates a reassembler with room for maxSlots concurrent
// datagrams.
func NewReassembler(s *sim.Sim, maxSlots int) *Reassembler {
	if maxSlots <= 0 {
		maxSlots = 4
	}
	return &Reassembler{
		s:       s,
		table:   make(map[uint64]*reassembly),
		maxSlot: maxSlots,
		Timeout: 5 * sim.Second,
	}
}

// Stats returns a copy of the reassembler counters.
func (r *Reassembler) Stats() ReassemblerStats { return r.stats }

// Reset drops every partial datagram, as a node reboot clearing its
// reassembly buffers: every partial buffer returns to the pool. Expiry
// timers of dropped entries find the fresh table empty and do nothing.
// Counters survive (observer state).
func (r *Reassembler) Reset() {
	for k, re := range r.table {
		re.buf.Put()
		delete(r.table, k)
	}
}

// InputBufPID processes one fragment from the given sender. The pid of the
// fragment that opens a reassembly is remembered and returned with the
// completed datagram, so a packet's provenance ID survives 6LoWPAN
// fragmentation. When the fragment completes a datagram, the pooled buffer
// holding the full frame is returned (ownership passes to the caller);
// otherwise nil.
func (r *Reassembler) InputBufPID(sender uint64, frag []byte, pid uint64) (*pktbuf.Buf, uint64) {
	if len(frag) < frag1HeaderLen {
		r.stats.Dropped++
		return nil, 0
	}
	size := int(frag[0]&0x07)<<8 | int(frag[1])
	tag := binary.BigEndian.Uint16(frag[2:])
	key := sender<<16 | uint64(tag)

	var off, hdrLen int
	switch frag[0] & maskFrag {
	case dispatchFrag1:
		hdrLen = frag1HeaderLen
	case dispatchFragN:
		if len(frag) < fragNHeaderLen {
			r.stats.Dropped++
			return nil, 0
		}
		off = int(frag[4]) * 8
		hdrLen = fragNHeaderLen
	default:
		r.stats.Dropped++
		return nil, 0
	}
	payload := frag[hdrLen:]

	re, ok := r.table[key]
	now := r.s.Now()
	if ok && now > re.expires {
		re.buf.Put()
		delete(r.table, key)
		r.stats.Timeouts++
		ok = false
	}
	if !ok {
		if len(r.table) >= r.maxSlot {
			r.gc(now)
			if len(r.table) >= r.maxSlot {
				r.stats.Dropped++
				return nil, 0
			}
		}
		buf := pktbuf.New(pktbuf.DefaultHeadroom, size)
		buf.Append(size)
		re = &reassembly{size: size, buf: buf, pid: pid}
		r.table[key] = re
	}
	re.expires = now + r.Timeout
	// A fragment covers the 8-byte units [lo, hi). Every unit it marks is
	// fully written, because only the final fragment may end off a unit
	// boundary. One whose units are all held already carries nothing new
	// (a retransmission) and is ignored; one that holds only some of them
	// overlaps another fragment and drops the datagram (RFC 4944 §5.3).
	end := off + len(payload)
	lo, hi := off/8, (end+7)/8
	held := 0
	for u := lo; u < hi && end <= re.size; u++ {
		held += int(re.have[u/64] >> (u % 64) & 1)
	}
	if held > 0 && held == hi-lo {
		return nil, 0 // duplicate fragment
	}
	if end > re.size || held > 0 || (end < re.size && len(payload)%8 != 0) {
		r.stats.Dropped++
		re.buf.Put()
		delete(r.table, key)
		return nil, 0
	}
	copy(re.buf.Bytes()[off:], payload)
	for u := lo; u < hi; u++ {
		re.have[u/64] |= 1 << (u % 64)
	}
	re.got += hi - lo
	if re.got == (re.size+7)/8 {
		delete(r.table, key)
		r.stats.Completed++
		return re.buf, re.pid
	}
	return nil, 0
}

// gc evicts expired reassemblies.
func (r *Reassembler) gc(now sim.Time) {
	for k, re := range r.table {
		if now > re.expires {
			re.buf.Put()
			delete(r.table, k)
			r.stats.Timeouts++
		}
	}
}
