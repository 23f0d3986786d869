package sixlo

import (
	"bytes"
	"testing"

	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
)

// FuzzReassemblerInput throws arbitrary byte strings at the reassembler as
// if they were received fragments: truncated headers, bogus dispatch values,
// hostile size/offset fields, colliding (sender, tag) keys, and interleaved
// timeout expiry. The reassembler must never panic, never return a frame
// larger than the 11-bit size field can express, and keep its slot table
// bounded.
func FuzzReassemblerInput(f *testing.F) {
	f.Add(uint64(1), []byte{})
	f.Add(uint64(1), []byte{0xC0})                            // truncated FRAG1
	f.Add(uint64(1), []byte{0xE0, 0x10, 0x00, 0x01})          // truncated FRAGN
	f.Add(uint64(2), []byte{0xC0, 0x08, 0x00, 0x07, 1, 2, 3}) // valid opener
	f.Add(uint64(2), []byte{0xE7, 0xFF, 0xFF, 0xFF, 0xFF, 9}) // max size, max offset
	f.Add(uint64(3), []byte{0x41, 0x00, 0x00, 0x00})          // not a fragment
	frags, _ := Fragment(pktbuf.FromBytes(bytes.Repeat([]byte{0xAB}, 300)), 128, 7)
	var joined []byte
	for _, fr := range frags {
		joined = append(joined, fr.Bytes()...)
		fr.Put()
	}
	f.Add(uint64(4), joined)
	f.Fuzz(func(t *testing.T, sender uint64, data []byte) {
		s := sim.New(1)
		r := NewReassembler(s, 4)
		for i := 0; len(data) > 0; i++ {
			n := int(data[0])%64 + 1
			if n > len(data) {
				n = len(data)
			}
			if frame, _ := r.InputBufPID(sender%4, data[:n], uint64(i)); frame != nil {
				if frame.Len() > maxDatagramSize {
					t.Fatalf("reassembled frame of %d bytes exceeds the 11-bit size field", frame.Len())
				}
				frame.Put()
			}
			data = data[n:]
			if i%7 == 3 {
				// Let some partial datagrams expire mid-stream.
				s.Run(s.Now() + 2*sim.Second)
			}
		}
		if len(r.table) > 4 {
			t.Fatalf("reassembly table grew to %d slots, cap is 4", len(r.table))
		}
		r.Reset()
	})
}

// FuzzFragmentRoundTrip is the positive property: any datagram the sender
// can legally fragment must reassemble byte-identically, in order, in
// reverse order, and with every non-final fragment duplicated.
func FuzzFragmentRoundTrip(f *testing.F) {
	f.Add([]byte("a"), 13, false)
	f.Add(bytes.Repeat([]byte{0x55}, 200), 64, false)
	f.Add(bytes.Repeat([]byte{0xAA}, 1280), 251, true)
	f.Add([]byte("exactly-one-frame"), 128, false)
	f.Fuzz(func(t *testing.T, payload []byte, mtu int, reverse bool) {
		if len(payload) == 0 {
			return
		}
		if len(payload) > maxDatagramSize {
			payload = payload[:maxDatagramSize]
		}
		if mtu < 0 {
			mtu = -mtu
		}
		mtu = fragNHeaderLen + 8 + mtu%400 // always large enough to fragment
		frame := pktbuf.FromBytes(payload)
		frags, err := Fragment(frame, mtu, 0x1234)
		if err != nil {
			t.Fatalf("Fragment(%d bytes, mtu %d): %v", len(payload), mtu, err)
		}
		defer func() {
			for _, fr := range frags {
				fr.Put()
			}
		}()
		for i, fr := range frags {
			if fr.Len() > mtu {
				t.Fatalf("fragment %d is %d bytes, MTU %d", i, fr.Len(), mtu)
			}
		}
		if len(frags) == 1 {
			// Fits one frame: sent unfragmented, the same buffer untouched.
			if frags[0] != frame || !bytes.Equal(frame.Bytes(), payload) {
				t.Fatal("single-frame passthrough altered the payload")
			}
			return
		}
		r := NewReassembler(sim.New(1), 4)
		feed := make([]*pktbuf.Buf, len(frags))
		copy(feed, frags)
		if reverse {
			for i, j := 0, len(feed)-1; i < j; i, j = i+1, j-1 {
				feed[i], feed[j] = feed[j], feed[i]
			}
		}
		var got *pktbuf.Buf
		for i, fr := range feed {
			if !reverse && i < len(feed)-1 {
				// Duplicate delivery of a pending fragment must be a no-op.
				if dup, _ := r.InputBufPID(9, fr.Bytes(), 0); dup != nil {
					t.Fatal("reassembly completed prematurely")
				}
			}
			if frame, _ := r.InputBufPID(9, fr.Bytes(), 0); frame != nil {
				if got != nil {
					t.Fatal("datagram completed twice")
				}
				got = frame
			}
		}
		if got == nil || !bytes.Equal(got.Bytes(), payload) {
			t.Fatalf("round-trip mismatch: got %v, want %d bytes", got != nil, len(payload))
		}
		got.Put()
		if st := r.Stats(); st.Completed != 1 || st.Dropped != 0 {
			t.Fatalf("stats %+v after a clean round-trip", st)
		}
	})
}
