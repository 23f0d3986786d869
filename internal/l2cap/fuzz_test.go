package l2cap

import (
	"bytes"
	"testing"

	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
)

// loneChannel builds an open credit-based channel whose endpoint has no BLE
// connection: sendSignal (credit replenishment) is a no-op on a nil conn, so
// the SDU recombination path can be driven directly with hostile K-frames.
func loneChannel(credits int) *Channel {
	s := sim.New(1)
	ep := &Endpoint{s: s, nextCID: FirstDynamicCID} // NewEndpoint without a conn
	ch := &Channel{ep: ep, scid: FirstDynamicCID, dcid: FirstDynamicCID,
		psm: PSMIPSP, rxCredits: credits, open: true}
	ep.channels.put(ch.scid, ch)
	return ch
}

// FuzzSDURecombination feeds arbitrary chopped byte strings into the
// credit-based channel's K-frame receive path: truncated SDU headers,
// length fields beyond the MTU, continuations past the announced length.
// The channel must never panic and every delivered SDU must match its
// announced length and respect the configured MTU.
func FuzzSDURecombination(f *testing.F) {
	f.Add([]byte{}, byte(1))
	f.Add([]byte{0x00}, byte(1))                // short first frame
	f.Add([]byte{0xFF, 0xFF, 1, 2, 3}, byte(8)) // SDU length 65535 > MTU
	f.Add([]byte{0x03, 0x00, 'a', 'b', 'c'}, byte(8))
	f.Add(bytes.Repeat([]byte{0x10, 0x00}, 64), byte(3))
	f.Fuzz(func(t *testing.T, data []byte, chop byte) {
		ch := loneChannel(1 << 20)
		var delivered [][]byte
		ch.OnEvents = &ChannelFuncs{SDU: sduBytes(&delivered)}
		step := int(chop)%64 + 1
		for len(data) > 0 {
			n := step
			if n > len(data) {
				n = len(data)
			}
			ch.receiveFrame(data[:n], 0)
			data = data[n:]
		}
		for _, sdu := range delivered {
			if len(sdu) > mtu {
				t.Fatalf("delivered SDU of %d bytes exceeds MTU %d", len(sdu), mtu)
			}
		}
		if ch.sduBuf != nil && ch.sduBuf.Len() >= ch.sduLen {
			t.Fatal("complete SDU left undelivered in the reassembly buffer")
		}
		if ch.sduBuf != nil {
			ch.sduBuf.Put()
		}
	})
}

// FuzzSegmentRoundTrip is the positive property: any SDU within the peer's
// MTU, segmented by SendSDUBuf at any legal MPS, must recombine
// byte-identically with its provenance ID intact.
func FuzzSegmentRoundTrip(f *testing.F) {
	f.Add([]byte("x"), 23)
	f.Add(bytes.Repeat([]byte{0xA5}, 1280), 245)
	f.Add(bytes.Repeat([]byte{0x5A}, 100), 3)
	f.Fuzz(func(t *testing.T, sdu []byte, mps int) {
		if mps < 0 {
			mps = -mps
		}
		mps = sduHeaderLen + 1 + mps%400
		ch := loneChannel(1 << 20)
		if len(sdu) > mtu {
			sdu = sdu[:mtu]
		}
		frames, pids := queuedFrames(t, sdu, 77, mps)
		for i, fr := range frames {
			if len(fr) > mps {
				t.Fatalf("frame %d is %d bytes, MPS %d", i, len(fr), mps)
			}
		}
		var got [][]byte
		var gotPID uint64
		ch.OnEvents = &ChannelFuncs{SDU: func(b *pktbuf.Buf, pid uint64) {
			gotPID = pid
			sduBytes(&got)(b, pid)
		}}
		for i, fr := range frames {
			ch.receiveFrame(fr, pids[i])
		}
		if len(got) != 1 {
			t.Fatalf("ReceiveSDU fired %d times, want 1", len(got))
		}
		if !bytes.Equal(got[0], sdu) {
			t.Fatalf("recombined SDU is %d bytes, want %d", len(got[0]), len(sdu))
		}
		if gotPID != 77 {
			t.Fatalf("provenance ID %d lost in recombination", gotPID)
		}
		if st := ch.Stats(); st.SDUsReceived != 1 || st.Violations != 0 {
			t.Fatalf("stats %+v after a clean round-trip", st)
		}
	})
}

// FuzzFrameDecoders checks the wire decoders never panic and that anything
// they accept re-encodes to the exact input bytes (a parse/print fixpoint):
// a PDU through the basic header sendPDU writes, a signal through
// encodeSignal.
func FuzzFrameDecoders(f *testing.F) {
	f.Add([]byte{})
	f.Add(pduBytes(CIDSignaling, signalBytes(signal{
		code: codeConnReq, id: 1, psm: PSMIPSP, scid: 0x40, mtu: 1280, mps: 245, credits: 10})))
	f.Add(signalBytes(signal{code: codeFlowCredit, id: 2, cid: 0x41, credits: 5}))
	f.Add(signalBytes(signal{code: codeConnRsp, id: 3, dcid: 0x40, mtu: 1280, mps: 245, credits: 10, result: resultSuccess}))
	f.Add([]byte{0x15, 0x01, 0x0A, 0x00, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Fuzz(func(t *testing.T, b []byte) {
		if p, err := decodePDU(b); err == nil {
			if !bytes.Equal(pduBytes(p.cid, p.payload), b) {
				t.Fatal("decodePDU/prependBasicHeader is not a fixpoint")
			}
		}
		if s, err := decodeSignal(b); err == nil {
			if !bytes.Equal(signalBytes(s), b) {
				t.Fatal("decodeSignal/encodeSignal is not a fixpoint")
			}
		}
	})
}
