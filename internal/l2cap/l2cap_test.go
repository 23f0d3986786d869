package l2cap

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"blemesh/internal/ble"
	"blemesh/internal/ip6"
	"blemesh/internal/phy"
	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
	"blemesh/internal/trace"
)

// pduBytes returns the PDU for channel cid carrying payload, framed with the
// basic header sendPDU writes.
func pduBytes(cid uint16, payload []byte) []byte {
	b := pktbuf.FromBytes(payload)
	defer b.Put()
	prependBasicHeader(b, cid)
	return bytes.Clone(b.Bytes())
}

// signalBytes returns a copy of the signal's encoding.
func signalBytes(s signal) []byte {
	b := encodeSignal(s)
	defer b.Put()
	return bytes.Clone(b.Bytes())
}

// queuedFrames hands sdu to SendSDUBuf on a lone channel whose peer accepts
// K-frames of up to mps bytes and grants no credit, so every K-frame stays
// queued. It returns a copy of each queued frame with its provenance ID and
// releases the queue.
func queuedFrames(t testing.TB, sdu []byte, pid uint64, mps int) (frames [][]byte, pids []uint64) {
	t.Helper()
	ch := loneChannel(0)
	ch.peerMTU, ch.peerMPS = 0xFFFF, mps
	if err := ch.SendSDUBuf(pktbuf.FromBytes(sdu), pid, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ch.txq.Len(); i++ {
		f := ch.txq.At(i)
		frames = append(frames, bytes.Clone(f.buf.Bytes()))
		pids = append(pids, f.pid)
		f.buf.Put()
	}
	ch.txq.Reset()
	return frames, pids
}

// ChannelFuncs adapts functions to ChannelEvents; a nil one ignores its
// upcall, and a nil SDU drops the SDU.
type ChannelFuncs struct {
	SDU      func(sdu *pktbuf.Buf, pid uint64)
	Writable func()
	Close    func()
}

// ReceiveSDU calls f.SDU, or releases sdu.
func (f *ChannelFuncs) ReceiveSDU(sdu *pktbuf.Buf, pid uint64) {
	if f.SDU == nil {
		sdu.Put()
		return
	}
	f.SDU(sdu, pid)
}

// Unblocked calls f.Writable.
func (f *ChannelFuncs) Unblocked() {
	if f.Writable != nil {
		f.Writable()
	}
}

// Closed calls f.Close.
func (f *ChannelFuncs) Closed() {
	if f.Close != nil {
		f.Close()
	}
}

// Listener adapts one PSM to Server: it accepts PSM and hands each channel
// that opens, accepted or dialled, to Open, when set.
type Listener struct {
	PSM  uint16
	Open func(ch *Channel)
}

// Accept implements Server.
func (l *Listener) Accept(psm uint16) bool { return psm == l.PSM }

// ChannelOpen implements Server.
func (l *Listener) ChannelOpen(ch *Channel) {
	if l.Open != nil {
		l.Open(ch)
	}
}

// FixedFunc adapts a function to FixedHandler.
type FixedFunc func(payload []byte)

// FixedPDU calls f.
func (f FixedFunc) FixedPDU(payload []byte) { f(payload) }

// sduBytes returns a ChannelFuncs.SDU function that appends a copy of every
// SDU delivered to *got and releases the buffer.
func sduBytes(got *[][]byte) func(*pktbuf.Buf, uint64) {
	return func(b *pktbuf.Buf, _ uint64) {
		*got = append(*got, bytes.Clone(b.Bytes()))
		b.Put()
	}
}

func TestPDUCodecRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {1}, make([]byte, 500)} {
		p, err := decodePDU(pduBytes(0x40, payload))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if p.cid != 0x40 || !bytes.Equal(p.payload, payload) {
			t.Fatalf("round trip mismatch: %+v", p)
		}
	}
}

func TestPDUDecodeErrors(t *testing.T) {
	if _, err := decodePDU([]byte{1, 2}); err == nil {
		t.Fatal("short PDU accepted")
	}
	bad := pduBytes(5, []byte{1, 2, 3})
	bad[0] = 99 // corrupt length
	if _, err := decodePDU(bad); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestSignalCodecRoundTrip(t *testing.T) {
	cases := []signal{
		{code: codeConnReq, id: 3, psm: PSMIPSP, scid: 0x41, mtu: 1280, mps: 245, credits: 10},
		{code: codeConnRsp, id: 3, dcid: 0x42, mtu: 1280, mps: 245, credits: 8, result: resultSuccess},
		{code: codeConnRsp, id: 4, result: resultRefusedPSM},
		{code: codeFlowCredit, id: 5, cid: 0x41, credits: 6},
	}
	for i, s := range cases {
		got, err := decodeSignal(signalBytes(s))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != s {
			t.Fatalf("case %d: round trip %+v != %+v", i, got, s)
		}
	}
}

func TestSignalDecodeErrors(t *testing.T) {
	if _, err := decodeSignal([]byte{codeConnReq}); err == nil {
		t.Fatal("truncated signal accepted")
	}
	if _, err := decodeSignal([]byte{0xEE, 1, 0, 0}); err == nil {
		t.Fatal("unknown opcode accepted")
	}
	s := signalBytes(signal{code: codeFlowCredit, id: 1, cid: 0x41, credits: 1})
	if _, err := decodeSignal(s[:len(s)-1]); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestSegmentation(t *testing.T) {
	sdu := make([]byte, 1000)
	for i := range sdu {
		sdu[i] = byte(i)
	}
	frames, _ := queuedFrames(t, sdu, 0, 245)
	// First frame: 2-byte header + 243 payload; then 245-byte frames.
	if len(frames[0]) != 245 {
		t.Fatalf("first frame %d bytes", len(frames[0]))
	}
	total := 0
	for i, f := range frames {
		if i == 0 {
			total += len(f) - sduHeaderLen
		} else {
			total += len(f)
		}
		if len(f) > 245 {
			t.Fatalf("frame %d exceeds MPS: %d", i, len(f))
		}
	}
	if total != 1000 {
		t.Fatalf("segmented payload = %d bytes, want 1000", total)
	}
	if got := int(frames[0][0]) | int(frames[0][1])<<8; got != 1000 {
		t.Fatalf("SDU length header = %d", got)
	}
}

func TestQuickSegmentationCoversSDU(t *testing.T) {
	f := func(data []byte, mpsRaw uint8) bool {
		mps := 23 + int(mpsRaw) // ≥ minimum MPS of 23
		if len(data) > 2000 {
			data = data[:2000]
		}
		frames, _ := queuedFrames(t, data, 0, mps)
		var re []byte
		for i, fr := range frames {
			if len(fr) > mps {
				return false
			}
			if i == 0 {
				re = append(re, fr[sduHeaderLen:]...)
			} else {
				re = append(re, fr...)
			}
		}
		return bytes.Equal(re, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// pair builds two connected BLE nodes with L2CAP endpoints on top.
type pair struct {
	s        *sim.Sim
	subEP    *Endpoint // on the advertiser/subordinate
	coordEP  *Endpoint // on the initiator/coordinator
	subCtrl  *ble.Controller
	coordCtl *ble.Controller
}

func newPair(t *testing.T, seed int64) *pair {
	t.Helper()
	return newPairPool(t, seed, 0)
}

// newPairPool is newPair with the coordinator's LL pool set to coordPool
// bytes (0 = the default 6600).
func newPairPool(t *testing.T, seed int64, coordPool int) *pair {
	t.Helper()
	s := sim.New(seed)
	m := phy.NewMedium(s)
	mk := func(ppm float64, addr, pool int) *ble.Controller {
		clk := sim.NewClock(s, ppm)
		return ble.NewController(s, clk, m.NewRadio(), ble.ControllerConfig{Addr: ble.DevAddr(addr), PoolBytes: pool})
	}
	a := mk(1.5, 0xAA, 0)
	b := mk(-1.5, 0xBB, coordPool)
	p := &pair{s: s, subCtrl: a, coordCtl: b}
	a.OnConn = &connFuncs{Up: func(c *ble.Conn) { p.subEP = NewEndpoint(s, c) }}
	b.OnConn = &connFuncs{Up: func(c *ble.Conn) { p.coordEP = NewEndpoint(s, c) }}
	a.StartAdvertising(ble.AdvParams{Interval: 90 * sim.Millisecond})
	cp := ble.ConnParams{Interval: 75 * sim.Millisecond}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(a.Addr(), cp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && (p.subEP == nil || p.coordEP == nil); i++ {
		s.Run(s.Now() + 50*sim.Millisecond)
	}
	if p.subEP == nil || p.coordEP == nil {
		t.Fatal("BLE connection did not come up")
	}
	return p
}

// openIPSP opens an IPSP channel from the coordinator side and returns both
// channel endpoints.
func (p *pair) openIPSP(t *testing.T) (coordCh, subCh *Channel) {
	t.Helper()
	p.subEP.OnChannelOpen = &Listener{PSM: PSMIPSP, Open: func(ch *Channel) { subCh = ch }}
	p.coordEP.OnChannelOpen = &Listener{Open: func(ch *Channel) { coordCh = ch }}
	p.coordEP.Dial(PSMIPSP)
	for i := 0; i < 100 && (coordCh == nil || subCh == nil); i++ {
		p.s.Run(p.s.Now() + 50*sim.Millisecond)
	}
	if coordCh == nil || subCh == nil {
		t.Fatal("IPSP channel did not open")
	}
	return coordCh, subCh
}

func TestChannelOpenHandshake(t *testing.T) {
	p := newPair(t, 1)
	coordCh, subCh := p.openIPSP(t)
	if !coordCh.Open() || !subCh.Open() {
		t.Fatal("channels not open")
	}
	if coordCh.PeerMTU() != 1280 || subCh.PeerMTU() != 1280 {
		t.Fatalf("MTUs not exchanged: %d/%d", coordCh.PeerMTU(), subCh.PeerMTU())
	}
	if coordCh.PSM() != PSMIPSP {
		t.Fatalf("psm = %#x", coordCh.PSM())
	}
}

func TestDialUnknownPSMRefused(t *testing.T) {
	p := newPair(t, 2)
	opened := false
	p.coordEP.OnChannelOpen = &Listener{Open: func(*Channel) { opened = true }}
	p.coordEP.Dial(0x99)
	for i := 0; i < 100 && len(p.coordEP.pending) > 0; i++ {
		p.s.Run(p.s.Now() + 50*sim.Millisecond)
	}
	if len(p.coordEP.pending) > 0 || opened || len(p.coordEP.Channels()) > 0 {
		t.Fatalf("dial to unknown PSM should be refused (pending=%d opened=%v channels=%d)",
			len(p.coordEP.pending), opened, len(p.coordEP.Channels()))
	}
}

func TestSDUTransferBothDirections(t *testing.T) {
	p := newPair(t, 3)
	coordCh, subCh := p.openIPSP(t)
	var gotSub, gotCoord [][]byte
	subCh.OnEvents = &ChannelFuncs{SDU: sduBytes(&gotSub)}
	coordCh.OnEvents = &ChannelFuncs{SDU: sduBytes(&gotCoord)}
	msg := make([]byte, 100)
	for i := range msg {
		msg[i] = byte(i * 3)
	}
	if err := coordCh.SendSDUBuf(pktbuf.FromBytes(msg), 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := subCh.SendSDUBuf(pktbuf.FromBytes(msg[:50]), 0, nil); err != nil {
		t.Fatal(err)
	}
	p.s.Run(p.s.Now() + 2*sim.Second)
	if len(gotSub) != 1 || !bytes.Equal(gotSub[0], msg) {
		t.Fatalf("subordinate received %d SDUs", len(gotSub))
	}
	if len(gotCoord) != 1 || !bytes.Equal(gotCoord[0], msg[:50]) {
		t.Fatalf("coordinator received %d SDUs", len(gotCoord))
	}
}

func TestLargeSDUSpansManyFramesAndLLFragments(t *testing.T) {
	p := newPair(t, 4)
	coordCh, subCh := p.openIPSP(t)
	var got [][]byte
	subCh.OnEvents = &ChannelFuncs{SDU: sduBytes(&got)}
	sdu := make([]byte, 1280)
	for i := range sdu {
		sdu[i] = byte(i % 251)
	}
	if err := coordCh.SendSDUBuf(pktbuf.FromBytes(sdu), 0, nil); err != nil {
		t.Fatal(err)
	}
	p.s.Run(p.s.Now() + 10*sim.Second)
	if len(got) != 1 || !bytes.Equal(got[0], sdu) {
		t.Fatalf("1280-byte SDU not reassembled (got %d SDUs)", len(got))
	}
}

func TestSDUExceedingMTURejected(t *testing.T) {
	p := newPair(t, 5)
	coordCh, _ := p.openIPSP(t)
	if err := coordCh.SendSDUBuf(pktbuf.FromBytes(make([]byte, 1281)), 0, nil); err == nil {
		t.Fatal("SDU above peer MTU accepted")
	}
}

func TestCreditFlowSustainsManySDUs(t *testing.T) {
	// 50 SDUs exceed the initial 10-credit grant many times over; the
	// replenishment machinery must keep the pipe moving.
	p := newPair(t, 6)
	coordCh, subCh := p.openIPSP(t)
	received := 0
	subCh.OnEvents = &ChannelFuncs{SDU: func(b *pktbuf.Buf, _ uint64) { received++; b.Put() }}
	sent := 0
	var feed func()
	feed = func() {
		for sent < 50 && coordCh.Writable() {
			if err := coordCh.SendSDUBuf(pktbuf.FromBytes(make([]byte, 100)), 0, nil); err != nil {
				t.Errorf("send %d: %v", sent, err)
				return
			}
			sent++
		}
		if sent < 50 {
			p.s.After(10*sim.Millisecond, feed)
		}
	}
	feed()
	p.s.Run(p.s.Now() + 30*sim.Second)
	if received != 50 {
		t.Fatalf("received %d/50 SDUs", received)
	}
	if coordCh.Stats().FramesSent != 50 {
		t.Fatalf("frames sent = %d, want 50 (one per small SDU)", coordCh.Stats().FramesSent)
	}
	if subCh.Stats().CreditsSent == 0 {
		t.Fatal("no credit replenishment happened")
	}
}

// TestSendSDUBufRejectsCallback: the buffer's Put is an SDU's completion,
// so SendSDUBuf takes no completion callback. Its third parameter stays for
// the benchmark module's probe, which passes nil; a non-nil value is refused
// with an error and never called, and the SDU's buffer goes back with its
// charge.
func TestSendSDUBufRejectsCallback(t *testing.T) {
	p := newPair(t, 7)
	coordCh, _ := p.openIPSP(t)
	pool := &ip6.Pool{Capacity: 1 << 16}
	called := false
	if err := coordCh.SendSDUBuf(chargedSDU(t, pool, 60), 0, func() { called = true }); err == nil {
		t.Fatal("SendSDUBuf accepted a completion callback")
	}
	if u := pool.Used(); u != 0 {
		t.Fatalf("Used = %d after the refused SDU, want its charge returned", u)
	}
	p.s.Run(p.s.Now() + 3*sim.Second)
	if called {
		t.Fatal("the refused callback was called")
	}
	if st := coordCh.Stats(); st.SDUsSent != 0 || st.FramesSent != 0 || coordCh.QueueLen() != 0 {
		t.Fatalf("refused SDU went out: %+v, %d frames queued", st, coordCh.QueueLen())
	}
}

// chargedSDU returns an SDU of n bytes in a pooled buffer carrying an n-byte
// charge on pool, as the BLE adapter queues a packet.
func chargedSDU(t *testing.T, pool *ip6.Pool, n int) *pktbuf.Buf {
	t.Helper()
	if !pool.Alloc(n) {
		t.Fatalf("pool refuses %d bytes", n)
	}
	b := pktbuf.Get(pktbuf.DefaultHeadroom, n)
	b.Charge(pool, n)
	return b
}

// TestChargeFollowsFinalFrame: an SDU's pktbuf charge rides the K-frame that
// completes it and comes back with that frame's Put: it is held exactly until
// the whole SDU is delivered or dropped. Shown for an SDU larger than the MPS
// on the ack path, and on teardown for SDUs whose final frames wait in the LL
// queue and in the channel's own queue.
func TestChargeFollowsFinalFrame(t *testing.T) {
	const size = 600 // three K-frames at the peer's 245-byte MPS

	t.Run("acked", func(t *testing.T) {
		p := newPair(t, 11)
		coordCh, _ := p.openIPSP(t)
		conn := p.coordEP.Conn()
		pool := &ip6.Pool{Capacity: 1 << 16}
		if err := coordCh.SendSDUBuf(chargedSDU(t, pool, size), 0, nil); err != nil {
			t.Fatal(err)
		}
		if n := coordCh.Stats().FramesSent; n != 3 {
			t.Fatalf("%d frames sent, want 3", n)
		}
		// The three frames are the link's only traffic, so the final one is
		// acknowledged when the LL queue empties.
		for step := 0; conn.QueueLen() > 0; step++ {
			if u := pool.Used(); u != size {
				t.Fatalf("step %d, final frame not yet acknowledged: Used = %d, want %d", step, u, size)
			}
			if step == 5000 {
				t.Fatal("final frame not acknowledged within 5 s")
			}
			p.s.Run(p.s.Now() + sim.Millisecond)
		}
		if u := pool.Used(); u != 0 {
			t.Fatalf("Used = %d once the final frame is acknowledged, want 0", u)
		}
	})

	t.Run("teardown", func(t *testing.T) {
		p := newPair(t, 12)
		coordCh, _ := p.openIPSP(t)
		p.coordCtl.OnConn.(*connFuncs).Down = func(*ble.Conn, ble.LossReason) { p.coordEP.Teardown() }
		tr := trace.New(p.s, 0)
		tr.Enable()
		p.coordCtl.SetTrace(tr, "coord")
		pool := &ip6.Pool{Capacity: 1 << 16}
		for pid := uint64(1); pid <= 4; pid++ {
			if err := coordCh.SendSDUBuf(chargedSDU(t, pool, size), pid, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Ten credits: frames 1–10 are in the LL queue, SDUs 1–3 end
		// there; SDU 4's last two frames wait in the channel.
		if n := coordCh.QueueLen(); n != 2 {
			t.Fatalf("%d frames queued in the channel, want 2", n)
		}
		if u := pool.Used(); u != 4*size {
			t.Fatalf("Used = %d with four SDUs queued, want %d", u, 4*size)
		}
		p.coordEP.Conn().Kill() // the LL queue goes first, then the channel's
		// One conn-lost record per frame the LL held (SDU 4's first among
		// them), then one link-reset record for SDU 4's frames in the channel.
		lost := " reason=" + ble.LossHostTerminated.String()
		var got []string
		for _, e := range tr.Events("coord", trace.KindPacketDrop) {
			from := "channel"
			if strings.HasSuffix(e.Detail(), lost) {
				from = "LL"
			}
			got = append(got, fmt.Sprintf("%d@%s", e.ID, from))
		}
		want := []string{"1@LL", "1@LL", "1@LL", "2@LL", "2@LL", "2@LL", "3@LL", "3@LL", "3@LL", "4@LL", "4@channel"}
		if !slices.Equal(got, want) {
			t.Fatalf("drop records %v, want %v", got, want)
		}
		if u := pool.Used(); u != 0 {
			t.Fatalf("Used = %d after teardown, want 0", u)
		}
	})
}

func TestTeardownOnLinkDeath(t *testing.T) {
	p := newPair(t, 9)
	coordCh, _ := p.openIPSP(t)
	closed := false
	coordCh.OnEvents = &ChannelFuncs{Close: func() { closed = true }}
	// The host notices the link dying and tears the endpoint down.
	p.coordCtl.OnConn.(*connFuncs).Down = func(c *ble.Conn, r ble.LossReason) { p.coordEP.Teardown() }
	p.coordEP.Conn().Close()
	p.s.Run(p.s.Now() + 3*sim.Second)
	if !closed {
		t.Fatal("channel Closed not invoked on link teardown")
	}
}

func TestWritableBackpressure(t *testing.T) {
	p := newPair(t, 10)
	coordCh, _ := p.openIPSP(t)
	if !coordCh.Writable() {
		t.Fatal("fresh channel should be writable")
	}
	// Burst SDUs without letting the sim run: credits (10) must run out.
	blocked := false
	for i := 0; i < 30; i++ {
		if !coordCh.Writable() {
			blocked = true
			break
		}
		if err := coordCh.SendSDUBuf(pktbuf.FromBytes(make([]byte, 100)), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !blocked {
		t.Fatal("channel never exerted backpressure within initial credit budget")
	}
	writableAgain := false
	coordCh.OnEvents = &ChannelFuncs{Writable: func() { writableAgain = true }}
	p.s.Run(p.s.Now() + 5*sim.Second)
	if !writableAgain {
		t.Fatal("Unblocked never fired after drain")
	}
}

// twoChannelRun opens two channels on one endpoint whose LL pool holds three
// frames, queues frames on both twice over — once left to the endpoint's
// kick to drain, once torn down — and returns everything an upper layer or a
// trace reader could observe, in order.
func twoChannelRun(t *testing.T) []string {
	p := newPairPool(t, 11, 700)
	tr := trace.New(p.s, 0)
	tr.Enable()
	p.coordCtl.SetTrace(tr, "coord")

	var log []string
	note := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	p.subEP.OnChannelOpen = &Listener{PSM: PSMIPSP, Open: func(ch *Channel) {
		ch.OnEvents = &ChannelFuncs{SDU: func(sdu *pktbuf.Buf, pid uint64) { note("rx scid=%#x pid=%d", ch.SCID(), pid); sdu.Put() }}
	}}
	var chs []*Channel
	p.coordEP.OnChannelOpen = &Listener{Open: func(ch *Channel) {
		ch.OnEvents = &ChannelFuncs{
			Writable: func() { note("writable scid=%#x", ch.SCID()) },
			Close:    func() { note("close scid=%#x", ch.SCID()) },
		}
		chs = append(chs, ch)
	}}
	for i := 0; i < 2; i++ {
		p.coordEP.Dial(PSMIPSP)
	}
	for i := 0; i < 100 && len(chs) < 2; i++ {
		p.s.Run(p.s.Now() + 50*sim.Millisecond)
	}
	if len(chs) != 2 {
		t.Fatal("two channels did not open")
	}
	// Three 206-byte PDUs fill the 700-byte pool; the fourth SDU arms the
	// kick, and from there both channels hold queued frames.
	pid := uint64(0)
	burst := func() {
		for i := 0; i < 3; i++ {
			for _, ch := range chs {
				pid++
				if err := ch.SendSDUBuf(pktbuf.FromBytes(make([]byte, 200)), pid, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		if chs[0].QueueLen() == 0 || chs[1].QueueLen() == 0 {
			t.Fatalf("queued frames %d/%d, want some on both channels", chs[0].QueueLen(), chs[1].QueueLen())
		}
	}
	burst()
	p.s.Run(p.s.Now() + 2*sim.Second) // the kick drains both
	if chs[0].QueueLen() != 0 || chs[1].QueueLen() != 0 {
		t.Fatal("kick did not drain the channels")
	}
	note("teardown")
	burst()
	p.coordEP.Teardown()
	// Every record the coordinator's LL and channels made, in order: each
	// frame's ll-ready and ll-tx, and the drops of the torn-down ones.
	for _, e := range tr.Events("coord") {
		note("trace %v", e)
	}
	return log
}

// An endpoint with two channels used to range over a Go map in its kick,
// in Teardown and in the credit search, so which channel drained, closed and
// logged its link-reset drops first changed from run to run (IPSP opens one
// channel, which hid it). The tables are ordered: ascending scid, every run.
func TestEndpointTwoChannelsDeterministicOrder(t *testing.T) {
	want := twoChannelRun(t)
	closes := slices.DeleteFunc(slices.Clone(want), func(s string) bool { return !strings.HasPrefix(s, "close") })
	if !slices.Equal(closes, []string{"close scid=0x40", "close scid=0x41"}) {
		t.Fatalf("teardown closed %v, want ascending scid", closes)
	}
	for rep := 1; rep < 20; rep++ {
		if got := twoChannelRun(t); !slices.Equal(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("repetition %d diverges at record %d of %d: %q, first run %q", rep, i, len(want), append(got, "<end>")[i], want[i])
				}
			}
			t.Fatalf("repetition %d: %d records, first run %d", rep, len(got), len(want))
		}
	}
}

// What an endpoint costs before a channel opens, paid per link end:
// NewEndpoint, its channel server and the ATT fixed-channel handler. With a
// Go map behind each of four tables this was 8 allocations (the struct, its
// bound onLL, four map headers, and the first group of the two maps written
// to); with the tables nil until used, 4 (the struct, onLL and one entry for
// each of the two). The upcalls are interfaces the layers above implement
// with types they already allocate, and the server and fixed handler are
// one slot each, so it is the struct alone.
func TestEndpointSetupAllocs(t *testing.T) {
	conn := new(ble.Conn)
	srv := &Listener{PSM: PSMIPSP}
	handler := FixedFunc(func([]byte) {})
	if allocs := testing.AllocsPerRun(100, func() {
		ep := NewEndpoint(nil, conn)
		ep.OnChannelOpen = srv
		ep.HandleFixed(CIDATT, handler)
	}); allocs != 1 {
		t.Fatalf("endpoint set-up: %v allocations, want 1 (was 4 with closures and tables)", allocs)
	}
}

// connFuncs adapts two functions to ble.ConnHandler; a nil one ignores its
// upcall, and it rejects every parameter request.
type connFuncs struct {
	Up   func(c *ble.Conn)
	Down func(c *ble.Conn, reason ble.LossReason)
}

func (f *connFuncs) ConnUp(c *ble.Conn) {
	if f.Up != nil {
		f.Up(c)
	}
}

func (f *connFuncs) ConnDown(c *ble.Conn, reason ble.LossReason) {
	if f.Down != nil {
		f.Down(c, reason)
	}
}

func (f *connFuncs) ParamRequest(*ble.Conn, sim.Duration) bool { return false }

// TestPoolFullPDUsWaitForKick: a credit signal and an ATT PDU the full LL
// pool refuses wait on the endpoint in send order and go out on the kick,
// before the channel frame queued ahead of them. On a dead link what waits is
// released unsent, and nothing more is held.
func TestPoolFullPDUsWaitForKick(t *testing.T) {
	p := newPairPool(t, 12, 700)
	coordCh, subCh := p.openIPSP(t)
	var got []string
	subCh.txCredits = 0 // blocked, so the credit grant shows as Unblocked
	subCh.OnEvents = &ChannelFuncs{
		SDU:      func(b *pktbuf.Buf, _ uint64) { got = append(got, "sdu"); b.Put() },
		Writable: func() { got = append(got, "credit") },
	}
	p.subEP.HandleFixed(CIDATT, FixedFunc(func([]byte) { got = append(got, "att") }))
	fill := func() {
		// Three 233-byte PDUs leave 1 byte of the 700-byte pool; the
		// fourth stays queued on the channel and arms the kick.
		for i := 0; i < 4; i++ {
			if err := coordCh.SendSDUBuf(pktbuf.FromBytes(make([]byte, 227)), 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		if coordCh.QueueLen() != 1 {
			t.Fatalf("%d K-frames queued on the channel, want 1 behind the full pool", coordCh.QueueLen())
		}
		p.coordEP.sendSignal(signal{code: codeFlowCredit, id: p.coordEP.nextSigID(), cid: coordCh.scid, credits: 1})
		p.coordEP.SendFixed(CIDATT, []byte{0x01, 0x10, 0, 0, 0x0A})
		if n := len(p.coordEP.held); n != 2 {
			t.Fatalf("%d PDUs held while the pool is full, want 2", n)
		}
	}
	fill()
	p.s.Run(p.s.Now() + 2*sim.Second)
	if want := []string{"sdu", "sdu", "sdu", "credit", "att", "sdu"}; !slices.Equal(got, want) {
		t.Fatalf("peer received %v, want %v", got, want)
	}
	if len(p.coordEP.held) != 0 || p.coordEP.kickArmed {
		t.Fatalf("after the kick: %d PDUs held, kick armed %v", len(p.coordEP.held), p.coordEP.kickArmed)
	}

	got = nil
	fill()
	p.coordEP.Conn().Kill()
	p.coordEP.Teardown() // as the adapter does when the link goes down
	p.coordEP.sendSignal(signal{code: codeFlowCredit, id: p.coordEP.nextSigID(), cid: coordCh.scid, credits: 1})
	p.coordEP.SendFixed(CIDATT, []byte{0x01})
	p.s.Run(p.s.Now() + 2*sim.Second)
	if len(got) != 0 || len(p.coordEP.held) != 0 || p.coordEP.kickArmed {
		t.Fatalf("dead link: peer received %v, %d PDUs held, kick armed %v; want nothing",
			got, len(p.coordEP.held), p.coordEP.kickArmed)
	}
}
