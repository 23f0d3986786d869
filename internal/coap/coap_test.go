package coap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"blemesh/internal/ip6"
	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
)

func TestMessageCodecRoundTrip(t *testing.T) {
	m := &Message{
		Type:      NON,
		Code:      CodeGET,
		MessageID: 0xBEEF,
		Token:     []byte{1, 2},
		Payload:   bytes.Repeat([]byte{0xAB}, 39),
	}
	m.SetPath("sensor", "temp")
	m.AddOption(OptContentFormat, []byte{0})
	enc, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != NON || got.Code != CodeGET || got.MessageID != 0xBEEF {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Token, m.Token) || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatal("token/payload mismatch")
	}
	if got.Path() != "/sensor/temp" {
		t.Fatalf("path = %q", got.Path())
	}
}

func TestMessageSizeMatchesPaperWorkload(t *testing.T) {
	// The paper's requests carry a 39-byte payload inside 100-byte IP
	// packets: CoAP framing must stay under 52 bytes of the UDP payload
	// (100 - 40 IPv6 - 8 UDP).
	m := &Message{Type: NON, Code: CodeGET, MessageID: 1, Token: []byte{1, 2},
		Payload: make([]byte, 39)}
	m.SetPath("p")
	enc, _ := m.Encode()
	if len(enc) > 52 {
		t.Fatalf("request encoding %d bytes, exceeds the paper's framing budget", len(enc))
	}
}

func TestOptionExtendedDeltas(t *testing.T) {
	m := &Message{Type: CON, Code: CodePOST, MessageID: 5}
	m.AddOption(1, []byte{9})
	m.AddOption(300, bytes.Repeat([]byte{7}, 20)) // delta > 269
	m.AddOption(2000, bytes.Repeat([]byte{8}, 300))
	enc, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Options) != 3 || got.Options[1].Number != 300 || got.Options[2].Number != 2000 {
		t.Fatalf("options mismatch: %+v", got.Options)
	}
	if len(got.Options[2].Value) != 300 {
		t.Fatalf("long option value lost: %d", len(got.Options[2].Value))
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		{},
		{0x40, 1},                      // short
		{0x80, 1, 0, 0},                // version 2
		{0x49, 1, 0, 0},                // TKL 9
		{0x40, 1, 0, 0, 0xFF},          // empty payload after marker
		{0x40, 1, 0, 0, 0xF1, 2},       // reserved nibble 15
		{0x40, 1, 0, 0, 0xD1},          // truncated extension
		{0x40, 1, 0, 0, 0x05, 1, 2, 3}, // truncated option value (len 5, 3 present)
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: bad message accepted", i)
		}
	}
}

func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(typ byte, code byte, mid uint16, tok []byte, payload []byte) bool {
		if len(tok) > 8 {
			tok = tok[:8]
		}
		if len(payload) > 500 {
			payload = payload[:500]
		}
		m := &Message{Type: Type(typ & 3), Code: Code(code), MessageID: mid,
			Token: tok, Payload: payload}
		m.SetPath("x")
		enc, err := m.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(enc)
		if err != nil {
			return false
		}
		return got.Type == m.Type && got.Code == m.Code && got.MessageID == mid &&
			bytes.Equal(got.Token, tok) && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCodeHelpers(t *testing.T) {
	if !CodeGET.IsRequest() || CodeContent.IsRequest() || CodeEmpty.IsRequest() {
		t.Fatal("IsRequest misclassifies")
	}
	if CodeContent.String() != "2.05" || CodeNotFound.String() != "4.04" {
		t.Fatalf("code strings: %v %v", CodeContent, CodeNotFound)
	}
}

// twoStacks wires two ip6 stacks back to back through in-memory interfaces.
type wireIf struct {
	peer    *ip6.Stack
	peerMAC uint64
	s       *sim.Sim
	delay   sim.Duration
	drop    func() bool
}

func (w *wireIf) Output(mac uint64, pkt *pktbuf.Buf, pid uint64) bool {
	if w.drop != nil && w.drop() {
		pkt.Put()
		return true // swallowed
	}
	w.s.After(w.delay, func() { w.peer.InputBuf(pkt, pid) })
	return true
}
func (w *wireIf) HasNeighbor(mac uint64) bool { return mac == w.peerMAC }

func twoStacks(s *sim.Sim, delay sim.Duration) (*ip6.Stack, *ip6.Stack, *wireIf, *wireIf) {
	a := ip6.NewStack(s, 0x0A)
	b := ip6.NewStack(s, 0x0B)
	wa := &wireIf{peer: b, peerMAC: 0x0B, s: s, delay: delay}
	wb := &wireIf{peer: a, peerMAC: 0x0A, s: s, delay: delay}
	a.AddInterface(wa)
	b.AddInterface(wb)
	return a, b, wa, wb
}

func TestNONRequestResponse(t *testing.T) {
	s := sim.New(1)
	a, b, _, _ := twoStacks(s, 5*sim.Millisecond)
	client := NewEndpoint(s, a)
	server := NewEndpoint(s, b)
	server.Handler = func(from ip6.Addr, req *Message) *Message {
		if req.Path() != "/data" {
			return &Message{Type: ACK, Code: CodeNotFound}
		}
		return &Message{Type: ACK, Code: CodeValid}
	}
	// The response lives only for the callback: capture it there.
	var resp *Message
	var rtt sim.Duration
	req := &Message{Type: NON, Code: CodeGET, Payload: make([]byte, 39)}
	req.SetPath("data")
	if err := client.Request(b.GlobalAddr(), req, func(m *Message, d sim.Duration, _ error) {
		if m != nil {
			resp = &Message{Type: m.Type, Code: m.Code}
		}
		rtt = d
	}); err != nil {
		t.Fatal(err)
	}
	s.Run(sim.Second)
	if resp == nil || resp.Code != CodeValid || resp.Type != ACK {
		t.Fatalf("response: %+v", resp)
	}
	if rtt != 10*sim.Millisecond {
		t.Fatalf("rtt = %v, want 10ms", rtt)
	}
	if client.Stats().ResponsesMatched != 1 || server.Stats().RequestsServed != 1 {
		t.Fatalf("stats: %+v / %+v", client.Stats(), server.Stats())
	}
}

func TestCONRetransmitsUntilAnswered(t *testing.T) {
	s := sim.New(2)
	a, b, wa, _ := twoStacks(s, sim.Millisecond)
	// Drop the first two requests.
	drops := 2
	wa.drop = func() bool {
		if drops > 0 {
			drops--
			return true
		}
		return false
	}
	client := NewEndpoint(s, a)
	server := NewEndpoint(s, b)
	server.Handler = func(ip6.Addr, *Message) *Message {
		return &Message{Type: ACK, Code: CodeContent, Payload: []byte("ok")}
	}
	// The response lives only for the callback: capture it there.
	var resp *Message
	req := &Message{Type: CON, Code: CodeGET}
	req.SetPath("r")
	client.Request(b.GlobalAddr(), req, func(m *Message, _ sim.Duration, _ error) {
		if m != nil {
			resp = &Message{Code: m.Code, Payload: bytes.Clone(m.Payload)}
		}
	})
	s.Run(30 * sim.Second)
	if resp == nil || resp.Code != CodeContent {
		t.Fatalf("CON exchange failed: %+v", resp)
	}
	if client.Stats().Retransmissions < 2 {
		t.Fatalf("retransmissions = %d, want ≥ 2", client.Stats().Retransmissions)
	}
}

// TestLoopbackAnswerEndsTheExchangeInSend: a request to the node's own
// address is answered before its send returns. The exchange then ends
// there — callback once, record back in the pool — and no timer is armed
// for it: a confirmable one is not retransmitted, nor does it expire.
func TestLoopbackAnswerEndsTheExchangeInSend(t *testing.T) {
	for _, typ := range []Type{NON, CON} {
		s := sim.New(8)
		st := ip6.NewStack(s, 0x0A)
		ep := NewEndpoint(s, st)
		ep.Handler = func(ip6.Addr, *Message) *Message { return &Message{Type: ACK, Code: CodeValid} }
		calls := 0
		if err := ep.Request(st.GlobalAddr(), &Message{Type: typ, Code: CodeGET}, func(m *Message, _ sim.Duration, err error) {
			if m == nil || m.Code != CodeValid {
				t.Errorf("%v: response %+v, %v", typ, m, err)
			}
			calls++
		}); err != nil {
			t.Fatal(err)
		}
		if calls != 1 || len(ep.pending) != 0 || s.Pending() != 0 {
			t.Fatalf("%v: %d callbacks, %d pending, %d events armed after the send; want 1, 0, 0", typ, calls, len(ep.pending), s.Pending())
		}
		s.Run(200 * sim.Second)
		if st := ep.Stats(); calls != 1 || st.Retransmissions != 0 || st.Timeouts != 0 || st.ResponsesMatched != 1 {
			t.Fatalf("%v: %d callbacks, stats %+v", typ, calls, st)
		}
	}
}

func TestCONGivesUpAfterMaxRetransmit(t *testing.T) {
	s := sim.New(3)
	a, b, wa, _ := twoStacks(s, sim.Millisecond)
	wa.drop = func() bool { return true } // black hole
	client := NewEndpoint(s, a)
	NewEndpoint(s, b)
	var failure error
	req := &Message{Type: CON, Code: CodeGET}
	client.Request(b.GlobalAddr(), req, func(m *Message, _ sim.Duration, err error) {
		if m == nil {
			failure = err
		}
	})
	s.Run(200 * sim.Second)
	if failure == nil {
		t.Fatal("CON request never timed out")
	}
	if failure != ErrGaveUp {
		t.Fatalf("failure = %v, want ErrGaveUp", failure)
	}
	if got := client.Stats().Retransmissions; got != MaxRetransmit {
		t.Fatalf("retransmissions = %d, want %d", got, MaxRetransmit)
	}
	if client.Stats().GiveUps != 1 || client.Stats().Timeouts != 0 {
		t.Fatalf("give-up misclassified: %+v", client.Stats())
	}
}

func TestNONTimesOutWithoutRetransmit(t *testing.T) {
	s := sim.New(4)
	a, b, wa, _ := twoStacks(s, sim.Millisecond)
	wa.drop = func() bool { return true }
	client := NewEndpoint(s, a)
	NewEndpoint(s, b)
	var failure error
	req := &Message{Type: NON, Code: CodeGET}
	client.Request(b.GlobalAddr(), req, func(m *Message, _ sim.Duration, err error) {
		if m == nil {
			failure = err
		}
	})
	// The lost request waits for its response without its message: only a
	// confirmable request is ever sent again.
	if len(client.pending) != 1 || client.pending[0].msg != nil || binary.BigEndian.Uint16(client.pending[0].tok[:]) != uint16(client.tokSeq) {
		t.Fatalf("pending NON exchange: %d records, first %+v", len(client.pending), client.pending[0])
	}
	s.Run(200 * sim.Second)
	if failure == nil {
		t.Fatal("NON request never expired")
	}
	if failure != ErrTimeout {
		t.Fatalf("failure = %v, want ErrTimeout", failure)
	}
	if client.Stats().Retransmissions != 0 {
		t.Fatal("NON request was retransmitted")
	}
	if client.Stats().Timeouts != 1 || client.Stats().GiveUps != 0 {
		t.Fatalf("timeout misclassified: %+v", client.Stats())
	}
}

func TestDuplicateRequestSuppressed(t *testing.T) {
	s := sim.New(5)
	a, b, _, _ := twoStacks(s, sim.Millisecond)
	NewEndpoint(s, a)
	server := NewEndpoint(s, b)
	served := 0
	server.Handler = func(ip6.Addr, *Message) *Message {
		served++
		return &Message{Type: ACK, Code: CodeValid}
	}
	// Hand-deliver the same encoded request twice (as a CON retransmit
	// arriving after the response was lost).
	req := &Message{Type: CON, Code: CodeGET, MessageID: 77, Token: []byte{9}}
	enc, _ := req.Encode()
	b.InputBuf(buildUDP(a, b, enc), 0)
	b.InputBuf(buildUDP(a, b, enc), 0)
	s.Run(sim.Second)
	if served != 1 {
		t.Fatalf("handler ran %d times for duplicate MID", served)
	}
	if server.Stats().Duplicates != 1 {
		t.Fatalf("duplicates = %d", server.Stats().Duplicates)
	}
}

// buildUDP builds the CoAP-port UDP packet from one stack to another in a
// pooled buffer, back to front as ip6.Stack.SendUDPPID does.
func buildUDP(from, to *ip6.Stack, payload []byte) *pktbuf.Buf {
	h := ip6.Header{NextHeader: ip6.ProtoUDP, HopLimit: 64,
		Src: from.GlobalAddr(), Dst: to.GlobalAddr()}
	b := pktbuf.Get(pktbuf.DefaultHeadroom, len(payload))
	copy(b.Bytes(), payload)
	b.Prepend(ip6.UDPHeaderLen)
	ip6.PutUDP(h.Src, h.Dst, DefaultPort, DefaultPort, b.Bytes())
	pl := b.Len()
	h.Put(b.Prepend(ip6.HeaderLen), pl)
	return b
}

func TestTokensDistinguishConcurrentRequests(t *testing.T) {
	s := sim.New(6)
	a, b, _, _ := twoStacks(s, sim.Millisecond)
	client := NewEndpoint(s, a)
	server := NewEndpoint(s, b)
	server.Handler = func(_ ip6.Addr, req *Message) *Message {
		return &Message{Type: ACK, Code: CodeContent, Payload: []byte(req.Path())}
	}
	got := map[string]string{}
	for _, path := range []string{"one", "two", "three"} {
		path := path
		req := &Message{Type: NON, Code: CodeGET}
		req.SetPath(path)
		client.Request(b.GlobalAddr(), req, func(m *Message, _ sim.Duration, _ error) {
			if m != nil {
				got[path] = string(m.Payload)
			}
		})
	}
	s.Run(sim.Second)
	for _, path := range []string{"one", "two", "three"} {
		if got[path] != "/"+path {
			t.Fatalf("response for %q = %q", path, got[path])
		}
	}
}

// treeProducers returns the addresses of 14 requesters, the paper tree's
// producer count.
func treeProducers() []ip6.Addr {
	peers := make([]ip6.Addr, 14)
	for i := range peers {
		peers[i] = ip6.ULA(ip6.DefaultPrefix, uint64(0x100+i))
	}
	return peers
}

// dedupOracle is the reference for the dedup cache: a plain map keyed by
// the full (peer, MID) pair, the 60 s predicate, and no expiry at all.
type dedupOracle struct {
	seen         map[oracleKey]sim.Time
	served, dups uint64
}

type oracleKey struct {
	peer ip6.Addr
	mid  uint16
}

func (o *dedupOracle) request(k oracleKey, now sim.Time) {
	if at, ok := o.seen[k]; ok && now-at < 60*sim.Second {
		o.dups++
		return
	}
	o.seen[k] = now
	o.served++
}

// TestDedupMatchesOracle replays seeded random (peer, MID, Δt) streams
// through the endpoint and the oracle. The streams are built to contain a
// re-sighting at exactly 60 s (not a duplicate), re-sightings after expiry,
// MID wrap, more than 4096 live entries and reboots mid-stream; each is
// counted, so a stream that stopped producing one fails the test.
func TestDedupMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New(seed)
		ep := NewEndpoint(s, ip6.NewStack(s, 0x0B))
		or := &dedupOracle{seen: map[oracleKey]sim.Time{}}

		peers := treeProducers()
		mids := make([]uint16, len(peers)) // next fresh MID per peer; starts just below the wrap
		for i := range mids {
			mids[i] = 65536 - 200
		}
		type sent struct {
			k  oracleKey
			at sim.Time
		}
		var history []sent // every request, in time order
		inWindow := 0      // index of the oldest request less than 60 s old
		var atExactly60, afterExpiry, inside, wraps, resets, peakLive int

		now := sim.Time(0)
		for step := 0; step < 48000; step++ {
			var k oracleKey
			switch p := rng.Intn(1000); {
			case step%16000 == 8000:
				ep.Reset()
				or.seen = map[oracleKey]sim.Time{}
				resets++
				continue
			case p < 3 && inWindow > 0:
				// Revisit one of the oldest requests in the window exactly
				// 60 s after it (a short step once the window is full).
				h := history[inWindow+rng.Intn(min(8, len(history)-inWindow))]
				k, now = h.k, h.at+60*sim.Second
			case p < 6 && inWindow > 0:
				// Revisit a request that has left the window.
				k = history[rng.Intn(inWindow)].k
			case p < 150 && len(history) > 0:
				// A retransmission of something recent.
				k = history[len(history)-1-rng.Intn(min(len(history), 50))].k
				now += sim.Duration(rng.Intn(20)) * sim.Millisecond
			default:
				if step%16000 == 15999 {
					now += sim.Duration(30+rng.Intn(100)) * sim.Second // the cache drains
				} else {
					now += sim.Duration(rng.Intn(16)) * sim.Millisecond
				}
				i := rng.Intn(len(peers))
				k = oracleKey{peers[i], mids[i]}
				mids[i]++
				if mids[i] == 0 {
					wraps++
				}
			}
			if at, ok := or.seen[k]; ok {
				switch d := now - at; {
				case d == 60*sim.Second:
					atExactly60++
				case d > 60*sim.Second:
					afterExpiry++
				default:
					inside++
				}
			}
			s.Run(now)
			ep.handleRequest(k.peer, DefaultPort, &Message{Type: NON, Code: CodeGET, MessageID: k.mid})
			or.request(k, now)
			history = append(history, sent{k, now})
			for now-history[inWindow].at >= 60*sim.Second {
				inWindow++
			}

			st := ep.Stats()
			if st.RequestsServed != or.served || st.Duplicates != or.dups {
				t.Fatalf("seed %d step %d (%v mid %d at %v): served/dups %d/%d, oracle %d/%d",
					seed, step, k.peer, k.mid, now, st.RequestsServed, st.Duplicates, or.served, or.dups)
			}
			live := len(ep.dedup.seen)
			if live != ep.dedup.order.Len() || live > len(history)-inWindow {
				t.Fatalf("seed %d step %d: %d keys, %d queued, %d requests in the last 60 s",
					seed, step, live, ep.dedup.order.Len(), len(history)-inWindow)
			}
			peakLive = max(peakLive, live)
		}
		if atExactly60 == 0 || afterExpiry == 0 || inside == 0 || wraps == 0 || resets == 0 || peakLive <= 4096 {
			t.Fatalf("seed %d: stream lost a case: exactly60=%d afterExpiry=%d inside=%d wraps=%d resets=%d peakLive=%d",
				seed, atExactly60, afterExpiry, inside, wraps, resets, peakLive)
		}
	}
}

// TestResetClearsDedup: a reboot forgets the queue and the peer table as
// well as the keys.
func TestResetClearsDedup(t *testing.T) {
	s := sim.New(1)
	ep := NewEndpoint(s, ip6.NewStack(s, 0x0B))
	peer := ip6.ULA(ip6.DefaultPrefix, 0x0A)
	req := &Message{Type: CON, Code: CodeGET, MessageID: 7}
	ep.handleRequest(peer, DefaultPort, req)
	ep.Reset()
	if ep.dedup != nil {
		t.Fatalf("after Reset the cache survives: %+v", ep.dedup)
	}
	ep.handleRequest(peer, DefaultPort, req)
	if st := ep.Stats(); st.RequestsServed != 2 || st.Duplicates != 0 {
		t.Fatalf("request after reboot treated as duplicate: %+v", st)
	}
	if d := ep.dedup; len(d.seen) != 1 || d.order.Len() != 1 || len(d.peers) != 1 {
		t.Fatalf("after one request: %d keys, %d queued, %d peers", len(d.seen), d.order.Len(), len(d.peers))
	}
}

// serveSteady brings an endpoint to a steady state of live dedup entries —
// one request every ⌈60 s/live⌉ from 14 peers, so each request expires one
// entry and adds one — and returns the function that serves the next one.
func serveSteady(live int) func() {
	s := sim.New(1)
	ep := NewEndpoint(s, ip6.NewStack(s, 0x0B))
	peers := treeProducers()
	step := (60*sim.Second + sim.Duration(live) - 1) / sim.Duration(live)
	req := &Message{Type: NON, Code: CodeGET}
	n := 0
	serve := func() {
		s.Run(s.Now() + step)
		req.MessageID = uint16(n / len(peers))
		ep.handleRequest(peers[n%len(peers)], DefaultPort, req)
		n++
	}
	for i := 0; i < 2*live; i++ {
		serve()
	}
	if got := len(ep.dedup.seen); got != live {
		panic(fmt.Sprintf("steady state holds %d entries, want %d", got, live))
	}
	return serve
}

// BenchmarkEndpointServe measures one served request at 1 k, 8 k and 64 k
// live dedup entries. The cost must not depend on the cache size: ns/op
// flat (within 2×) and allocs/op not growing. With the full-scan expiry this
// replaced, ns/op grew linearly past 4096 entries.
func BenchmarkEndpointServe(b *testing.B) {
	for _, live := range []int{1 << 10, 8 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			serve := serveSteady(live)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}

// TestServeDoesNotAllocate holds the steady-state request path to zero
// allocations whatever the cache size.
func TestServeDoesNotAllocate(t *testing.T) {
	for _, live := range []int{1 << 10, 8 << 10} {
		if avg := testing.AllocsPerRun(4*live, serveSteady(live)); avg != 0 {
			t.Fatalf("%d live entries: %.2f allocs per served request, want 0", live, avg)
		}
	}
}
