package exp

import (
	"fmt"
	"testing"

	"blemesh/internal/coap"
	"blemesh/internal/ip6"
	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
)

// benchHops is the hop count of the packet-path benchmark: an 8-node line
// with the consumer at one end and the measured producer at the other.
const benchHops = 7

// benchLine builds the 8-node line topology (consumer 1, producer 8).
func benchLine() testbed.Topology {
	t := testbed.Topology{Name: "bench-line8", Consumer: 1}
	for i := 2; i <= benchHops+1; i++ {
		t.Links = append(t.Links, testbed.Link{Coordinator: i, Subordinate: i - 1})
	}
	return t
}

// benchExchanger forms the bench line and returns a closure performing one
// complete CoAP NON GET exchange (request + response, the paper's 39-byte
// producer payload) from the line's far end to the consumer. Network
// assembly and topology formation happen before it returns, so what the
// closure allocates is the steady-state per-exchange datapath cost: CoAP
// codec, ip6/UDP encode, IPHC compression, L2CAP segmentation, LL PDUs, and
// every forwarding hop — plus the idle connection events that elapse while
// the exchange is in flight. Even on a clean channel a many-hour run
// occasionally loses one BLE link to a supervision timeout (adjacent
// connection events colliding), taking the in-flight NON exchange with it;
// the closure re-issues the request after self-healing rather than failing
// the benchmark — one retry in tens of thousands of exchanges is noise next
// to the per-exchange allocation count being measured.
func benchExchanger(tb testing.TB) func() {
	nw := BuildNetwork(NetworkConfig{
		Seed:     1,
		Topology: benchLine(),
		Policy:   statconn.Static{Interval: 15 * sim.Millisecond},
		NoisePER: -1, // clean channel: measure the datapath, not retransmissions
	})
	if !nw.WaitTopology(60 * sim.Second) {
		tb.Fatal("bench line topology did not form within 60s")
	}
	nw.Run(2 * sim.Second) // settle credit/ack machinery
	consumer := nw.Consumer()
	consumer.Coap.Handler = func(_ ip6.Addr, req *coap.Message) *coap.Message {
		return &coap.Message{Type: coap.ACK, Code: coap.CodeValid}
	}
	producer := nw.Node(benchHops + 1)
	dst := consumer.Addr()
	return func() {
		for attempt := 0; attempt < 5; attempt++ {
			done := false
			req := &coap.Message{Type: coap.NON, Code: coap.CodeGET,
				Payload: make([]byte, 39)}
			req.SetPath("s")
			err := producer.Coap.Request(dst, req, func(m *coap.Message, _ sim.Duration, _ error) {
				if m != nil {
					done = true
				}
			})
			if err != nil {
				panic(fmt.Sprintf("bench exchange: send failed: %v", err))
			}
			deadline := nw.Sim.Now() + 10*sim.Second
			for !done && nw.Sim.Now() < deadline {
				nw.Run(5 * sim.Millisecond)
			}
			if done {
				return
			}
		}
		panic("bench exchange: no response through 5 attempts")
	}
}

// BenchmarkPacketPathAllocs measures the steady-state heap cost of one
// end-to-end 7-hop CoAP exchange (request + response); benchmark/ reports the
// same cost on its workloads as exp.allocs_per_exchange.
func BenchmarkPacketPathAllocs(b *testing.B) {
	runExchange := benchExchanger(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runExchange()
	}
}

// TestPacketPathAllocBudget gates the pooled datapath's allocation count per
// 7-hop exchange at the last recorded 38 plus 20 %, and holds it below the
// unpooled reference path's.
func TestPacketPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so the pooled count is not the code path's")
	}
	defer pktbuf.SetPooling(true)
	measure := func(pooled bool) float64 {
		pktbuf.SetPooling(pooled)
		return testing.AllocsPerRun(200, benchExchanger(t))
	}
	pooled, unpooled := measure(true), measure(false)
	t.Logf("allocs per 7-hop exchange: %.0f pooled, %.0f unpooled", pooled, unpooled)
	if pooled > 46 {
		t.Errorf("pooled exchange allocates %.0f times, budget 46", pooled)
	}
	if pooled >= unpooled {
		t.Errorf("pooled exchange allocates %.0f times, unpooled %.0f: the pool saves nothing", pooled, unpooled)
	}
}
