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
// 7-hop exchange at the last recorded 6 plus two, and holds it below the
// unpooled reference path's. All 6 are benchExchanger's own: the request's
// payload, option slice and path bytes, the callback closure and the flag
// it sets, and the handler's fresh response. The datapath itself allocates
// nothing (TestSteadyExchangeAllocs).
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
	if pooled > 8 {
		t.Errorf("pooled exchange allocates %.0f times, budget 8 (6 of them the harness's: request payload, options and path bytes, callback and its flag, handler response)", pooled)
	}
	if pooled >= unpooled {
		t.Errorf("pooled exchange allocates %.0f times, unpooled %.0f: the pool saves nothing", pooled, unpooled)
	}
}

// TestSteadyExchangeAllocs holds the paper's producer and sink, over one
// settled hop, to zero allocations per exchange in steady state: request
// and response encoded on the stack, decoded in place, their exchange
// record and decoded message pooled, the pktbuf charge carried by the
// buffer, and every lower layer pooled. The harness's own growth — the PDR
// series' buckets — is done before the count.
func TestSteadyExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so the count is not the code path's")
	}
	topo := testbed.Topology{Name: "one-hop", Consumer: 1, Links: []testbed.Link{{Coordinator: 2, Subordinate: 1}}}
	topo.Seal()
	nw := BuildNetwork(NetworkConfig{
		Seed:     1,
		Topology: topo,
		Policy:   statconn.Static{Interval: 15 * sim.Millisecond},
		NoisePER: -1,
	})
	if !nw.WaitTopology(60 * sim.Second) {
		t.Fatal("one-hop topology did not form within 60s")
	}
	const interval = 50 * sim.Millisecond
	nw.StartTraffic(TrafficConfig{Interval: interval, Jitter: sim.Millisecond})
	// Past the 60 s dedup window the sink's cache expires one entry for
	// each it adds, so it no longer grows.
	nw.Run(70 * sim.Second)
	const runs = 400
	nw.Series.Grow(nw.Now() + (runs+2)*interval)
	producer := nw.Node(2).Coap
	before := producer.Stats().ResponsesMatched
	allocs := testing.AllocsPerRun(runs, func() { nw.Run(interval) })
	if n := producer.Stats().ResponsesMatched - before; n < runs {
		t.Fatalf("%d exchanges completed in %d producer intervals", n, runs+1)
	}
	if allocs != 0 {
		t.Errorf("a steady-state exchange allocates %.0f times, want 0", allocs)
	}
}
