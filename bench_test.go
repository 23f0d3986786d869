// Benchmarks regenerating every table and figure of "Mind the Gap:
// Multi-hop IPv6 over BLE in the IoT" (CoNEXT '21), one testing.B target
// per artifact, plus the two design-choice ablations from DESIGN.md.
//
// Each iteration runs the experiment at a reduced duration scale so the
// whole suite finishes in minutes; `cmd/blemesh run <id> -scale 1` runs
// the paper-length version. The reported metric sanity checks run on every
// iteration — a benchmark that regenerates the wrong shape fails loudly.
package blemesh

import (
	"testing"
)

// benchScale keeps a single bench iteration around 5-20 seconds of
// simulated time per configuration.
const benchScale = 0.04

func runBench(b *testing.B, id string, scale float64, check func(*Report) bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := RunExperiment(id, Options{Seed: int64(i) + 2, Scale: scale, Runs: 1})
		if err != nil {
			b.Fatal(err)
		}
		if check != nil && !check(rep) {
			b.Fatalf("%s: shape check failed\n%s", id, rep.String())
		}
	}
}

// BenchmarkTable1Radios regenerates Table 1 (qualitative radio comparison).
func BenchmarkTable1Radios(b *testing.B) {
	runBench(b, "table1", benchScale, func(r *Report) bool { return len(r.Lines) > 0 })
}

// BenchmarkFig7Reliability regenerates Fig. 7: tree and line reliability
// and latency under the default workload.
func BenchmarkFig7Reliability(b *testing.B) {
	runBench(b, "fig7", benchScale, func(r *Report) bool {
		// Who wins and by what factor: both topologies deliver ≥95%
		// in a typical run, line RTT ≈ hop-ratio × tree RTT.
		return r.Value("tree_pdr") > 0.95 && r.Value("line_pdr") > 0.80 &&
			r.Value("line_rtt_median_s") > 2*r.Value("tree_rtt_median_s")
	})
}

// BenchmarkFig8ConnInterval regenerates Fig. 8(a): RTT grows with the
// connection interval, staying within a few intervals.
func BenchmarkFig8ConnInterval(b *testing.B) {
	runBench(b, "fig8a", benchScale, func(r *Report) bool {
		return r.Value("rtt_median_ci750ms") > r.Value("rtt_median_ci25ms")
	})
}

// BenchmarkFig8ProducerInterval regenerates Fig. 8(b): the producer
// interval barely moves the RTT while the network is below capacity.
func BenchmarkFig8ProducerInterval(b *testing.B) {
	runBench(b, "fig8b", benchScale, func(r *Report) bool {
		m1, m30 := r.Value("rtt_median_pi1000ms"), r.Value("rtt_median_pi30000ms")
		return m1 > 0 && m30 > 0 && m1 < 3*m30 && m30 < 3*m1
	})
}

// BenchmarkFig9HighLoad regenerates Fig. 9(a): overload with uneven
// per-producer delivery (the degree depends on anchor luck per seed).
func BenchmarkFig9HighLoad(b *testing.B) {
	runBench(b, "fig9a", benchScale, func(r *Report) bool {
		return r.Value("pdr_min_producer") <= r.Value("pdr_max_producer")
	})
}

// BenchmarkFig9SlowInterval regenerates Fig. 9(b): a 2s connection
// interval turns the same offered load into bursts and buffer losses.
func BenchmarkFig9SlowInterval(b *testing.B) {
	runBench(b, "fig9b", benchScale, func(r *Report) bool {
		return r.Value("avg_pdr") < 0.999
	})
}

// BenchmarkFig10Dot15d4 regenerates Fig. 10: BLE delivers more, 802.15.4
// delivers faster.
func BenchmarkFig10Dot15d4(b *testing.B) {
	runBench(b, "fig10", benchScale, func(r *Report) bool {
		return r.Value("dot15d4_pdr") < r.Value("ble75ms_pdr") &&
			r.Value("dot15d4_rtt_median_s") < r.Value("ble75ms_rtt_median_s")
	})
}

// BenchmarkSec54Energy regenerates §5.4's energy numbers.
func BenchmarkSec54Energy(b *testing.B) {
	runBench(b, "sec54", benchScale, func(r *Report) bool {
		return r.Value("idle75_coord_uA") > 30 && r.Value("idle75_coord_uA") < 31.5 &&
			r.Value("idle75_sub_uA") > 34 && r.Value("idle75_sub_uA") < 35.5
	})
}

// BenchmarkFig12Shading regenerates Fig. 12: a shaded link's LL PDR drops,
// uniformly across channels.
func BenchmarkFig12Shading(b *testing.B) {
	runBench(b, "fig12", 0.2, func(r *Report) bool {
		return r.Value("worst_ll_pdr") < 0.95
	})
}

// BenchmarkSec62ShadingModel regenerates the §6.2 analytic model.
func BenchmarkSec62ShadingModel(b *testing.B) {
	runBench(b, "sec62", benchScale, func(r *Report) bool {
		return r.Value("worst_events_per_hour") > 239 && r.Value("worst_events_per_hour") < 241 &&
			r.Value("network_events_per_24h") > 75 && r.Value("network_events_per_24h") < 85
	})
}

// BenchmarkFig13Mitigation regenerates Fig. 13: randomized intervals remove
// the losses that static intervals suffer (drift exaggerated in scaled runs
// through the sweep's 10× factor inside fig14/fig13 helpers).
func BenchmarkFig13Mitigation(b *testing.B) {
	runBench(b, "fig13", 0.01, func(r *Report) bool {
		return r.Value("tree_rand65-85_pdr") >= r.Value("tree_static75_pdr")-0.01
	})
}

// BenchmarkFig14Losses regenerates Fig. 14's loss distribution.
func BenchmarkFig14Losses(b *testing.B) {
	runBench(b, "fig14", 0.02, func(r *Report) bool {
		// Randomized windows must not lose more than their static
		// counterparts in aggregate.
		static := r.Value("losses_25") + r.Value("losses_50") + r.Value("losses_75") +
			r.Value("losses_100") + r.Value("losses_500")
		random := r.Value("losses_[15:35]") + r.Value("losses_[40:60]") +
			r.Value("losses_[65:85]") + r.Value("losses_[90:110]") + r.Value("losses_[490:510]")
		return random <= static
	})
}

// BenchmarkFig15Sweep regenerates the Appendix-B grid (one row per cell).
func BenchmarkFig15Sweep(b *testing.B) {
	runBench(b, "fig15", 0.01, func(r *Report) bool {
		return len(r.Values) >= 60*4
	})
}

// BenchmarkAblationArbitration contrasts the two radio arbitration
// policies under forced shading (DESIGN.md ablation).
func BenchmarkAblationArbitration(b *testing.B) {
	runBench(b, "abl-arb", 0.1, func(r *Report) bool {
		return r.Value("losses_alternate") <= r.Value("losses_skip")
	})
}

// BenchmarkAblationWindowWidening contrasts window widening on/off under
// worst-case legal drift (DESIGN.md ablation).
func BenchmarkAblationWindowWidening(b *testing.B) {
	runBench(b, "abl-ww", benchScale, func(r *Report) bool {
		return r.Value("losses_off") > r.Value("losses_on")
	})
}

// BenchmarkLinkThroughput measures the simulator itself: saturated
// single-link goodput (the §5.2 "close to 500kbps" baseline) per wall
// second of simulation.
func BenchmarkLinkThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := New(int64(i) + 1)
		a := w.NewNode(NodeConfig{Name: "a", MAC: 0xA1, ClockPPM: 1})
		c := w.NewNode(NodeConfig{Name: "b", MAC: 0xB2, ClockPPM: -1})
		a.AcceptInbound(1)
		c.ConnectTo(a)
		w.Run(5 * Second)
		received := 0
		a.Stack.ListenUDP(9, func(Addr, uint16, []byte) { received++ })
		var pump func()
		pump = func() {
			for j := 0; j < 4; j++ {
				_, _ = c.Stack.SendUDPPID(a.Addr(), 9, 9, make([]byte, 1000))
			}
			w.Sim.After(20*Millisecond, pump)
		}
		w.Sim.After(0, pump)
		w.Run(10 * Second)
		if received == 0 {
			b.Fatal("no throughput")
		}
		kbps := float64(received) * 1000 * 8 / 10 / 1000
		b.ReportMetric(kbps, "sim-kbps")
	}
}

// BenchmarkLatencyDecomposition regenerates the flight-recorder latency
// report: every delivered packet's latency tiled into queue / interval /
// airtime / retransmission components, exactly.
func BenchmarkLatencyDecomposition(b *testing.B) {
	runBench(b, "latency", benchScale, func(r *Report) bool {
		return r.Value("delivered") > 0 && r.Value("tiling_max_err_us") <= 1
	})
}

// denseTree drives the fig9a-style dense-tree workload (producer 100ms,
// CI 75ms) with the flight recorder on or off, returning delivered count.
func denseTree(seed int64, traced bool) uint64 {
	nw := BuildNetwork(NetworkConfig{
		Seed:          seed,
		Topology:      Tree(),
		JamChannel22:  true,
		Trace:         traced,
		TraceCapacity: 1 << 19,
	})
	nw.WaitTopology(60 * Second)
	nw.Run(10 * Second)
	nw.StartTraffic(TrafficConfig{Interval: 100 * Millisecond, Jitter: 50 * Millisecond})
	nw.Run(2 * Minute)
	return nw.CoAPPDR().Delivered
}

// BenchmarkDenseTreeTraceOff and BenchmarkDenseTreeTraceOn bracket the
// flight recorder's cost on the densest workload. The disabled case pays
// one branch per instrumentation site; compare ns/op between the two to
// check the <5% disabled-overhead budget (run with -count to average).
func BenchmarkDenseTreeTraceOff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if denseTree(int64(i)+2, false) == 0 {
			b.Fatal("nothing delivered")
		}
	}
}

func BenchmarkDenseTreeTraceOn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if denseTree(int64(i)+2, true) == 0 {
			b.Fatal("nothing delivered")
		}
	}
}
