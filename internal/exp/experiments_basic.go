package exp

import (
	"fmt"

	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
)

// hour scales the paper's 1-hour runtime.
func hour(o Options) sim.Duration {
	d := sim.Duration(float64(sim.Hour) * o.Scale)
	if d < 2*sim.Minute {
		d = 2 * sim.Minute
	}
	return d
}

// runTopo builds, settles, and drives one BLE network run.
func runTopo(o Options, run int, topo testbed.Topology, policy statconn.IntervalPolicy,
	traffic TrafficConfig, dur sim.Duration, mutate func(*NetworkConfig)) *Network {
	nw := settleTopo(o, run, topo, policy, mutate)
	nw.StartTraffic(traffic)
	nw.Run(dur)
	return nw
}

// settleTopo builds one BLE network run and lets its links form and settle,
// stopping where runTopo starts the traffic.
func settleTopo(o Options, run int, topo testbed.Topology, policy statconn.IntervalPolicy,
	mutate func(*NetworkConfig)) *Network {
	cfg := NetworkConfig{
		Seed:         o.Seed + int64(run)*1000,
		Shards:       o.Shards,
		Topology:     topo,
		Policy:       policy,
		JamChannel22: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	nw := BuildNetwork(cfg)
	nw.WaitTopology(60 * sim.Second)
	nw.Run(10 * sim.Second) // settle
	return nw
}

func init() {
	register(Experiment{
		ID:     "table1",
		Title:  "Qualitative comparison of common IoT radios",
		Figure: "Table 1",
		Run:    runTable1,
	})
	register(Experiment{
		ID:     "fig7",
		Title:  "Reliability and latency, tree vs line topology",
		Figure: "Fig. 7(a,b)",
		Run:    runFig7,
	})
	register(Experiment{
		ID:     "fig8a",
		Title:  "RTT under varying BLE connection intervals",
		Figure: "Fig. 8(a)",
		Run:    runFig8a,
	})
	register(Experiment{
		ID:     "fig8b",
		Title:  "RTT under varying producer intervals",
		Figure: "Fig. 8(b)",
		Run:    runFig8b,
	})
	register(Experiment{
		ID:     "fig9a",
		Title:  "High load: per-producer PDR, buffer overflow",
		Figure: "Fig. 9(a)",
		Run:    runFig9a,
	})
	register(Experiment{
		ID:     "fig9b",
		Title:  "Slow connection interval: burst losses",
		Figure: "Fig. 9(b)",
		Run:    runFig9b,
	})
	register(Experiment{
		ID:     "fig10",
		Title:  "BLE vs IEEE 802.15.4 on the same workload",
		Figure: "Fig. 10(a,b)",
		Run:    runFig10,
	})
	register(Experiment{
		ID:     "table2",
		Title:  "Open-source IP-over-BLE implementations",
		Figure: "Table 2",
		Run:    runTable2,
	})
}

func runTable1(o Options) *Report {
	r := newReport("table1", "Qualitative comparison of common IoT radios (paper Table 1)")
	r.addBlock(`Radio        Throughput  Range  NodeCount  EnergyEff  Availability
BLE (mesh)   high        high   high       high       high
BLE (star)   high        low    low        high       high
802.15.4     low         high   high       mid        low
LoRa         low         high   mid        mid        low
WLAN         high        high   mid        low        high
(qualitative, transcribed from the paper; not measured)`)
	return r
}

func runFig7(o Options) *Report {
	o.defaults()
	r := newReport("fig7", "Reliability and latency for tree and line topologies (1h, CI 75ms, producer 1s±0.5s)")
	dur := hour(o)
	for _, topo := range []testbed.Topology{testbed.Tree(), testbed.Line()} {
		nw := runTopo(o, 0, topo, statconn.Static{Interval: 75 * sim.Millisecond},
			TrafficConfig{}, dur, nil)
		pdr, rtts := nw.CoAPPDR(), nw.MergedRTTs()
		r.addf("%s: CoAP PDR %.4f%% (%d/%d), %d connection losses, LL PDR %.4f",
			topo.Name, 100*pdr.Rate(), pdr.Delivered, pdr.Sent, nw.ConnLosses(), nw.LLPDR())
		r.addBlock(nw.Series.ASCII(fmt.Sprintf("  %s PDR/min", topo.Name)))
		r.addBlock(rtts.ASCII(60, 8, fmt.Sprintf("  %s RTT CDF [s]", topo.Name)))
		r.set(topo.Name+"_pdr", pdr.Rate())
		r.set(topo.Name+"_losses", float64(nw.ConnLosses()))
		r.set(topo.Name+"_rtt_median_s", rtts.Median())
		r.set(topo.Name+"_rtt_p99_s", rtts.Quantile(0.99))
	}
	if tm, lm := r.Value("tree_rtt_median_s"), r.Value("line_rtt_median_s"); tm > 0 {
		r.addf("median RTT ratio line/tree = %.2f (paper: ≈3.5, the hop-count ratio 7.5/2.1)", lm/tm)
		r.set("rtt_ratio", lm/tm)
	}
	return r
}

func runFig8a(o Options) *Report {
	o.defaults()
	r := newReport("fig8a", "CoAP RTT vs BLE connection interval (tree, producer 1s±0.5s)")
	dur := hour(o)
	for _, ci := range []sim.Duration{25, 50, 75, 100, 250, 500, 750} {
		ci := ci * sim.Millisecond
		nw := runTopo(o, 0, testbed.Tree(), statconn.Static{Interval: ci},
			TrafficConfig{}, dur, nil)
		rtts := nw.MergedRTTs()
		med := rtts.Median()
		r.addf("CI %5v: RTT median %.3fs p95 %.3fs p99 %.3fs max %.3fs (= %.1f×/%.1f×/%.1f× CI)  PDR %.4f",
			ci, med, rtts.Quantile(0.95), rtts.Quantile(0.99), rtts.Max(),
			med/ci.Seconds(), rtts.Quantile(0.95)/ci.Seconds(), rtts.Max()/ci.Seconds(),
			nw.CoAPPDR().Rate())
		key := fmt.Sprintf("rtt_median_ci%dms", int(ci.Milliseconds()))
		r.set(key, med)
		r.set(fmt.Sprintf("rtt_in_ci_units_ci%dms", int(ci.Milliseconds())), med/ci.Seconds())
	}
	r.addf("(paper: most packets between 1× and 4× the connection interval; runaway tails possible)")
	return r
}

func runFig8b(o Options) *Report {
	o.defaults()
	r := newReport("fig8b", "CoAP RTT vs producer interval (tree, CI 75ms)")
	dur := hour(o)
	for _, pi := range []sim.Duration{100 * sim.Millisecond, 500 * sim.Millisecond,
		sim.Second, 5 * sim.Second, 10 * sim.Second, 30 * sim.Second} {
		nw := runTopo(o, 0, testbed.Tree(), statconn.Static{Interval: 75 * sim.Millisecond},
			TrafficConfig{Interval: pi, Jitter: pi / 2}, dur, nil)
		rtts := nw.MergedRTTs()
		med := rtts.Median()
		r.addf("producer %6v: RTT median %.3fs p99 %.3fs  PDR %.4f  bufferDrops %d",
			pi, med, rtts.Quantile(0.99), nw.CoAPPDR().Rate(), nw.BufferDrops())
		r.set(fmt.Sprintf("rtt_median_pi%dms", int(pi.Milliseconds())), med)
		r.set(fmt.Sprintf("pdr_pi%dms", int(pi.Milliseconds())), nw.CoAPPDR().Rate())
	}
	r.addf("(paper: the producer interval barely affects delay while below capacity; 100ms exceeds it)")
	return r
}

func runFig9a(o Options) *Report {
	o.defaults()
	r := newReport("fig9a", "High network load: producer 100ms±50ms, CI 75ms (tree)")
	nw := runTopo(o, 0, testbed.Tree(), statconn.Static{Interval: 75 * sim.Millisecond},
		TrafficConfig{Interval: 100 * sim.Millisecond, Jitter: 50 * sim.Millisecond},
		hour(o), nil)
	pdr := nw.CoAPPDR()
	r.addf("average CoAP PDR %.3f (paper: ≈0.75), buffer drops %d, conn losses %d",
		pdr.Rate(), nw.BufferDrops(), nw.ConnLosses())
	r.addBlock("per-producer PDR heatmap (rows = producers, cols = minutes):")
	r.addBlock(nw.PerProd.ASCII())
	// Unevenness across producers (clearly visible in the paper's heatmap).
	lo, hi := 1.0, 0.0
	for _, row := range nw.PerProd.Rows() {
		rate := nw.PerProd.Row(row).Overall().Rate()
		if rate < lo {
			lo = rate
		}
		if rate > hi {
			hi = rate
		}
	}
	r.addf("per-producer PDR spread: min %.3f max %.3f", lo, hi)
	r.set("avg_pdr", pdr.Rate())
	r.set("pdr_min_producer", lo)
	r.set("pdr_max_producer", hi)
	r.set("buffer_drops", float64(nw.BufferDrops()))
	return r
}

func runFig9b(o Options) *Report {
	o.defaults()
	r := newReport("fig9b", "Slow connection interval: CI 2000ms, producer 1s±0.5s (tree)")
	nw := runTopo(o, 0, testbed.Tree(), statconn.Static{Interval: 2 * sim.Second},
		TrafficConfig{}, hour(o), nil)
	pdr := nw.CoAPPDR()
	r.addf("average CoAP PDR %.3f (paper: below the fig9a level — burst traffic), buffer drops %d",
		pdr.Rate(), nw.BufferDrops())
	r.addBlock(nw.Series.ASCII("  PDR/min"))
	r.set("avg_pdr", pdr.Rate())
	r.set("buffer_drops", float64(nw.BufferDrops()))
	return r
}

func runFig10(o Options) *Report {
	o.defaults()
	r := newReport("fig10", "BLE vs IEEE 802.15.4, same tree and workload (producer 1s±0.5s)")
	dur := hour(o)
	for _, ci := range []sim.Duration{25 * sim.Millisecond, 75 * sim.Millisecond} {
		nw := runTopo(o, 0, testbed.Tree(), statconn.Static{Interval: ci},
			TrafficConfig{}, dur, nil)
		pdr, rtts := nw.CoAPPDR(), nw.MergedRTTs()
		key := fmt.Sprintf("ble%dms", int(ci.Milliseconds()))
		r.addf("BLE CI %v: PDR %.4f  RTT median %.3fs p99 %.3fs",
			ci, pdr.Rate(), rtts.Median(), rtts.Quantile(0.99))
		r.addBlock(rtts.ASCII(60, 6, "  RTT CDF [s], BLE "+ci.String()))
		r.set(key+"_pdr", pdr.Rate())
		r.set(key+"_rtt_median_s", rtts.Median())
	}
	// The baseline's medium is noiseless, as it always was: giving it the
	// BLE runs' default PER would move this figure.
	dot := BuildNetwork(NetworkConfig{Seed: o.Seed, Shards: o.Shards, Topology: testbed.Tree(),
		LinkLayer: LinkDot15d4, NoisePER: -1})
	dot.Run(5 * sim.Second)
	dot.StartTraffic(TrafficConfig{})
	dot.Run(dur)
	pdr, rtts := dot.CoAPPDR(), dot.MergedRTTs()
	r.addf("IEEE 802.15.4 CSMA/CA: PDR %.4f  RTT median %.3fs p99 %.3fs",
		pdr.Rate(), rtts.Median(), rtts.Quantile(0.99))
	r.addBlock(rtts.ASCII(60, 6, "  RTT CDF [s], 802.15.4"))
	r.set("dot15d4_pdr", pdr.Rate())
	r.set("dot15d4_rtt_median_s", rtts.Median())
	r.addf("(paper: 802.15.4 ≈0.833 PDR < BLE ≥0.99; 802.15.4 delivers faster when it delivers)")
	return r
}

func runTable2(o Options) *Report {
	r := newReport("table2", "Open-source IP-over-BLE implementations (paper Table 2)")
	r.addBlock(`Implementation   HW portability  GATT service  IoB single-hop  IoB multi-hop
RIOT + NimBLE    yes             yes           yes             yes   <- the platform reproduced here
BLEach (Contiki) limited         no            yes             no
Zephyr           yes             yes           yes             no
(qualitative, transcribed from the paper; not measured)`)
	return r
}
