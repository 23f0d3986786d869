// Command blemesh-bench measures the simulator's hot paths and gates
// regressions. It benchmarks both event-queue engines on the timer-storm and
// cancel-heavy workloads and derives machine-independent speedup ratios
// (heap ns per event / wheel ns per event), and it measures the end-to-end
// packet datapath's heap cost (allocations and bytes per 7-hop CoAP
// exchange) with the pktbuf pool on and off, and it compares four worker lanes
// of the scheduler against one on a four-site forest, and it times the
// canonical 10k-node
// generated city-scale run per event (ns_per_event_10k; gated locally by
// -max10kns, informational in CI). With -write it records the
// result as a baseline (BENCH_sim.json); with -check it verifies the wheel's
// dense-workload advantage holds (≥1.2×), that the pooled datapath stays at
// least 50% below the pre-pooling allocation count, and that no metric
// regressed more than -tolerance against the committed baseline (speedups
// must not fall, allocation counts must not rise). Ratios and allocation
// counts, not absolute nanoseconds, are compared, so the gate is stable
// across CI machines.
//
// Usage:
//
//	blemesh-bench -write [-out BENCH_sim.json]
//	blemesh-bench -check [-baseline BENCH_sim.json] [-tolerance 0.20]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"blemesh/internal/exp"
	"blemesh/internal/metrics/sketch"
	"blemesh/internal/pktbuf"
	"blemesh/internal/prof"
	"blemesh/internal/sim"
	"blemesh/internal/testbed"
)

const (
	stormEvents  = 200_000
	cancelEvents = 100_000
	// minDenseSpeedup is the acceptance bar of the timer-wheel engine: at
	// least 20% faster than the reference heap on the dense timer storm.
	minDenseSpeedup = 1.2
	// allocsPrePool is the packet-path benchmark's allocs/op before the
	// pooled zero-copy datapath existed — the fixed reference point for the
	// allocation gate. The pooled path must stay at or below half of it.
	allocsPrePool        = 1914
	maxAllocsFracOfFixed = 0.5
	// sketchSamples sizes the quantile-sketch accuracy/memory measurement.
	sketchSamples = 1_000_000
	// maxSketchRelErr bounds the sketch's p50/p95/p99 relative error against
	// the exact quantiles of the same 1e6-sample stream.
	maxSketchRelErr = 0.01
	// minSketchMemReduction is the acceptance bar of the sketch backend: at
	// least 10× smaller than the exact sorted-sample store at 1e6 samples.
	minSketchMemReduction = 10.0
	// traceSampleRate is the packet keep rate of the sampled-trace
	// measurement; maxTraceSampledOverhead bounds the surviving event
	// fraction (sampling at 10% must shed well over half the event volume).
	traceSampleRate         = 0.10
	maxTraceSampledOverhead = 0.35
	// minShardedSpeedup is the local floor for four worker lanes against one
	// on the four-site forest: the same four site simulations, run on four
	// goroutines instead of inline, must not run slower. On a single hardware
	// thread the ratio is ≈ 1 (the goroutine hand-off per window is all that
	// differs), so parity is the hard floor; the ≥1.5× dense-forest target
	// needs real cores and is checked informationally in CI.
	minShardedSpeedup = 1.0
	// shardedBenchLanes is the worker-lane count of the gated measurement
	// (the speedup_sharded4 key).
	shardedBenchLanes = 4
	// max10kNsPerEvent is the local ceiling for the 10k-node city-scale
	// run's per-event cost. The measured value sits well under half of
	// this on a development machine; a spatial-index or lean-mode
	// regression (falling back to O(domain) scans or materializing
	// per-node metrics) blows past it by an order of magnitude.
	max10kNsPerEvent = 2000.0
)

func stormNsPerEvent(engine sim.Engine, timers int) float64 {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sim.NewWithEngine(42, engine)
			sim.TimerStorm(s, timers, stormEvents)
		}
	})
	return float64(r.NsPerOp()) / stormEvents
}

func cancelNsPerEvent(engine sim.Engine) float64 {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sim.NewWithEngine(7, engine)
			sim.CancelStorm(s, cancelEvents)
		}
	})
	return float64(r.NsPerOp()) / cancelEvents
}

// packetPathStats measures the per-exchange heap cost of the full datapath
// with the pktbuf pool toggled as given. Allocation counts are deterministic
// properties of the code path, not of the machine, which is what makes them
// gateable.
func packetPathStats(pooled bool) (allocs, bytes float64) {
	pktbuf.SetPooling(pooled)
	defer pktbuf.SetPooling(true)
	r := testing.Benchmark(exp.PacketPathBench)
	return float64(r.AllocsPerOp()), float64(r.AllocedBytesPerOp())
}

// sketchStats feeds one deterministic heavy-tailed stream (lognormal, the
// shape of the simulator's RTT distributions) into the t-digest and into an
// exact sorted store, and reports the relative quantile errors and the
// memory reduction. Both are deterministic properties of the sketch, not of
// the machine, which is what makes them gateable.
func sketchStats() map[string]float64 {
	rng := rand.New(rand.NewSource(1))
	sk := sketch.New()
	samples := make([]float64, sketchSamples)
	for i := range samples {
		v := 0.001 * math.Exp(rng.NormFloat64())
		samples[i] = v
		sk.Add(v)
	}
	sort.Float64s(samples)
	exactQ := func(q float64) float64 {
		pos := q * float64(len(samples)-1)
		i := int(pos)
		if i >= len(samples)-1 {
			return samples[len(samples)-1]
		}
		f := pos - float64(i)
		return samples[i]*(1-f) + samples[i+1]*f
	}
	out := map[string]float64{}
	for _, p := range []struct {
		key string
		q   float64
	}{{"p50", 0.5}, {"p95", 0.95}, {"p99", 0.99}} {
		got, _ := sk.Quantile(p.q)
		want := exactQ(p.q)
		out["sketch_q_relerr_"+p.key] = absf(got-want) / absf(want)
	}
	exactBytes := float64(8 * len(samples))
	out["sketch_mem_reduction_1e6"] = exactBytes / float64(sk.MemBytes())
	return out
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// traceSampledOverhead runs the same short traced workload twice — full
// flight recorder vs 10% packet sampling — and returns the surviving event
// fraction. The runs are deterministic, so the ratio is machine-independent.
func traceSampledOverhead() float64 {
	run := func(rate float64) float64 {
		nw := exp.BuildNetwork(exp.NetworkConfig{
			Seed:        1,
			Trace:       true,
			TraceSample: rate,
		})
		if !nw.WaitTopology(60 * sim.Second) {
			fmt.Fprintln(os.Stderr, "blemesh-bench: trace topology did not form")
			os.Exit(1)
		}
		nw.StartTraffic(exp.TrafficConfig{})
		nw.Run(2 * sim.Minute)
		return float64(nw.Trace.Total())
	}
	full := run(0)
	sampled := run(traceSampleRate)
	return sampled / full
}

// forestNsPerEvent measures the end-to-end cost per simulated event of a
// four-site forest run (four RF-isolated trees, 60 nodes) on the given
// number of worker lanes: 0 is one lane — the baseline — and 4 runs the four
// site windows on four goroutines. Both execute the same events (output does
// not depend on the lane count); the cost is still reported per event so the
// keys compare with the other ns/event keys.
func forestNsPerEvent(shards int) float64 {
	var events uint64
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nw := exp.BuildNetwork(exp.NetworkConfig{
				Seed:     1,
				Shards:   shards,
				Topology: testbed.Forest(4),
			})
			if !nw.WaitTopology(60 * sim.Second) {
				fmt.Fprintln(os.Stderr, "blemesh-bench: forest topology did not form")
				os.Exit(1)
			}
			nw.StartTraffic(exp.TrafficConfig{})
			nw.Run(2 * sim.Minute)
			events = nw.Processed()
		}
	})
	return float64(r.NsPerOp()) / float64(events)
}

// cityNsPerEvent measures the per-event cost of the canonical 10k-node
// generated city-scale run (exp.CityScaleConfig: lean metrics, sparse
// sink-tree routes, spatial grid index, sharded scheduler). One timed run —
// the number is an absolute ns value, gated only by the -max10kns ceiling
// (CI passes 0 to keep it informational on shared runners; locally the
// default ceiling catches a spatial-index or lean-mode regression, which
// shows up as a multiple, not a few percent). ns/event is wall time over
// events fired: a change that removes cheap events (the fused idle exchange
// took 45 % of them) raises it while the run gets shorter, so across such a
// change compare the two numbers it divides (EXPERIMENTS.md "Idle-path cost").
func cityNsPerEvent(lanes int) float64 {
	nw := exp.BuildNetwork(exp.CityScaleConfig(lanes))
	start := time.Now()
	nw.Run(20 * sim.Second)
	nw.StartTraffic(exp.TrafficConfig{Interval: 10 * sim.Second})
	nw.Run(25 * sim.Second)
	elapsed := time.Since(start)
	if nw.Processed() == 0 {
		fmt.Fprintln(os.Stderr, "blemesh-bench: city-scale run processed no events")
		os.Exit(1)
	}
	return float64(elapsed.Nanoseconds()) / float64(nw.Processed())
}

// cityMemStats measures the settled heap cost per node of the canonical
// 10k-node city-scale build, plus the build's wall clock. The heap-in-use
// delta is taken across the build after a double GC on each side (the
// network held live), so the number is resident footprint, not allocation
// churn — of a network that is built and *unformed*: no connection, L2CAP
// endpoint or RTT sketch exists yet, and those are most of what a running
// node costs (≈ 2.7× this key). The formed figure, and the memory regression
// guard, is benchmark/'s city-10k live_heap_mb ÷ nodes (bound and spread
// there; internal/exp TestFormedFootprintBudget pins it per node).
func cityMemStats(lanes int) map[string]float64 {
	runtime.GC()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	nw := exp.BuildNetwork(exp.CityScaleConfig(lanes))
	buildMS := time.Since(start).Seconds() * 1e3
	runtime.GC()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	var bytesPerNode float64
	if after.HeapInuse > before.HeapInuse {
		bytesPerNode = float64(after.HeapInuse-before.HeapInuse) / float64(nw.NodeCount())
	}
	runtime.KeepAlive(nw)
	return map[string]float64{
		"bytes_per_node_10k": math.Floor(bytesPerNode),
		"build_ms_10k":       buildMS,
	}
}

// city100kNsPerEvent times a short slice of the 100k-node city-scale run
// (exp.CityScale100kConfig): formation plus sparse traffic at the tentpole
// scale. Absolute ns, informational — the point is catching order-of-
// magnitude blowups (a per-node scan on the datapath, a metrics surface
// that went O(nodes)), which no tolerance band hides.
func city100kNsPerEvent(lanes int) float64 {
	nw := exp.BuildNetwork(exp.CityScale100kConfig(lanes))
	start := time.Now()
	nw.Run(5 * sim.Second)
	nw.StartTraffic(exp.TrafficConfig{Interval: 10 * sim.Second})
	nw.Run(5 * sim.Second)
	elapsed := time.Since(start)
	if nw.Processed() == 0 {
		fmt.Fprintln(os.Stderr, "blemesh-bench: 100k city-scale run processed no events")
		os.Exit(1)
	}
	return float64(elapsed.Nanoseconds()) / float64(nw.Processed())
}

// shardedStats measures the one-lane-vs-lanes forest ratio (the keys keep
// their historical names: "serial" is one lane, "sharded4" the given count).
// A result under the local floor gets one retry with the
// better of the two kept — wall-clock ratios on a shared machine are the one
// noisy measurement in this suite.
func shardedStats(lanes int) map[string]float64 {
	measure := func() (serial, sharded float64) {
		return forestNsPerEvent(0), forestNsPerEvent(lanes)
	}
	serial, sharded := measure()
	if serial/sharded < minShardedSpeedup {
		s2, sh2 := measure()
		if s2/sh2 > serial/sharded {
			serial, sharded = s2, sh2
		}
	}
	return map[string]float64{
		"serial_forest_ns_per_event": serial,
		"sharded4_ns_per_event":      sharded,
		"speedup_sharded4":           serial / sharded,
	}
}

func main() {
	write := flag.Bool("write", false, "write the measured baseline")
	check := flag.Bool("check", false, "check against the committed baseline")
	out := flag.String("out", "BENCH_sim.json", "baseline path for -write")
	baseline := flag.String("baseline", "BENCH_sim.json", "baseline path for -check")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional speedup regression")
	minSpeedup := flag.Float64("minspeedup", minDenseSpeedup,
		"required wheel-vs-heap speedup on dense workloads (CI may pass a slightly lower floor to absorb shared-runner noise)")
	minSharded := flag.Float64("minshardedspeedup", minShardedSpeedup,
		"required 4-lane-vs-1-lane speedup on the four-site forest (CI passes 0 to make the wall-clock ratio informational on shared runners)")
	shardLanes := flag.Int("shards", shardedBenchLanes,
		"worker lanes for the multi-lane forest measurement (the baseline keys are recorded at the default 4)")
	max10kNs := flag.Float64("max10kns", max10kNsPerEvent,
		"ns/event ceiling for the 10k-node city-scale run (0 disables the gate; CI passes 0 so the wall-clock value stays informational on shared runners)")
	pf := prof.Register(flag.CommandLine)
	flag.Parse()
	if !*write && !*check {
		fmt.Fprintln(os.Stderr, "blemesh-bench: pass -write and/or -check")
		os.Exit(2)
	}
	if err := (exp.NetworkConfig{Shards: *shardLanes}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "blemesh-bench:", err)
		os.Exit(2)
	}
	stopProf := pf.Start()

	m := map[string]float64{}
	for _, w := range []struct {
		key    string
		timers int
	}{{"storm64", 64}, {"storm1024", 1024}} {
		heap := stormNsPerEvent(sim.EngineHeap, w.timers)
		wheel := stormNsPerEvent(sim.EngineWheel, w.timers)
		m[w.key+"_heap_ns_per_event"] = heap
		m[w.key+"_wheel_ns_per_event"] = wheel
		m["speedup_"+w.key] = heap / wheel
	}
	heap := cancelNsPerEvent(sim.EngineHeap)
	wheel := cancelNsPerEvent(sim.EngineWheel)
	m["cancel_heap_ns_per_event"] = heap
	m["cancel_wheel_ns_per_event"] = wheel
	m["speedup_cancel"] = heap / wheel

	m["allocs_per_pkt_exchange"], m["bytes_per_pkt_exchange"] = packetPathStats(true)
	m["allocs_per_pkt_unpooled"], m["bytes_per_pkt_unpooled"] = packetPathStats(false)
	for k, v := range sketchStats() {
		m[k] = v
	}
	m["trace_sampled_overhead"] = traceSampledOverhead()
	for k, v := range shardedStats(*shardLanes) {
		m[k] = v
	}
	m["ns_per_event_10k"] = cityNsPerEvent(*shardLanes)
	for k, v := range cityMemStats(*shardLanes) {
		m[k] = v
	}
	m["ns_per_event_100k"] = city100kNsPerEvent(*shardLanes)
	stopProf() // the measurements are done; file I/O below is not of interest

	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-32s %10.2f\n", k, m[k])
	}

	if *write {
		buf, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *check {
		failed := false
		for _, k := range []string{"speedup_storm64", "speedup_storm1024"} {
			if m[k] < *minSpeedup {
				fmt.Fprintf(os.Stderr, "FAIL: %s = %.2f, want ≥ %.2f (wheel must beat heap on dense workloads)\n",
					k, m[k], *minSpeedup)
				failed = true
			}
		}
		if *max10kNs > 0 && m["ns_per_event_10k"] > *max10kNs {
			fmt.Fprintf(os.Stderr, "FAIL: ns_per_event_10k = %.0f, want ≤ %.0f (city-scale per-event cost ceiling)\n",
				m["ns_per_event_10k"], *max10kNs)
			failed = true
		}
		if m["speedup_sharded4"] < *minSharded {
			fmt.Fprintf(os.Stderr, "FAIL: speedup_sharded4 = %.2f, want ≥ %.2f (four lanes must not lose to one on the forest)\n",
				m["speedup_sharded4"], *minSharded)
			failed = true
		}
		if bar := allocsPrePool * maxAllocsFracOfFixed; m["allocs_per_pkt_exchange"] > bar {
			fmt.Fprintf(os.Stderr, "FAIL: allocs_per_pkt_exchange = %.0f, want ≤ %.0f (half the pre-pooling count of %d)\n",
				m["allocs_per_pkt_exchange"], bar, allocsPrePool)
			failed = true
		}
		for _, k := range []string{"sketch_q_relerr_p50", "sketch_q_relerr_p95", "sketch_q_relerr_p99"} {
			if m[k] > maxSketchRelErr {
				fmt.Fprintf(os.Stderr, "FAIL: %s = %.4f, want ≤ %.2f (sketch quantiles within 1%% of exact)\n",
					k, m[k], maxSketchRelErr)
				failed = true
			}
		}
		if m["sketch_mem_reduction_1e6"] < minSketchMemReduction {
			fmt.Fprintf(os.Stderr, "FAIL: sketch_mem_reduction_1e6 = %.1f, want ≥ %.0f (sketch must stay ≥10x below exact)\n",
				m["sketch_mem_reduction_1e6"], minSketchMemReduction)
			failed = true
		}
		if m["trace_sampled_overhead"] > maxTraceSampledOverhead {
			fmt.Fprintf(os.Stderr, "FAIL: trace_sampled_overhead = %.3f, want ≤ %.2f (10%% sampling must shed most event volume)\n",
				m["trace_sampled_overhead"], maxTraceSampledOverhead)
			failed = true
		}
		buf, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		base := map[string]float64{}
		if err := json.Unmarshal(buf, &base); err != nil {
			fmt.Fprintf(os.Stderr, "blemesh-bench: bad baseline %s: %v\n", *baseline, err)
			os.Exit(1)
		}
		for k, want := range base {
			switch {
			case strings.HasPrefix(k, "speedup_"):
				// Speedup ratios must not fall below the baseline.
				floor := want * (1 - *tolerance)
				if m[k] < floor {
					fmt.Fprintf(os.Stderr, "FAIL: %s = %.2f regressed below %.2f (baseline %.2f − %d%%)\n",
						k, m[k], floor, want, int(*tolerance*100))
					failed = true
				}
			case strings.HasPrefix(k, "allocs_per_pkt_") || strings.HasPrefix(k, "bytes_per_pkt_"):
				// Heap costs must not rise above the baseline.
				ceil := want * (1 + *tolerance)
				if m[k] > ceil {
					fmt.Fprintf(os.Stderr, "FAIL: %s = %.0f regressed above %.0f (baseline %.0f + %d%%)\n",
						k, m[k], ceil, want, int(*tolerance*100))
					failed = true
				}
			case strings.HasPrefix(k, "sketch_q_relerr_") || k == "trace_sampled_overhead":
				// Deterministic quality ratios must not rise above the
				// baseline (lower is better for both).
				ceil := want * (1 + *tolerance)
				if m[k] > ceil {
					fmt.Fprintf(os.Stderr, "FAIL: %s = %.4f regressed above %.4f (baseline %.4f + %d%%)\n",
						k, m[k], ceil, want, int(*tolerance*100))
					failed = true
				}
			case k == "sketch_mem_reduction_1e6":
				// Memory advantage must not fall below the baseline.
				floor := want * (1 - *tolerance)
				if m[k] < floor {
					fmt.Fprintf(os.Stderr, "FAIL: %s = %.1f regressed below %.1f (baseline %.1f − %d%%)\n",
						k, m[k], floor, want, int(*tolerance*100))
					failed = true
				}
			default:
				// Absolute ns values are informational, not gated.
			}
		}
		if failed {
			os.Exit(1)
		}
		fmt.Println("bench check passed")
	}
}
