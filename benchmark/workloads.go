package main

import (
	"io"
	"math"

	"blemesh/internal/exp"
	"blemesh/internal/fault"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
)

// workload is one named set of inputs. Everything the simulator receives —
// topology, NetworkConfig, traffic, fault plan — is derived here from the
// seed and the size; nothing else feeds the program under test.
type workload struct {
	name string
	why  string
	// units is the number of measured units in one run: repetitions with
	// their own network (seed+i), or — when shared — consecutive segments
	// of one network.
	units int
	// spanPerSecond is the simulated span of one unit per second of
	// -seconds, calibrated on the reference host (2 × Xeon 2.1 GHz) so the
	// measured span of a run takes about -seconds host seconds.
	spanPerSecond sim.Duration
	// shared selects the one-network shape (city-10k): set-up is repeated
	// setups times to give setup_s a median, the last network is kept, ramp
	// simulated seconds of traffic run untimed, then the units follow.
	shared bool
	setups int
	ramp   sim.Duration
	// nodes sizes generated topologies (0 for the fixed testbed layouts).
	nodes   int
	traffic exp.TrafficConfig
	// sinkRate is the request rate one sink sees (requests per simulated
	// second); the coap.sink_exchange_ns probe replays it on one hop.
	sinkRate float64
	// lanes is the worker-lane count of the sharded engine, NetworkConfig's
	// Shards (0: the serial engine). A host with fewer processors is refused.
	lanes    int
	topology func(seed int64, nodes int) testbed.Topology
	config   func(seed int64, topo testbed.Topology, stream io.Writer) exp.NetworkConfig
	// form runs the network up to the point traffic may start and reports
	// whether the topology formed.
	form func(nw *exp.Network, topo testbed.Topology) bool
	// plan scripts the faults of one unit (nil: none).
	plan func(span sim.Duration) *fault.Plan
	// pdrBand is the sanity band of the pooled CoAP PDR: outside it the
	// workload no longer exercises the mechanism it was chosen for.
	pdrBand [2]float64
}

// size is what one run measures. The full size follows from -seconds; the
// smoke test substitutes a small one.
type size struct {
	units int
	span  sim.Duration // simulated span of one unit
	nodes int
	// full marks the size -seconds gives; the sanity bands that prove a
	// workload still exercises its mechanism hold only there.
	full bool
	// probeDiv divides the probes' iteration counts (the smoke test's way
	// to stay short); 0 means 1.
	probeDiv int
}

func (w *workload) size(seconds int) size {
	return size{units: w.units, span: w.spanPerSecond * sim.Duration(seconds), nodes: w.nodes, full: true}
}

// drainWindow is the tail of the measured span left out of coap_pdr, so
// requests still in flight when the run stops are not counted as lost.
func drainWindow(measured sim.Duration) sim.Duration {
	if d := measured / 4; d < 10*sim.Second {
		return d
	}
	return 10 * sim.Second
}

func paperTree(int64, int) testbed.Topology { return testbed.Tree() }

// paperConfig is the paper's §4.3 network: static 75 ms connection
// interval, ±3 ppm clocks, 0.5 % background PER, channel 22 jammed.
func paperConfig(seed int64, topo testbed.Topology, _ io.Writer) exp.NetworkConfig {
	return exp.NetworkConfig{
		Seed:         seed,
		Topology:     topo,
		Policy:       statconn.Static{Interval: 75 * sim.Millisecond},
		MaxPPM:       3,
		NoisePER:     0.005,
		JamChannel22: true,
		SeriesBucket: sim.Second,
	}
}

func formTree(nw *exp.Network, _ testbed.Topology) bool {
	ok := nw.WaitTopology(120 * sim.Second)
	nw.Run(10 * sim.Second) // settle credits and the first supervision windows
	return ok
}

// cityTopologySeed fixes city-10k's generated layout to the canonical city of
// exp.CityScaleConfig; the workload seed drives everything that happens on
// it (clock errors, jitter, noise, RNG streams). A fresh city per seed moved
// coap_rtt_p99_ms by 26 % between seeds — more than any bound may be — since
// the tail is set by how deep the deepest sites happen to be.
const cityTopologySeed = 42

// cityLanes is city-10k's worker-lane count: the workload is defined on two.
const cityLanes = 2

var workloads = []*workload{
	{
		name:          "tree-paper",
		why:           "paper default (Fig. 7): 15-node tree, 14 producers at 1 s; idle BLE connection events dominate, so sim, ble and phy do the work; 9 reps x 36 simulated minutes",
		units:         9,
		spanPerSecond: 216 * sim.Second,
		traffic:       exp.TrafficConfig{Interval: sim.Second, Jitter: 500 * sim.Millisecond, PayloadBytes: 39},
		sinkRate:      14,
		topology:      paperTree,
		config:        paperConfig,
		form:          formTree,
		pdrBand:       [2]float64{0.99, 1},
	},
	{
		name:          "tree-overload",
		why:           "paper high load (Fig. 9a): same tree, producers at 100 ms (140 req/s at one sink); queues full and dropping, so coap, ip6, l2cap, pktbuf dominate; 45 reps x 1 simulated minute",
		units:         45,
		spanPerSecond: 6 * sim.Second,
		traffic:       exp.TrafficConfig{Interval: 100 * sim.Millisecond, Jitter: 50 * sim.Millisecond, PayloadBytes: 39},
		sinkRate:      140,
		topology:      paperTree,
		config:        paperConfig,
		form:          formTree,
		pdrBand:       [2]float64{0.5, 0.995},
	},
	{
		name:          "city-10k",
		why:           "10k-node random geometric city, lean, sparse routes, 2 lanes: the only load on phy grid scans, sim.Sharded, the arena build and memory; 9 segments x 5 simulated s of one network",
		units:         9,
		spanPerSecond: 500 * sim.Millisecond,
		shared:        true,
		setups:        3,
		ramp:          5 * sim.Second,
		nodes:         10000,
		lanes:         cityLanes,
		traffic:       exp.TrafficConfig{Interval: 10 * sim.Second, Jitter: 5 * sim.Second, PayloadBytes: 39},
		sinkRate:      0.5,
		topology: func(_ int64, nodes int) testbed.Topology {
			// 256 m² per node, the density of the canonical 10k city.
			side := 1600 * math.Sqrt(float64(nodes)/10000)
			return testbed.RandomGeometric(testbed.GeoConfig{
				Seed: cityTopologySeed, N: nodes, Width: side, Height: side, Range: 15})
		},
		config: func(seed int64, topo testbed.Topology, _ io.Writer) exp.NetworkConfig {
			return exp.NetworkConfig{
				Seed:         seed,
				Topology:     topo,
				Policy:       statconn.Static{Interval: 75 * sim.Millisecond},
				JamChannel22: true,
				Lean:         true,
				SparseRoutes: true,
				Shards:       cityLanes,
				SeriesBucket: sim.Second,
			}
		},
		form: func(nw *exp.Network, topo testbed.Topology) bool {
			nw.Run(20 * sim.Second)
			up := 0
			ids := topo.Nodes()
			for _, id := range ids {
				if nw.NodeLinksUp(id) {
					up++
				}
			}
			return up*100 >= len(ids)*99
		},
		pdrBand: [2]float64{0.95, 1},
	},
	{
		name:          "mesh-churn",
		why:           "braided mesh, RPL, random 65-85 ms intervals, a forwarder rebooted every 30 s, sampled trace, streamed metrics: the only load on rpl, fault, reconnects, trace, metrics; 9 reps x 15 simulated minutes",
		units:         9,
		spanPerSecond: 90 * sim.Second,
		traffic:       exp.TrafficConfig{Interval: sim.Second, Jitter: 500 * sim.Millisecond, PayloadBytes: 39},
		sinkRate:      14,
		topology:      func(int64, int) testbed.Topology { return testbed.Mesh() },
		config: func(seed int64, topo testbed.Topology, stream io.Writer) exp.NetworkConfig {
			return exp.NetworkConfig{
				Seed:          seed,
				Topology:      topo,
				Policy:        statconn.Random{Min: 65 * sim.Millisecond, Max: 85 * sim.Millisecond},
				MaxPPM:        3,
				NoisePER:      0.005,
				JamChannel22:  true,
				Routing:       exp.RoutingDynamic,
				Trace:         true,
				TraceSample:   0.1,
				StreamMetrics: stream,
				StreamEvery:   10 * sim.Second,
				SeriesBucket:  sim.Second,
			}
		},
		form: func(nw *exp.Network, _ testbed.Topology) bool {
			return nw.WaitTopology(120*sim.Second) && nw.WaitConverged(120*sim.Second)
		},
		plan:    churnPlan,
		pdrBand: [2]float64{0.5, 0.999},
	},
}

// Churn timing: one forwarder reboot every churnEvery, off for churnDwell.
const (
	churnEvery = 30 * sim.Second
	churnDwell = 10 * sim.Second
)

// churnPlan reboots the three first-hop forwarders round-robin. Every
// restart lands inside the span, so the executed log has exactly two
// records (crash, restart) per planned reboot.
func churnPlan(span sim.Duration) *fault.Plan {
	forwarders := []int{2, 3, 4}
	p := &fault.Plan{}
	for i := 0; ; i++ {
		at := sim.Duration(i+1) * churnEvery
		if at+churnDwell >= span {
			return p
		}
		p.Events = append(p.Events, fault.Event{
			At: at, Kind: fault.Reboot, Node: forwarders[i%len(forwarders)], Dwell: churnDwell})
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
