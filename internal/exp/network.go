// Package exp is the experiment harness: it assembles the paper's testbed
// networks (BLE or IEEE 802.15.4, one builder), drives the producer/consumer
// CoAP workload of §4.3, collects the paper's metrics (CoAP PDR, link-layer
// PDR, RTT distributions, connection losses, energy), and exposes one
// runnable experiment per table and figure of the evaluation.
package exp

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"blemesh/internal/ble"
	"blemesh/internal/coap"
	"blemesh/internal/core"
	"blemesh/internal/energy"
	"blemesh/internal/ip6"
	"blemesh/internal/metrics"
	"blemesh/internal/phy"
	"blemesh/internal/rpl"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
	"blemesh/internal/trace"
)

// RoutingMode selects how a network's IP routes come to exist.
type RoutingMode int

const (
	// RoutingStatic provisions host routes along the unique topology paths
	// at build time, exactly as the paper configures its testbed (§4.3).
	// The default: every pre-existing experiment runs byte-identically.
	RoutingStatic RoutingMode = iota
	// RoutingDynamic runs RPL-lite (internal/rpl) on every node instead:
	// routes are discovered, advertised, and repaired at runtime.
	RoutingDynamic
)

func (m RoutingMode) String() string {
	if m == RoutingDynamic {
		return "dynamic"
	}
	return "static"
}

// ParseRouting parses a -routing flag value.
func ParseRouting(s string) (RoutingMode, error) {
	switch s {
	case "", "static":
		return RoutingStatic, nil
	case "dynamic":
		return RoutingDynamic, nil
	}
	return RoutingStatic, fmt.Errorf("unknown routing mode %q (static|dynamic)", s)
}

// LinkLayer selects every node's link layer: the paper's BLE, or Fig. 10's
// baseline, the IEEE 802.15.4 CSMA/CA MAC of internal/dot15d4.
type LinkLayer uint8

const (
	LinkBLE LinkLayer = iota
	LinkDot15d4
)

// NetworkConfig parameterises a testbed network.
type NetworkConfig struct {
	Seed     int64
	Topology testbed.Topology
	// LinkLayer is BLE (the zero value) or LinkDot15d4, whose nodes form one
	// PAN with no link to wait for; Validate refuses the BLE-only fields.
	LinkLayer LinkLayer
	// Engine selects the sim event-queue engine backing the run: the timer
	// wheel, or the heap reference the equivalence suites compare it against
	// (no CLI or experiment option reaches this field). It is a config field,
	// not a post-build switch, because each site's Sim picks its queue when
	// BuildNetwork creates it.
	Engine sim.Engine
	// Policy selects the connection interval strategy (static vs the
	// paper's randomized mitigation).
	Policy statconn.IntervalPolicy
	// MaxPPM bounds each node's clock error; the paper measured ±3ppm
	// (≤6µs/s relative drift).
	MaxPPM float64
	// SCA is the declared sleep-clock accuracy in ppm (default 50), what
	// window widening allows for. It may be below MaxPPM: the widening then
	// undershoots the worst drift, as the abl-arb ablation runs it (±60 ppm
	// under the default 50).
	SCA float64
	// Arbitration selects the radio scheduler policy.
	Arbitration ble.Arbitration
	// NoisePER is the background packet error rate of the 2.4GHz band
	// (0 = the default 0.005; negative = a clean channel).
	NoisePER float64
	// JamChannel22 reproduces the testbed's permanently jammed channel;
	// nodes exclude it from their channel maps, as the paper does.
	JamChannel22 bool
	// DisableWindowWidening is the ablation switch.
	DisableWindowWidening bool
	// PPMOverride pins specific nodes' clock errors (ablations); every key
	// is a node of Topology.
	PPMOverride map[int]float64
	// Trace enables the per-node link event log (§4.2-style records).
	Trace bool
	// TraceCapacity overrides the per-node trace ring capacity in events
	// (default 65536). Provenance-heavy runs (latency decomposition) need
	// more.
	TraceCapacity int
	// TraceSample keeps provenance spans for only this fraction of packets
	// (0 or ≥1 = keep all). The decision is a pure hash of the packet ID
	// made at mint time, so kept packets retain their complete multi-layer
	// journeys and decompositions still tile exactly.
	TraceSample float64
	// StreamMetrics, when set, receives periodic registry snapshots as
	// NDJSON during the run (one Gather pass every StreamEvery, each line
	// tagged with snapshot index and sim time).
	StreamMetrics io.Writer
	// StreamEvery is the metrics streaming period (default 60s).
	StreamEvery sim.Duration
	// SeriesBucket overrides the PDR time-series bucket (default 60s; the
	// churn experiment uses finer buckets to localise outage windows).
	SeriesBucket sim.Duration
	// Burst adds a Gilbert–Elliott bursty-loss process to the medium (nil =
	// none). Bursts are what actually break links: a diffuse PER of the
	// same average intensity is absorbed by per-event retransmission.
	Burst *phy.BurstParams
	// Routing selects static provisioned routes (default, the paper's
	// configuration) or the RPL-lite dynamic routing plane.
	Routing RoutingMode
	// Lean drops the per-node registry collectors and the per-producer
	// heatmap rows, keeping only the network-level aggregates. City-scale
	// runs (10k+ nodes) set it so metric memory stays O(sites), not
	// O(nodes); streaming snapshots and the aggregate counters are
	// unaffected.
	Lean bool
	// SparseRoutes provisions only the sink-tree routes — every node to its
	// site sink via its SinkForest parent, every ancestor of a node back
	// down the tree — instead of all-pairs host routes: O(N·depth) entries
	// rather than O(N²). The producer/consumer workload needs nothing more.
	SparseRoutes bool
	// Shards is the number of worker lanes (goroutines) that execute the
	// site windows of the run and the per-site build; 0 and 1 both mean one.
	// Every network runs on internal/sim's Sharded scheduler — the topology
	// cut into RF-isolated sites (connected components), each with its own
	// event queue, clock and RNG stream under a conservative barrier
	// protocol — so output is a function of the seed and the site
	// decomposition and is byte-identical for every value of Shards.
	Shards int
}

// defaults fills what no lower layer defaults: statconn picks the 75 ms
// static policy for a nil Policy, and the controller a 50 ppm SCA for 0.
func (c *NetworkConfig) defaults() {
	if c.Topology.Name == "" {
		c.Topology = testbed.Tree()
	}
	if c.NoisePER == 0 {
		c.NoisePER = 0.005
	}
	if c.MaxPPM == 0 && c.LinkLayer == LinkBLE {
		c.MaxPPM = 3
	}
}

// Validate reports a configuration BuildNetwork cannot honour. CLIs call it
// on the flag-filled config and exit with its message; BuildNetwork panics
// with it for library callers.
func (c NetworkConfig) Validate() error {
	c.defaults()
	switch {
	case c.Routing == RoutingDynamic && c.SparseRoutes:
		return errors.New("SparseRoutes requires RoutingStatic: sparse provisioning " +
			"pre-installs the sink-tree host routes at build time, which " +
			"RPL-lite would immediately shadow and churn; drop SparseRoutes " +
			"(-lean) or use static routing")
	case c.Shards < 0:
		return fmt.Errorf("Shards = %d, want ≥ 0", c.Shards)
	case c.TraceCapacity < 0:
		return fmt.Errorf("TraceCapacity = %d, want ≥ 0", c.TraceCapacity)
	case c.TraceSample < 0 || math.IsNaN(c.TraceSample):
		return fmt.Errorf("TraceSample = %v, want ≥ 0", c.TraceSample)
	case c.NoisePER > 1 || math.IsNaN(c.NoisePER):
		return fmt.Errorf("NoisePER = %v, want ≤ 1 (negative: clean channel)", c.NoisePER)
	case c.StreamEvery < 0:
		return fmt.Errorf("StreamEvery = %v, want ≥ 0 (0: every 60 s)", c.StreamEvery)
	case c.SeriesBucket < 0:
		return fmt.Errorf("SeriesBucket = %v, want ≥ 0 (0: 60 s)", c.SeriesBucket)
	case c.MaxPPM < 0 || math.IsNaN(c.MaxPPM):
		return fmt.Errorf("MaxPPM = %v, want ≥ 0 (0: 3 ppm)", c.MaxPPM)
	case c.SCA < 0 || math.IsNaN(c.SCA):
		return fmt.Errorf("SCA = %v, want ≥ 0 (0: 50 ppm)", c.SCA)
	case c.LinkLayer > LinkDot15d4:
		return fmt.Errorf("LinkLayer = %d, want LinkBLE or LinkDot15d4", c.LinkLayer)
	case c.Burst != nil && (c.Burst.MeanGood < 0 || c.Burst.MeanBad < 0):
		return fmt.Errorf("Burst dwell means %v good, %v bad, want ≥ 0 (0: 2 s, 200 ms)", c.Burst.MeanGood, c.Burst.MeanBad)
	case c.Burst != nil && !(c.Burst.PERGood >= 0 && c.Burst.PERGood <= 1 && c.Burst.PERBad >= 0 && c.Burst.PERBad <= 1):
		return fmt.Errorf("Burst PERs %v good, %v bad, want each in [0, 1]", c.Burst.PERGood, c.Burst.PERBad)
	}
	if c.LinkLayer == LinkDot15d4 { // refuse what an 802.15.4 build would ignore without a word
		for _, f := range []struct {
			set  bool
			name string
		}{{c.Policy != nil, "Policy"}, {c.MaxPPM != 0, "MaxPPM"}, {c.SCA != 0, "SCA"},
			{len(c.PPMOverride) > 0, "PPMOverride"}, {c.Arbitration != ble.ArbitrateSkip, "Arbitration"},
			{c.DisableWindowWidening, "DisableWindowWidening"}, {c.JamChannel22, "JamChannel22"},
			{c.Routing == RoutingDynamic, "Routing = RoutingDynamic (RPL's metric is statconn's ETX)"}} {
			if f.set {
				return fmt.Errorf("%s is a BLE setting, and LinkLayer is LinkDot15d4", f.name)
			}
		}
		return nil
	}
	if len(c.PPMOverride) > 0 {
		nodes, bad := c.Topology.Nodes(), []int(nil)
		for id := range c.PPMOverride {
			if _, ok := slices.BinarySearch(nodes, id); !ok {
				bad = append(bad, id)
			}
		}
		if len(bad) > 0 {
			return fmt.Errorf("PPMOverride names node %d, which topology %s does not have", slices.Min(bad), c.Topology.Name)
		}
	}
	return statconn.Config{Policy: c.Policy}.Validate()
}

// ValidateFlags reports a -nodes, -range or -minutes value no run can
// honour. The generators and the run loop would each make something of it —
// one node and no producer, the default range, no traffic at all — and print
// a result; a CLI exits 2 with this message instead, as with Validate. A CLI
// without one of the flags passes that flag's default.
func ValidateFlags(nodes int, radioRange float64, minutes int) error {
	switch {
	case nodes < 2:
		return fmt.Errorf("-nodes = %d, want ≥ 2 (a sink and a producer)", nodes)
	case radioRange < 0 || math.IsNaN(radioRange):
		return fmt.Errorf("-range = %v, want ≥ 0 (0: the generator's default)", radioRange)
	case minutes < 1:
		return fmt.Errorf("-minutes = %d, want ≥ 1", minutes)
	}
	return nil
}

// ValidateTopology reports a topology no run can measure: one without a
// producer, where every node is alone in its site and so its own sink, as
// when a generator places all nodes out of each other's range. A run would
// send nothing and report a perfect 0/0 delivery; a run CLI exits 2 with
// this message instead, as with ValidateFlags. blemesh-topo still displays
// such a topology.
func ValidateTopology(t testbed.Topology) error {
	if len(t.Producers()) == 0 {
		return fmt.Errorf("topology %s has no producer: its %d nodes have %d links, so each is the sink of its own site (a larger -range joins them)",
			t.Name, len(t.Nodes()), len(t.Links))
	}
	return nil
}

// ValidateRunFlags reports a -scale, -runs or -workers value the experiment
// CLIs would otherwise turn into something else: Options maps a scale ≤ 0 to
// the paper-length hour and runs ≤ 0 to one run, runner.Map maps negative
// workers to GOMAXPROCS, and a NaN scale collapses to the shortest run. A
// CLI exits 2 with this message instead, as with ValidateFlags.
func ValidateRunFlags(scale float64, runs, workers int) error {
	switch {
	case !(scale > 0) || math.IsInf(scale, 1):
		return fmt.Errorf("-scale = %v, want a finite value > 0 (1: paper length)", scale)
	case runs < 1:
		return fmt.Errorf("-runs = %d, want ≥ 1", runs)
	case workers < 0:
		return fmt.Errorf("-workers = %d, want ≥ 0 (0: GOMAXPROCS)", workers)
	}
	return nil
}

// TrafficConfig is the §4.3 producer/consumer workload.
type TrafficConfig struct {
	// Interval is the mean producer interval (paper default 1s).
	Interval sim.Duration
	// Jitter is the uniform ± jitter (paper default ±0.5×interval).
	Jitter sim.Duration
	// PayloadBytes is the CoAP payload (paper: 39 bytes ⇒ 100-byte IP
	// packets).
	PayloadBytes int
}

func (t *TrafficConfig) defaults() {
	if t.Interval == 0 {
		t.Interval = sim.Second
	}
	if t.Jitter == 0 {
		t.Jitter = t.Interval / 2
	}
	if t.PayloadBytes == 0 {
		t.PayloadBytes = 39
	}
}

// Network is an assembled testbed network with live metric collection.
type Network struct {
	// Sim is the run's scheduling surface for external code (fault plans,
	// streaming ticks, samplers): the one simulation of a single-site
	// network; on a network of several sites, the scheduler's global lane,
	// whose events run at a barrier and observe every site at one time.
	Sim *sim.Sim
	// Sharded is the handle for changing the worker count of a run that
	// asked for lanes: nil when Cfg.Shards == 0, sched otherwise.
	Sharded *sim.Sharded
	// sched drives every network: domain i is site i's simulation.
	sched *sim.Sharded
	// Media holds one RF medium per site.
	Media []*phy.Medium
	Cfg   NetworkConfig
	// Nodes is a dense id-indexed slice (testbed IDs are small integers;
	// generated topologies use 1..N). Entries at unused IDs are nil — range
	// loops must skip them; NodeCount is the built-node count.
	Nodes []*core.Node

	nodeCount int

	// Site decomposition: sites are the topology's connected components;
	// consumers holds one traffic sink per site (aligned with sites).
	sites     [][]int
	siteOf    []int
	consumers []int

	// Trace is the network-wide event log (enabled via NetworkConfig).
	Trace *trace.Log

	// Registry is the unified metrics surface: every node's Stats() sources
	// and the network-level aggregates register named collectors here.
	Registry *metrics.Registry

	// Metrics. Series is the network's one PDR series: its counters are
	// atomic and Run grows it to the horizon before the lanes start, so
	// every site records into it. RTT collection is split per site (rtts)
	// so site windows never share a CDF; MergedRTTs is the network-wide
	// view.
	PerProd   *metrics.Heatmap
	Series    *metrics.TimeSeries
	rtts      []*metrics.CDF
	streamer  *metrics.Streamer // nil unless Cfg.StreamMetrics is set
	etxLabels map[uint64]string // ".links" labels by peer address, see etxLabel
	lossBase  uint64            // link losses before traffic start (setup collisions)
}

// netBuild is what BuildNetwork's phases hand to one another.
type netBuild struct {
	cfg     NetworkConfig
	nw      *Network
	ids     []int
	maxID   int
	chanMap ble.ChannelMap
	ppm     map[int]float64
	names   map[int]string

	// Sparse-route storage: the sink forest, and each node's exact window
	// routeBuf[routeOff[id]:routeOff[id+1]] of one shared backing array (see
	// carveRouteWindows).
	sinkParent map[int]int
	routeOff   []int
	routeBuf   []ip6.Route
}

// BuildNetwork assembles the network for cfg, on BLE or on IEEE 802.15.4
// (cfg.LinkLayer).
//
// Each site of the topology (connected component — an RF-closure domain
// with effectively infinite lookahead to every other site) gets its own
// simulation, medium and RNG stream under the conservative barrier
// scheduler; a connected topology is the one-site case, whose scheduler is
// a plain simulation. cfg.Shards worker goroutines (0 means 1) execute the
// site windows. Output is a pure function of the seed and the site
// decomposition, never of the worker count.
func BuildNetwork(cfg NetworkConfig) *Network {
	cfg.defaults()
	if err := cfg.Validate(); err != nil {
		panic("exp: " + err.Error())
	}
	b := planNetwork(cfg) // sites, ids, one Sim per site, the trace log
	b.buildMedia()        // one medium per site
	b.allocStorage()      // metric surfaces, route windows
	b.fill()              // nodes, links, routes, site by site
	b.wire()              // streaming tick
	b.nw.registerMetrics(b.ids)
	return b.nw
}

// planNetwork decomposes the topology into sites and creates what every
// later phase schedules on or emits into: the simulations and the trace log.
func planNetwork(cfg NetworkConfig) *netBuild {
	sites := cfg.Topology.Sites()
	b := &netBuild{cfg: cfg, ids: cfg.Topology.Nodes()}
	for _, id := range b.ids {
		if id > b.maxID {
			b.maxID = id
		}
	}
	nw := &Network{
		Cfg:       cfg,
		Nodes:     make([]*core.Node, b.maxID+1),
		nodeCount: len(b.ids),
		sites:     sites,
		siteOf:    make([]int, b.maxID+1),
		consumers: cfg.Topology.SiteConsumers(),
		PerProd:   metrics.NewHeatmap(60 * sim.Second),
		Registry:  metrics.NewRegistry(),
	}
	b.nw = nw
	for si, site := range sites {
		for _, id := range site {
			nw.siteOf[id] = si
		}
	}

	sh := sim.NewSharded(cfg.Seed, cfg.Engine, len(sites))
	sh.SetWorkers(cfg.Shards)
	nw.sched = sh
	if cfg.Shards > 0 {
		nw.Sharded = sh
	}
	// nw.Sim is the surface for external scheduling (see the field comment).
	nw.Sim = sh.Shard(0)
	if len(sites) > 1 {
		nw.Sim = sh.Global()
	}

	descs := testbed.M3Nodes
	if cfg.LinkLayer == LinkBLE {
		b.chanMap = ble.AllDataChannels
		if cfg.JamChannel22 {
			b.chanMap = b.chanMap.WithoutChannel(22)
		}
		b.ppm = testbed.ClockPPM(cfg.Seed, b.ids, cfg.MaxPPM)
		for id, v := range cfg.PPMOverride {
			b.ppm[id] = v
		}
		descs = testbed.BLENodes
	}
	b.names = make(map[int]string)
	for _, d := range descs() {
		b.names[d.ID] = d.Name
	}
	b.newTrace()
	return b
}

// newTrace creates the network-wide event log before any node can emit
// into it.
func (b *netBuild) newTrace() {
	cfg, nw := b.cfg, b.nw
	nw.Trace = trace.New(nw.Sim, cfg.TraceCapacity)
	if cfg.Trace {
		nw.Trace.Enable()
		nw.Trace.SetSampleRate(cfg.TraceSample)
	}
	if len(nw.sites) > 1 {
		// The log's own clock is the global lane, and sites record from
		// worker goroutines, which must never grow the ring map: register
		// every emitter against its site's clock before any node exists,
		// then freeze. With tracing off the registration is skipped — a
		// disabled log never records, and the per-node name/ring
		// bookkeeping is pure waste at city scale.
		if cfg.Trace {
			for _, id := range b.ids {
				si := nw.siteOf[id]
				nw.Trace.RegisterNode(b.nodeName(id), nw.sched.Shard(si), si)
			}
		}
		nw.Trace.Freeze()
	}
}

func (b *netBuild) nodeName(id int) string {
	if n := b.names[id]; n != "" {
		return n
	}
	return fmt.Sprintf("node-%d", id)
}

// buildMedia gives each site its own RF medium on its own simulation. Each
// medium knows how many nodes will attach, so its radios come out of one slab.
func (b *netBuild) buildMedia() {
	for si, site := range b.nw.sites {
		b.newMedium(b.nw.sched.Shard(si)).ReserveRadios(len(site))
	}
}

// newMedium builds one medium and appends it to nw.Media. Interference
// attach order is part of the output: noise, channel-22 jammer, burst.
func (b *netBuild) newMedium(s *sim.Sim) *phy.Medium {
	cfg, nw := b.cfg, b.nw
	m := phy.NewMedium(s)
	if cfg.NoisePER > 0 {
		m.AddInterference(phy.RandomNoise{PER: cfg.NoisePER})
	}
	if cfg.JamChannel22 {
		m.AddInterference(phy.Jammer{Ch: 22})
	}
	if cfg.Burst != nil {
		m.AddInterference(phy.NewBurstNoise(s, *cfg.Burst))
	}
	// Positioned topologies switch the medium into geometric mode: the
	// disk range matches the generator's link-derivation range, so the
	// PHY and the topology agree bit-for-bit on who hears whom.
	if cfg.Topology.Range > 0 {
		m.SetRange(cfg.Topology.Range)
	}
	nw.Media = append(nw.Media, m)
	return m
}

// allocStorage preallocates everything whose size the plan already fixes:
// the metric surfaces and — for sparse static routing — the route windows.
func (b *netBuild) allocStorage() {
	cfg, nw := b.cfg, b.nw
	// Metric surfaces: one RTT CDF per site — one slab, not nsurf small
	// allocations. The PDR series is the network's: one slice, sized by
	// the simulated time alone.
	nsurf := max(len(nw.sites), 1) // an empty topology still has an RTT CDF
	cdfs := make([]metrics.CDF, nsurf)
	nw.rtts = make([]*metrics.CDF, nsurf)
	for i := 0; i < nsurf; i++ {
		nw.rtts[i] = &cdfs[i]
	}
	nw.Series = metrics.NewTimeSeries(cfg.SeriesBucket)

	if cfg.Routing == RoutingStatic && cfg.SparseRoutes {
		// The sink forest is O(network) to derive — compute it once and
		// share it between the counting pass and every per-site install
		// (re-deriving it per site would turn the fill quadratic).
		b.sinkParent = cfg.Topology.SinkForest()
		b.carveRouteWindows()
	}
}

// carveRouteWindows is count-then-carve for the sparse route tables: walk
// the same SinkForest parent chains installSparseRoutes walks — one upward
// route per non-sink node, one downward route per ancestor on its chain —
// then turn the counts into offsets with a prefix sum and size one shared
// backing array that every node gets its exact window of. The offsets depend
// only on the topology, never on fill order, so sites may fill in parallel.
// Until the node restarts, the stack's live table and the node's
// provisioned copy alias the same backing: AddHostRoute appends the same
// route to both lists in lockstep (sparse sink-tree destinations are unique
// per node, so AddRoute never takes its replace branch) and static routes are
// never removed, so one window serves both views at half the storage. A
// crash's ip6.Stack.Reset drops the live table (routes = nil), and Restart
// re-adds the provisioned routes into a fresh slice; from then on the window
// holds the provisioned copy only.
func (b *netBuild) carveRouteWindows() {
	off := make([]int, b.maxID+2) // off[id+1] counts id's routes until the sum
	for _, id := range b.ids {
		p, ok := b.sinkParent[id]
		if !ok {
			continue
		}
		off[id+1]++
		for ok {
			off[p+1]++
			p, ok = b.sinkParent[p]
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	b.routeOff = off
	b.routeBuf = make([]ip6.Route, off[len(off)-1])
}

// fill builds the nodes, their links and their routes. What fixes the order
// is the RNG: every site has its own stream, so each site is a group, filled
// in id order, and with more than one lane the groups fill in parallel.
// Every write lands in freshly allocated node structs or at a site-owned
// dense index (Nodes, route windows), so workers coordinate only
// through the claim counter.
func (b *netBuild) fill() {
	links, sites := b.cfg.Topology.Links, b.nw.sites
	subCount := b.cfg.Topology.SubordinateCount()
	siteLinks := make([][]testbed.Link, len(sites))
	for _, l := range links {
		si := b.nw.siteOf[l.Coordinator]
		siteLinks[si] = append(siteLinks[si], l)
	}
	workers := min(b.cfg.Shards, len(sites))
	if workers <= 1 {
		for si, site := range sites {
			b.fillGroup(site, siteLinks[si], subCount)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				si := int(next.Add(1)) - 1
				if si >= len(sites) {
					return
				}
				b.fillGroup(sites[si], siteLinks[si], subCount)
			}
		}()
	}
	wg.Wait()
}

// fillGroup builds the nodes that share one RNG stream, in the phase order
// every build has used: nodes in id order, inbound slots in id order
// (subordinates advertise), links in declaration order (coordinators
// connect), routes. Map iteration order anywhere here would consume the RNG
// nondeterministically. An 802.15.4 PAN skips the two link phases.
func (b *netBuild) fillGroup(ids []int, links []testbed.Link, subCount map[int]int) {
	nw := b.nw
	for _, id := range ids {
		b.buildNode(id)
	}
	if b.cfg.LinkLayer == LinkBLE {
		for _, id := range ids {
			if k := subCount[id]; k > 0 {
				nw.Nodes[id].AcceptInbound(k)
			}
		}
		for _, l := range links {
			nw.Nodes[l.Coordinator].ConnectTo(nw.Nodes[l.Subordinate])
		}
	}
	b.installRoutes(ids)
}

func (b *netBuild) buildNode(id int) {
	cfg, nw := b.cfg, b.nw
	site := nw.siteOf[id]
	s, medium := nw.sched.Shard(site), nw.Media[site]
	var routing *rpl.Config
	if cfg.Routing == RoutingDynamic {
		routing = &rpl.Config{Root: id == cfg.Topology.Consumer}
	}
	var n *core.Node
	if cfg.LinkLayer == LinkDot15d4 {
		// An m3 board: its name and the 0x4D… MAC prefix.
		n = core.NewDot15d4Node(s, medium, b.nodeName(id), uint64(0x4D0000000000)+uint64(id), nw.Trace)
	} else {
		n = core.NewNode(s, medium, core.NodeConfig{
			Name:     b.nodeName(id),
			MAC:      uint64(0x5A0000000000) + uint64(id),
			ClockPPM: b.ppm[id],
			SCA:      cfg.SCA,
			Statconn: statconn.Config{
				Policy:  cfg.Policy,
				ChanMap: b.chanMap,
			},
			Arbitration:           cfg.Arbitration,
			DisableWindowWidening: cfg.DisableWindowWidening,
			Trace:                 nw.Trace,
			Routing:               routing,
		})
	}
	if p, ok := cfg.Topology.Pos[id]; ok {
		n.Radio.SetPosition(p.X, p.Y, p.Z)
	}
	nw.Nodes[id] = n
}

// installRoutes provisions the manual IP routes along the unique topology
// paths (§4.3). In dynamic mode RPL-lite discovers and maintains routes
// instead.
func (b *netBuild) installRoutes(ids []int) {
	cfg, nw := b.cfg, b.nw
	if cfg.Routing != RoutingStatic {
		return
	}
	if cfg.SparseRoutes {
		off := b.routeOff
		for _, id := range ids {
			v := b.routeBuf[off[id]:off[id]:off[id+1]]
			nw.Nodes[id].Stack.ReserveRoutes(v)
			nw.Nodes[id].ReserveProvRoutes(v)
		}
		nw.installSparseRoutes(ids, b.sinkParent)
		return
	}
	for _, from := range ids {
		next := cfg.Topology.NextHops(from)
		for dst, hop := range next {
			nw.Nodes[from].AddHostRoute(nw.Nodes[dst], nw.Nodes[hop])
		}
	}
}

// wire starts the streaming tick, the one observer on the simulation clock.
func (b *netBuild) wire() {
	cfg, nw := b.cfg, b.nw
	if cfg.StreamMetrics == nil {
		return
	}
	every := cfg.StreamEvery
	if every <= 0 {
		every = 60 * sim.Second
	}
	st := nw.Registry.StreamNDJSON(cfg.StreamMetrics)
	nw.streamer = st // for StreamErr
	// The tick only reads collectors and writes to an external sink —
	// it never touches the sim RNG, so streaming cannot perturb a run.
	// With several sites nw.Sim is the global lane, so each snapshot
	// observes every site at a consistent barrier time. A sink
	// that fails ends the stream (StreamErr), not the run.
	var tick func()
	tick = func() {
		if st.Snapshot(int64(nw.Sim.Now())) == nil {
			nw.Sim.Post(every, tick)
		}
	}
	nw.Sim.Post(every, tick)
}

// StreamErr returns the write error that ended the metrics stream
// (NetworkConfig.StreamMetrics): nil while the stream is live, and for
// networks that do not stream.
func (nw *Network) StreamErr() error {
	if nw.streamer == nil {
		return nil
	}
	return nw.streamer.Err()
}

// installSparseRoutes provisions only the sink-tree routes: each node
// reaches its site sink via its SinkForest parent, and every ancestor of a
// node v (the sink included) reaches v via the on-path child. Producer →
// sink requests and sink → producer responses both ride these entries —
// O(N·depth) table entries rather than the all-pairs O(N²). The caller
// supplies the (whole-network) sink forest so per-site installs share one
// derivation.
func (nw *Network) installSparseRoutes(ids []int, parent map[int]int) {
	for _, id := range ids {
		p, ok := parent[id]
		if !ok {
			continue // site sink (or isolated singleton): nothing upward
		}
		nw.Nodes[id].AddHostRoute(nw.Nodes[nw.consumers[nw.siteOf[id]]], nw.Nodes[p])
		cur := id
		for ok {
			nw.Nodes[p].AddHostRoute(nw.Nodes[id], nw.Nodes[cur])
			cur = p
			p, ok = parent[p]
		}
	}
}

// registerMetrics wires every node's Stats() sources and the network-level
// aggregates into the unified registry. Nodes register in ID order; Gather
// sorts by name anyway, but registration order stays deterministic. Lean
// builds keep only the network-level aggregates.
func (nw *Network) registerMetrics(ids []int) {
	if !nw.Cfg.Lean {
		for _, id := range ids {
			nw.registerNodeMetrics(id)
		}
	}
	nw.Registry.RegisterGauge("net.coap_pdr", func() float64 { return nw.CoAPPDR().Rate() })
	nw.Registry.RegisterGauge("net.ll_pdr", nw.LLPDR)
	nw.Registry.RegisterCounter("net.conn_losses", func() float64 { return float64(nw.ConnLosses()) })
	nw.Registry.RegisterCounter("net.buffer_drops", func() float64 { return float64(nw.BufferDrops()) })
	// The per-site CDFs are merged at gather time (on a single-site network
	// MergedRTTs is site 0's).
	nw.Registry.Register("net.rtt_seconds", func() []metrics.Sample {
		return metrics.CDFSamples("net.rtt_seconds", nw.MergedRTTs())
	})
	nw.Registry.Register("net.trace", func() []metrics.Sample {
		out := []metrics.Sample{{Name: "net.trace", Label: "events_total",
			Kind: metrics.KindCounter, Value: float64(nw.Trace.Total())}}
		// Sampling counters appear only when sampling is armed, so
		// full-trace runs' registry output stays byte-identical with
		// pre-sampling builds.
		if nw.Trace.Sampling() {
			out = append(out,
				metrics.Sample{Name: "net.trace", Label: "pkt_kept",
					Kind: metrics.KindCounter, Value: float64(nw.Trace.PktKept())},
				metrics.Sample{Name: "net.trace", Label: "pkt_dropped",
					Kind: metrics.KindCounter, Value: float64(nw.Trace.PktDropped())})
		}
		return out
	})
}

// registerNodeMetrics registers one node's per-layer collectors. Names are
// built here, once: a collector runs on every streamed snapshot. Each
// layer's sample labels are its Stats fields' metric tags.
func (nw *Network) registerNodeMetrics(id int) {
	n := nw.Nodes[id]
	coapEP, netif, stack, mgr := n.Coap, n.NetIf, n.Stack, n.Statconn
	coapName, netifName, ip6Name, statconnName := n.Name+".coap", n.Name+".netif", n.Name+".ip6", n.Name+".statconn"
	nw.Registry.Register(coapName, func() []metrics.Sample {
		return metrics.CounterSamples(coapName, coapEP.Stats())
	})
	nw.Registry.Register(ip6Name, func() []metrics.Sample {
		return metrics.CounterSamples(ip6Name, stack.Stats())
	})
	if mgr == nil {
		return // an 802.15.4 node: the MAC's and adapter's counters carry no metric tags
	}
	nw.Registry.Register(netifName, func() []metrics.Sample {
		return metrics.CounterSamples(netifName, netif.Stats())
	})
	nw.Registry.Register(statconnName, func() []metrics.Sample {
		return metrics.CounterSamples(statconnName, mgr.Stats())
	})
	// Dynamic-routing collectors only exist in dynamic mode, so static
	// runs' registry output stays byte-identical with pre-routing builds.
	if router := n.RPL; router != nil {
		rplName, linksName := n.Name+".rpl", n.Name+".links"
		nw.Registry.Register(rplName, func() []metrics.Sample {
			return metrics.CounterSamples(rplName, router.Stats(), metrics.Sample{Name: rplName,
				Label: "rank", Kind: metrics.KindGauge, Value: float64(router.Rank())})
		})
		// Per-peer link quality: the exact ETX the routing metric reads,
		// so dashboards and parent choices can be cross-checked.
		nw.Registry.Register(linksName, func() []metrics.Sample {
			links := mgr.PeerLinks()
			out := make([]metrics.Sample, len(links))
			for i, l := range links {
				out[i] = metrics.Sample{Name: linksName, Label: nw.etxLabel(uint64(l.Peer)),
					Kind: metrics.KindGauge, Value: l.ETX}
			}
			return out
		})
	}
}

// etxLabel returns the ".links" sample label of a peer address, formatted
// once per peer. Collectors run on one goroutine at a time.
func (nw *Network) etxLabel(peer uint64) string {
	label, ok := nw.etxLabels[peer]
	if !ok {
		label = fmt.Sprintf("etx_%012x", peer)
		if nw.etxLabels == nil {
			nw.etxLabels = make(map[uint64]string)
		}
		nw.etxLabels[peer] = label
	}
	return label
}

// Journeys reassembles the retained provenance spans into per-packet,
// per-hop journeys (latency decomposition source).
func (nw *Network) Journeys() []*trace.Journey {
	return trace.Journeys(nw.Trace)
}

// Consumer returns the consumer node.
func (nw *Network) Consumer() *core.Node { return nw.Nodes[nw.Cfg.Topology.Consumer] }

// Node returns a node by testbed ID, nil for IDs not in the network (the
// dense table keeps the old map lookup's miss semantics).
func (nw *Network) Node(id int) *core.Node {
	if id < 0 || id >= len(nw.Nodes) {
		return nil
	}
	return nw.Nodes[id]
}

// NodeCount returns the number of nodes built into the network. The dense
// id-indexed Nodes slice may carry nil gaps (testbed IDs need not be
// contiguous), so its length is not the population.
func (nw *Network) NodeCount() int { return nw.nodeCount }

// StartMeter starts an energy meter on node id: its reports cover the
// node's radio and link-layer activity from now on. Start it where the
// measured interval begins, such as right before StartTraffic.
func (nw *Network) StartMeter(id int) *energy.Meter {
	n := nw.Nodes[id]
	if n.Ctrl == nil {
		panic(fmt.Sprintf("exp: StartMeter(%d): the energy model is BLE's, and the network runs IEEE 802.15.4", id))
	}
	m := energy.NewMeter(energy.DefaultParams(), n.Ctrl, n.Radio)
	m.Reset(nw.Now())
	return m
}

// Now returns the run's current time: the barrier every site has reached.
func (nw *Network) Now() sim.Time { return nw.sched.Now() }

// WaitTopology runs the simulation until every configured link is up (or
// the deadline passes). It returns whether the topology formed.
func (nw *Network) WaitTopology(deadline sim.Duration) bool { return nw.waitFor(deadline, nw.linksUp) }

// waitFor runs 100 ms steps until done holds or the deadline passes.
func (nw *Network) waitFor(deadline sim.Duration, done func() bool) bool {
	end := nw.Now() + deadline
	for nw.Now() < end {
		if done() {
			return true
		}
		nw.Run(100 * sim.Millisecond)
	}
	return done()
}

func (nw *Network) linksUp() bool {
	if nw.Cfg.LinkLayer == LinkDot15d4 {
		return true // one PAN: no link to form
	}
	for _, l := range nw.Cfg.Topology.Links {
		// Usable means the IPSP channel is open, not merely that a
		// CONNECT_IND went out (establishment can still fail).
		if !channelOpen(nw.Nodes[l.Coordinator], nw.Nodes[l.Subordinate]) {
			return false
		}
	}
	return true
}

// nodeByMAC maps a BLE device address back to its node (MACs embed the
// testbed ID).
func (nw *Network) nodeByMAC(mac uint64) *core.Node {
	id := int(mac - 0x5A0000000000)
	if id < 0 || id >= len(nw.Nodes) {
		return nil
	}
	return nw.Nodes[id]
}

// Converged reports whether the routing plane can carry traffic between
// every running producer and the consumer. Static networks converge when the
// topology is up. Dynamic networks additionally require each running node to
// have joined the DODAG, its preferred-parent chain to reach the root over
// open links, and the root to hold a downward host route for it — i.e. both
// the upward default route and the DAO state are in place.
func (nw *Network) Converged() bool {
	if nw.Cfg.Routing != RoutingDynamic {
		return nw.linksUp()
	}
	root := nw.Consumer()
	if !root.Running() {
		return false
	}
	for _, id := range nw.Cfg.Topology.Nodes() {
		n := nw.Nodes[id]
		if id == nw.Cfg.Topology.Consumer || !n.Running() {
			continue
		}
		if n.RPL == nil || !n.RPL.Joined() {
			return false
		}
		// Walk the preferred-parent chain up to the root; every hop must be
		// a running node reachable over an open IPSP channel.
		cur := n
		for hops := 0; cur != root; hops++ {
			if hops > len(nw.Nodes) {
				return false // would be a loop; the rank invariant forbids it
			}
			pmac := cur.RPL.Preferred()
			if pmac == 0 {
				return false
			}
			ch := cur.NetIf.Channel(pmac)
			if ch == nil || !ch.Open() {
				return false
			}
			next := nw.nodeByMAC(pmac)
			if next == nil || !next.Running() {
				return false
			}
			cur = next
		}
		// Downward: the root must have learned a DAO host route for n (an
		// on-link sentinel left by a no-path purge does not count).
		if r, ok := root.Stack.LookupRoute(n.Addr()); !ok || r.NextHop.IsUnspecified() {
			return false
		}
	}
	return true
}

// WaitConverged runs the simulation until Converged (or the deadline
// passes); it returns whether convergence was reached.
func (nw *Network) WaitConverged(deadline sim.Duration) bool {
	return nw.waitFor(deadline, nw.Converged)
}

// StartTraffic installs the consumer handler and schedules every producer's
// send loop (each with its own uniform jitter, as §4.3 prescribes).
func (nw *Network) StartTraffic(t TrafficConfig) {
	t.defaults()
	nw.lossBase = nw.rawConnLosses()
	// Every site's sink answers; single-site topologies have exactly the
	// historical consumer.
	for _, cid := range nw.consumers {
		nw.Nodes[cid].Coap.Handler = sink
	}
	tr := &traffic{TrafficConfig: t, payload: make([]byte, t.PayloadBytes), series: nw.Series}
	for _, id := range nw.Cfg.Topology.Producers() {
		nw.startProducer(id, tr)
	}
}

func (nw *Network) startProducer(id int, tr *traffic) {
	node := nw.Nodes[id]
	// Lean runs keep no per-producer heatmap rows: at 10k producers the
	// rows (one time series each) would dwarf the network itself.
	var row *metrics.TimeSeries
	if !nw.Cfg.Lean {
		row = nw.PerProd.Row(node.Name)
	}
	// Everything the loop touches is site-local — the node's own Sim, the
	// site's sink and RTT CDF — or the network series, which Run grows
	// before the lanes start and which counts atomically; so producer events
	// run safely inside parallel site windows.
	site := nw.siteOf[id]
	p := &producer{
		s:    node.Sim,
		ep:   node.Coap,
		dst:  nw.Nodes[nw.consumers[site]].Addr(),
		tr:   tr,
		row:  row,
		rtts: nw.rtts[site],
	}
	p.start()
}

// sinkResponse is the one response every sink sends: an empty 2.03 Valid.
// The endpoint stamps a copy of it, so it is never written.
var sinkResponse = &coap.Message{Type: coap.ACK, Code: coap.CodeValid}

// sink is every consumer's CoAP handler, on both radios: it answers each
// request with sinkResponse.
func sink(ip6.Addr, *coap.Message) *coap.Message { return sinkResponse }

// sinkPath is the Uri-Path of every request, "/s"; no layer writes it.
var sinkPath = []coap.Option{{Number: coap.OptUriPath, Value: []byte("s")}}

// traffic is what all producers of one StartTraffic share; nothing writes
// it once they run.
type traffic struct {
	TrafficConfig
	payload []byte // every request's zero payload, PayloadBytes long
	series  *metrics.TimeSeries
}

// producer is one node's CoAP send loop and its own sim.Handler, so a
// producer is this one object rather than a self-rescheduling closure, the
// variable holding it and the traffic configuration it captured. The BLE
// and the 802.15.4 networks both run it.
type producer struct {
	s    *sim.Sim
	ep   *coap.Endpoint
	dst  ip6.Addr
	tr   *traffic
	row  *metrics.TimeSeries // the heatmap row; nil on lean runs
	rtts *metrics.CDF
	// onResponse is p.response, bound once so a request allocates no
	// callback.
	onResponse coap.ResponseFunc
}

// start schedules the first request at a random offset within one
// interval, which desynchronises the producers.
func (p *producer) start() {
	p.onResponse = p.response
	p.s.Schedule(p.s.Now()+sim.Duration(p.s.Rand().Int63n(int64(p.tr.Interval))), p)
}

// Fire sends one request and schedules the next.
func (p *producer) Fire() {
	s := p.s
	sent := s.Now()
	req := coap.Message{Type: coap.NON, Code: coap.CodeGET,
		Options: sinkPath, Payload: p.tr.payload}
	p.tr.series.RecordSent(sent)
	if p.row != nil {
		p.row.RecordSent(sent)
	}
	err := p.ep.Request(p.dst, &req, p.onResponse)
	_ = err // send failures (no route during reconnect) count as losses
	delay := p.tr.Interval
	if p.tr.Jitter > 0 {
		delay += sim.Duration(s.Rand().Int63n(int64(2*p.tr.Jitter))) - p.tr.Jitter
	}
	s.Schedule(s.Now()+delay, p)
}

// response records a delivered exchange against the time its request was
// sent, which is now less the round trip.
func (p *producer) response(m *coap.Message, rtt sim.Duration, _ error) {
	if m == nil {
		return
	}
	sent := p.s.Now() - rtt
	p.tr.series.RecordDelivered(sent)
	if p.row != nil {
		p.row.RecordDelivered(sent)
	}
	p.rtts.AddDuration(rtt)
}

// Run advances the simulation by d, window by window: one window per Run on
// a single-site network, one per global-lane event otherwise. The PDR series
// is grown to the horizon first, so the lanes never resize it.
func (nw *Network) Run(d sim.Duration) {
	until := nw.sched.Now() + d
	nw.Series.Grow(until)
	nw.sched.Run(until)
}

// Processed returns the number of simulation events executed so far.
func (nw *Network) Processed() uint64 { return nw.sched.Processed() }

// ---- Aggregate results ----------------------------------------------------

// CoAPPDR returns the overall CoAP delivery ratio of the whole network.
func (nw *Network) CoAPPDR() metrics.Counter { return nw.Series.Overall() }

// MergedRTTs returns the network-wide RTT distribution: the one site's CDF
// itself on a single-site network, a merge of the per-site CDFs otherwise.
func (nw *Network) MergedRTTs() *metrics.CDF {
	if len(nw.rtts) == 1 {
		return nw.rtts[0]
	}
	m := &metrics.CDF{}
	for _, c := range nw.rtts {
		m.Merge(c)
	}
	return m
}

// MergedSeries returns the network-wide PDR time series: Series itself,
// which every site records into.
func (nw *Network) MergedSeries() *metrics.TimeSeries { return nw.Series }

// ConnLosses returns the number of link losses (supervision timeouts,
// counted once per link) since traffic started — connection-establishment
// collisions during setup are excluded, as the paper measures steady state.
func (nw *Network) ConnLosses() uint64 {
	return nw.rawConnLosses() - nw.lossBase
}

func (nw *Network) rawConnLosses() uint64 {
	if nw.Cfg.LinkLayer == LinkDot15d4 {
		return 0 // no connection to lose
	}
	return nw.sumNodes(func(n *core.Node) uint64 { return n.Statconn.Stats().LinkLosses })
}

// IntervalRejects returns how many colliding-interval connections were
// rejected by subordinates (mitigation machinery activity).
func (nw *Network) IntervalRejects() uint64 {
	if nw.Cfg.LinkLayer == LinkDot15d4 {
		return 0
	}
	return nw.sumNodes(func(n *core.Node) uint64 { return n.Statconn.Stats().IntervalRejects })
}

// sumNodes adds one counter over every node.
func (nw *Network) sumNodes(count func(*core.Node) uint64) uint64 {
	var total uint64
	for _, n := range nw.Nodes {
		if n != nil {
			total += count(n)
		}
	}
	return total
}

// LLPDR returns the network-wide link-layer delivery rate: data PDUs (on
// 802.15.4, frames) that did not need retransmission over all sent.
func (nw *Network) LLPDR() float64 {
	var tx, retr uint64
	for _, n := range nw.Nodes {
		if n == nil {
			continue
		}
		if n.MAC != nil {
			st := n.MAC.Stats()
			tx, retr = tx+st.TXFrames, retr+st.Retries
			continue
		}
		for _, c := range n.Ctrl.Conns() {
			st := c.Stats()
			tx += st.TXPDUs - st.TXEmpty
			retr += st.Retrans
		}
	}
	if tx == 0 {
		return 1
	}
	return float64(tx-retr) / float64(tx)
}

// BufferDrops sums pktbuf/queue drops across nodes (the §5.2 loss process).
func (nw *Network) BufferDrops() uint64 {
	return nw.sumNodes(func(n *core.Node) uint64 {
		if n.Adapter != nil {
			return n.Adapter.Stats().QueueDrops
		}
		st := n.NetIf.Stats()
		return st.QueueDrops + st.LinkDrops
	})
}

// CoAPGiveUps sums the CON exchanges abandoned at MAX_RETRANSMIT across all
// endpoints (RFC 7252 give-ups, counted separately from plain losses).
func (nw *Network) CoAPGiveUps() uint64 {
	return nw.sumNodes(func(n *core.Node) uint64 { return n.Coap.Stats().GiveUps })
}

// ReconnectLatencies aggregates every node's completed loss→re-up latencies
// into one CDF (seconds) by merging the per-node distributions. Nodes are
// visited in ID order, so the merged result is deterministic.
func (nw *Network) ReconnectLatencies() *metrics.CDF {
	cdf := &metrics.CDF{}
	if nw.Cfg.LinkLayer == LinkDot15d4 {
		return cdf // no connection to re-establish
	}
	for _, id := range nw.Cfg.Topology.Nodes() {
		cdf.Merge(nw.Nodes[id].Statconn.RecoveryDist())
	}
	return cdf
}

// NodeLinksUp reports whether every configured static link touching node id
// has its IPSP channel open — the churn experiment's recovery criterion. It
// visits id's neighbors alone: a link's coordinator is the end provisioned
// to dial the other (ConnectTo), and the channel is judged on its side.
func (nw *Network) NodeLinksUp(id int) bool {
	if nw.Cfg.LinkLayer == LinkDot15d4 {
		return true
	}
	n := nw.Nodes[id]
	for _, nb := range nw.Cfg.Topology.Neighbors(id) {
		peer := nw.Nodes[nb]
		if n.Dials(peer) && !channelOpen(n, peer) || peer.Dials(n) && !channelOpen(peer, n) {
			return false
		}
	}
	return true
}

// channelOpen reports whether coord's IPSP channel toward sub is open.
func channelOpen(coord, sub *core.Node) bool {
	ch := coord.NetIf.Channel(uint64(sub.DevAddr()))
	return ch != nil && ch.Open()
}

// ---- fault.Target ----------------------------------------------------------
//
// Network implements fault.Target, so scripted fault plans (internal/fault)
// can be attached directly to an assembled testbed network.

// CrashNode powers a node off; all volatile state drops. An 802.15.4 node
// panics: its MAC has no stop path.
func (nw *Network) CrashNode(id int) { nw.Nodes[id].Stop() }

// RestartNode powers a crashed node back on from its provisioned config.
func (nw *Network) RestartNode(id int) { nw.Nodes[id].Restart() }

// UpstreamConn returns node id's connection toward its next hop to the
// consumer (its "upstream link", the subject of Fig. 12); nil on an 802.15.4
// network.
func (nw *Network) UpstreamConn(id int) *ble.Conn {
	parent, ok := nw.Cfg.Topology.NextHops(id)[nw.Cfg.Topology.Consumer]
	if !ok || nw.Cfg.LinkLayer == LinkDot15d4 {
		return nil
	}
	return nw.Nodes[id].Ctrl.FindConn(nw.Nodes[parent].DevAddr())
}
