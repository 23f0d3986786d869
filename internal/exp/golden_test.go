package exp

import (
	"bufio"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"blemesh/internal/fault"
	"blemesh/internal/metrics"
	"blemesh/internal/pktbuf"
	"blemesh/internal/runner"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
	"blemesh/internal/trace"
)

// goldenFile is the determinism corpus: a header line, then one "case seed
// digest" line per (case, seed) of goldenCases, in table order. The digest is the first 16 hex digits of
// SHA-256 over what the case exports. To regenerate it, delete it and run
// TestGolden; a change that moves a line names the case in CHANGES.md and
// says why.
const goldenFile = "testdata/golden/digests.txt"

// goldenCase is one workload of the corpus: a network run once per seed, or
// an experiment whose report text is the export.
type goldenCase struct {
	name   string
	seeds  []int64
	net    *goldenNet
	report func(o Options) (string, error)
}

// goldenNet is a traced network workload: form, run 5 s, start traffic, run
// before, then (with reboots) reboot one node every 2 s and run after. It
// exports the trace NDJSON, the registry NDJSON, then its metrics stream.
type goldenNet struct {
	link     LinkLayer // BLE runs the static 75 ms policy with channel 22 jammed
	topo     func(seed int64) testbed.Topology
	minSites int  // the fixture must have at least this many RF sites
	mustForm bool // a network that does not form (or converge) fails
	dynamic  bool // RPL routing
	random   bool // statconn.Random 65–85 ms instead of Static 75 ms
	sample   float64
	// stream is the metrics-stream period (0: none). mesh-churn's is short:
	// link-quality slots are never dropped once sampled, so ".links"
	// changes shape only while the network forms.
	stream        sim.Duration
	traffic       TrafficConfig
	before, after sim.Duration
	reboots       []int
}

// goldenPass is one way of running a case: the shipped path (ref "") on some
// lanes and, for reports, workers, or a reference implementation: "heap"
// (sim.EngineHeap), "event-by-event" (Controller.SetEventByEvent),
// "linear-scan" (Medium.SetLinearScan), "unpooled" (pktbuf.SetPooling(false),
// run with nothing else in flight), "fmt" (the fmt encoders of the trace
// export and the metrics stream) or "observed" (the registry gathered at
// instants drawn from the seed).
type goldenPass struct {
	ref            string
	lanes, workers int
}

func (p goldenPass) String() string {
	s := fmt.Sprintf("%s lanes %d", cmp.Or(p.ref, "shipped"), p.lanes)
	if p.workers > 0 {
		s += fmt.Sprintf(" workers %d", p.workers)
	}
	return s
}

func shipped(lanes int) goldenPass { return goldenPass{lanes: lanes} }

func reference(ref string, lanes int) goldenPass { return goldenPass{ref: ref, lanes: lanes} }

// goldenShipped is the pass the corpus records: every other pass of a line
// must give what it gives.
var goldenShipped = shipped(1)

func seedsTo(n int64) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i) + 1
	}
	return s
}

func fixedTopo(t testbed.Topology) func(int64) testbed.Topology {
	return func(int64) testbed.Topology { return t }
}

func geoTopo(n int, side, rng float64) func(int64) testbed.Topology {
	return func(s int64) testbed.Topology {
		return testbed.RandomGeometric(testbed.GeoConfig{Seed: s, N: n, Width: side, Height: side, Range: rng})
	}
}

var (
	paperTraffic = TrafficConfig{Interval: sim.Second, Jitter: 500 * sim.Millisecond}
	treeTopo     = fixedTopo(testbed.Tree())
	meshTopo     = fixedTopo(testbed.Mesh())
)

var goldenCases = []goldenCase{
	{"tree", seedsTo(16), &goldenNet{topo: treeTopo, mustForm: true, traffic: paperTraffic, before: 20 * sim.Second}, nil},
	{"tree-churn", seedsTo(16), &goldenNet{topo: treeTopo, mustForm: true, traffic: paperTraffic,
		before: 10 * sim.Second, reboots: []int{2}, after: 30 * sim.Second}, nil},
	{"tree-overload", seedsTo(16), &goldenNet{topo: treeTopo, mustForm: true,
		traffic: TrafficConfig{Interval: 100 * sim.Millisecond, Jitter: 50 * sim.Millisecond}, before: 20 * sim.Second}, nil},
	{"mesh-rpl", seedsTo(16), &goldenNet{topo: meshTopo, mustForm: true, dynamic: true, traffic: paperTraffic,
		before: 10 * sim.Second, reboots: []int{2}, after: 30 * sim.Second}, nil},
	// The shape of the benchmark's mesh-churn workload.
	{"mesh-churn", seedsTo(16), &goldenNet{topo: meshTopo, dynamic: true, random: true, sample: 0.1,
		stream: 500 * sim.Millisecond, traffic: paperTraffic,
		before: 15 * sim.Second, reboots: []int{2}, after: 45 * sim.Second}, nil},
	{"geo", seedsTo(16), &goldenNet{topo: geoTopo(30, 70, 18), traffic: paperTraffic, before: 20 * sim.Second}, nil},
	{"city", seedsTo(16), &goldenNet{topo: func(s int64) testbed.Topology {
		return testbed.CityBlocks(testbed.CityConfig{Seed: s, BlocksX: 2, BlocksY: 2, PerBlock: 4})
	}, traffic: paperTraffic, before: 20 * sim.Second}, nil},
	// Four RF-isolated trees, a reboot in two: fault events run on the
	// global lane and splice into windows that really run concurrently.
	{"forest", seedsTo(16), &goldenNet{topo: fixedTopo(testbed.Forest(4)), minSites: 4, mustForm: true,
		stream: 5 * sim.Second, traffic: paperTraffic,
		before: 10 * sim.Second, reboots: []int{2, 102}, after: 30 * sim.Second}, nil},
	// The same forest left alone, for the lane counts to race over with no
	// global-lane event.
	{"forest-dense", seedsTo(4), &goldenNet{topo: fixedTopo(testbed.Forest(4)), minSites: 4, mustForm: true,
		traffic: paperTraffic, before: 20 * sim.Second}, nil},
	// mesh-churn's shape on four sites: a reboot under traffic, RPL, a
	// sampled trace and a stream whose ".links" lines change shape. The
	// costliest case, so three seeds, the ones its fmt pass runs.
	{"forest-stream", seedsTo(3), &goldenNet{topo: fixedTopo(testbed.Forest(4)), minSites: 4, dynamic: true,
		random: true, sample: 0.1, stream: 500 * sim.Millisecond, traffic: paperTraffic,
		before: 15 * sim.Second, reboots: []int{2}, after: 45 * sim.Second}, nil},
	// Many small sites, for eight lanes to race over in the build.
	{"geo-sites", seedsTo(16), &goldenNet{topo: geoTopo(120, 400, 20), minSites: 4,
		traffic: paperTraffic, before: 20 * sim.Second}, nil},
	// The tree on IEEE 802.15.4, traced, with the BLE runs' default noise
	// (fig10's 802.15.4 run is untraced and noiseless).
	{"dot-tree", seedsTo(4), &goldenNet{link: LinkDot15d4, topo: treeTopo, mustForm: true,
		traffic: paperTraffic, before: 20 * sim.Second}, nil},
	// What blemesh-sweep prints for 2 producers × 2 intervals × 2 runs.
	{"sweep", []int64{7}, nil, func(o Options) (string, error) {
		o.Scale, o.Runs = 0.02, 2
		cells, err := RunSweep(SweepConfig{Options: o,
			Producers: []sim.Duration{sim.Second, 10 * sim.Second}, Configs: Fig14Configs()[2:4]})
		text := SweepText(cells)
		if err == nil && !(strings.Contains(text, "cell,metric,value") && strings.Contains(text, "_ci95")) {
			err = errors.New("the sweep text has no CSV header or no CI95 column")
		}
		return text, err
	}},
	{"density", []int64{7}, nil, reportText(runDensity, 0.01)},
	{"fig7", []int64{2, 4}, nil, reportText(runFig7, 0.04)},
	{"churn", []int64{2}, nil, reportText(runChurn, 0.04)},
	{"fig10", []int64{3, 5}, nil, reportText(runFig10, 0.01)},
	// The §6.3 renegotiation ablation: no other case sends a Connection
	// Parameters Request. Seed 3 accepts every request, seed 4 rejects one.
	{"abl-renegotiate", []int64{3, 4}, nil, reportText(runAblRenegotiate, 0.02)},
}

// reportText is what `blemesh run <id> -scale <scale> -values` prints.
func reportText(run func(Options) *Report, scale float64) func(Options) (string, error) {
	return func(o Options) (string, error) {
		o.Scale, o.Runs = scale, 1
		rep := run(o)
		return rep.String() + "-- key numbers --\n" + rep.ValuesTable(), nil
	}
}

func findGolden(name string) goldenCase {
	return goldenCases[slices.IndexFunc(goldenCases, func(c goldenCase) bool { return c.name == name })]
}

// The cases and seeds TestFusedIdleEquivalence runs event by event: there
// the shipped path must fuse enough events for the comparison to mean
// something.
var (
	fusedCases = []string{"tree", "tree-churn", "geo", "forest"}
	fusedSeeds = seedsTo(8)
)

// goldenStats is what the guards of a pass read besides its export.
type goldenStats struct {
	fused         float64 // share of coordinator events the link layer ran in one step
	packets       int     // packet spans the trace kept
	snaps, shapes int     // reference-stream snapshots, distinct ".links" key sequences in them
	gathers       int     // registry gathers the observed pass made before the export
	refLines      bool    // the reference stream has RPL link-quality and trace-sampling lines
}

// goldenRun runs one case at one seed along one pass and writes its export
// to w.
func goldenRun(c goldenCase, seed int64, p goldenPass, w io.Writer) (st goldenStats, err error) {
	if c.report != nil {
		text, err := c.report(Options{Seed: seed, Shards: p.lanes, Workers: p.workers})
		if err == nil {
			_, err = io.WriteString(w, text)
		}
		return st, err
	}
	g := c.net
	topo := g.topo(seed)
	if n := len(topo.Sites()); n < g.minSites {
		return st, fmt.Errorf("the fixture has %d sites, want at least %d", n, g.minSites)
	}
	cfg := NetworkConfig{Seed: seed, Shards: p.lanes, Topology: topo, LinkLayer: g.link,
		Trace: true, TraceCapacity: 1 << 18, TraceSample: g.sample}
	if g.link == LinkBLE {
		cfg.Policy, cfg.JamChannel22 = statconn.Static{Interval: 75 * sim.Millisecond}, true
	}
	if g.random {
		cfg.Policy = statconn.Random{Min: 65 * sim.Millisecond, Max: 85 * sim.Millisecond}
	}
	if g.dynamic {
		cfg.Routing = RoutingDynamic
	}
	if p.ref == "heap" {
		cfg.Engine = sim.EngineHeap
	}
	var stream, ref strings.Builder
	if g.stream > 0 {
		cfg.StreamMetrics, cfg.StreamEvery = &stream, g.stream
	}
	nw := BuildNetwork(cfg)
	// Switched before any radio has transmitted, so the whole run takes the
	// pinned path.
	for _, n := range nw.Nodes {
		if n != nil && n.Ctrl != nil {
			n.Ctrl.SetEventByEvent(p.ref == "event-by-event")
		}
	}
	for _, m := range nw.Media {
		if n := m.Stats().Transmissions; n != 0 {
			return st, fmt.Errorf("a medium transmitted %d times during the build", n)
		}
		m.SetLinearScan(p.ref == "linear-scan")
	}
	if g.stream > 0 && p.ref == "fmt" {
		// Posted after the streamer's own tick and on the same period, so it
		// re-encodes what Gather returns right behind it at every instant.
		var shadow func()
		shadow = func() {
			referenceStream(&ref, st.snaps, nw.Sim.Now(), nw.Registry.Gather())
			st.snaps++
			nw.Sim.Post(g.stream, shadow)
		}
		nw.Sim.Post(g.stream, shadow)
	}
	if p.ref == "observed" {
		// Every CDF read mid-run, 0.1 to 2 s apart, where the shipped pass
		// reads none before its export.
		rng := rand.New(rand.NewPCG(uint64(seed), 0))
		gap := func() sim.Duration {
			return 100*sim.Millisecond + sim.Duration(rng.Int64N(int64(1900*sim.Millisecond)))
		}
		var gather func()
		gather = func() {
			nw.Registry.Gather()
			st.gathers++
			nw.Sim.Post(gap(), gather)
		}
		nw.Sim.Post(gap(), gather)
	}

	formed := nw.WaitTopology(60 * sim.Second)
	if g.dynamic {
		formed = nw.WaitConverged(60*sim.Second) && formed
	}
	if g.mustForm && !formed {
		return st, errors.New("the network did not form (or converge) within 60 s")
	}
	nw.Run(5 * sim.Second)
	nw.StartTraffic(g.traffic)
	nw.Run(g.before)
	if len(g.reboots) > 0 {
		plan := &fault.Plan{}
		for i, id := range g.reboots {
			plan.Events = append(plan.Events, fault.Event{
				At: sim.Duration(i) * 2 * sim.Second, Kind: fault.Reboot, Node: id, Dwell: churnDwell})
		}
		if _, err := fault.Attach(nw.Sim, nw, plan); err != nil {
			return st, err
		}
		nw.Run(g.after)
	}
	if err := nw.StreamErr(); err != nil {
		return st, err
	}

	bw := bufio.NewWriter(w)
	if p.ref == "fmt" {
		referenceTrace(bw, nw.Trace.Events(""))
	} else if err := nw.Trace.WriteNDJSON(bw); err != nil {
		return st, err
	}
	if err := nw.Registry.WriteNDJSON(bw); err != nil {
		return st, err
	}
	out := stream.String()
	if p.ref == "fmt" {
		out = ref.String()
		st.shapes = linksShapes(out)
		st.refLines = strings.Contains(out, ".links\",\"label\":\"etx_") && strings.Contains(out, "\"label\":\"pkt_dropped\"")
	}
	bw.WriteString(out)
	var fused, events uint64
	for _, n := range nw.Nodes {
		if n != nil && n.Ctrl != nil {
			ev := n.Ctrl.Events()
			fused, events = fused+ev.IdleFused, events+ev.ConnEvents
		}
	}
	st.fused = float64(fused) / float64(events)
	st.packets = nw.Trace.CountByKind()[trace.KindPacketTX]
	return st, bw.Flush()
}

// referenceStream and referenceTrace are the fmt encoders the metrics
// stream and the trace export shipped with before the append encoders
// (internal/metrics and internal/trace keep their own copies).
func referenceStream(w io.Writer, snap int, at sim.Time, samples []metrics.Sample) {
	for _, s := range samples {
		v := "null"
		if !math.IsNaN(s.Value) && !math.IsInf(s.Value, 0) {
			v = strconv.FormatFloat(s.Value, 'g', -1, 64)
		}
		fmt.Fprintf(w, "{\"snap\":%d,\"at\":%d,\"name\":%s,\"label\":%s,\"kind\":%s,\"value\":%s}\n",
			snap, int64(at), strconv.Quote(s.Name), strconv.Quote(s.Label), strconv.Quote(s.Kind.String()), v)
	}
}

func referenceTrace(w io.Writer, events []trace.Event) {
	for _, e := range events {
		fmt.Fprintf(w, "{\"at\":%d,\"node\":%s,\"kind\":%s,\"id\":%d,\"dur\":%d,\"detail\":%s}\n",
			int64(e.At), strconv.Quote(e.Node), strconv.Quote(e.Kind.String()),
			e.ID, int64(e.Dur), strconv.Quote(e.Detail()))
	}
}

// linksShapes counts the distinct sequences of ".links" sample keys among
// the snapshots of a stream.
func linksShapes(stream string) int {
	bySnap := map[string]string{}
	for _, line := range strings.Split(stream, "\n") {
		if strings.Contains(line, ".links\"") {
			snap, _, _ := strings.Cut(line, ",")
			bySnap[snap] += line[strings.Index(line, "\"name\""):strings.Index(line, "\"kind\"")]
		}
	}
	shapes := map[string]bool{}
	for _, keys := range bySnap {
		shapes[keys] = true
	}
	return len(shapes)
}

// countingHash is a SHA-256 that counts the bytes it was fed.
type countingHash struct {
	hash.Hash
	n int
}

func (c *countingHash) Write(p []byte) (int, error) { c.n += len(p); return c.Hash.Write(p) }

// goldenResult is one pass over one line.
type goldenResult struct {
	seed   int64
	pass   goldenPass
	digest string
	st     goldenStats
	err    error
}

func goldenDigest(c goldenCase, seed int64, p goldenPass) goldenResult {
	h := &countingHash{Hash: sha256.New()}
	st, err := goldenRun(c, seed, p, h)
	if err == nil && h.n == 0 {
		err = errors.New("empty export")
	}
	return goldenResult{seed, p, hex.EncodeToString(h.Sum(nil))[:16], st, err}
}

// TestGolden is the determinism gate: the shipped path, on one lane and on
// four, must reproduce every digest
// committed in goldenFile — identity across runs and across commits in one
// mechanism. Under the race detector it runs the one-lane pass only: the
// four-lane pass runs in the determinism step, and the race-stress tests
// cover the lanes' sharing. The tests below it run the other lane counts
// and the reference paths over the lines they cover, against the same
// digests. The digests hold on every architecture: no product the compiler
// may fuse into an add is left unrounded (scripts/check-fma.sh).
// The golden tests run in parallel with each other, so after every
// sequential test of the package; TestPoolingByteIdentity is sequential.
func TestGolden(t *testing.T) {
	t.Parallel()
	lines := loadGolden(t)
	missing := lines == nil
	var file map[string]string
	if !missing {
		file = checkGoldenFile(t, lines)
	}
	passes := []goldenPass{goldenShipped, shipped(4)}
	if raceEnabled {
		passes = passes[:1]
	}
	got := map[string]string{}
	ran := 0
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			ran++
			for seed, d := range checkGoldenCase(t, file, c.name, c.seeds, passes...) {
				got[goldenKey(c.name, seed)] = d
			}
		})
	}
	if !missing {
		if t.Failed() {
			t.Logf("if the change is intended: rm %s && go test -run '^TestGolden$' ./internal/exp, and name each moved case in CHANGES.md with the reason", goldenFile)
		}
		return
	}
	checkSeedsDiffer(t, got)
	if ran < len(goldenCases) || t.Failed() {
		t.Fatalf("%s is missing; a whole, passing run of TestGolden regenerates it", goldenFile)
	}
	b := []byte("# case seed sha256[:16]; regenerate: rm this file && go test -run '^TestGolden$' ./internal/exp\n")
	for _, k := range goldenKeys() {
		b = fmt.Appendf(b, "%s %s\n", k, got[k])
	}
	// Renamed into place: a golden test running alongside reads the whole
	// file or none.
	tmp := goldenFile + ".tmp"
	if err := errors.Join(os.MkdirAll(filepath.Dir(goldenFile), 0o755), os.WriteFile(tmp, b, 0o644), os.Rename(tmp, goldenFile)); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("wrote %d digests to %s; commit them", len(got), goldenFile)
}

// TestSweepByteIdenticalAcrossWorkers: the rendered sweep — summary lines,
// CSV, CI95 columns and float formatting — is the same whether its jobs run
// serially or race across three or eight workers, with one lane per run or
// four.
func TestSweepByteIdenticalAcrossWorkers(t *testing.T) {
	t.Parallel()
	checkGoldenCase(t, goldenCorpus(t), "sweep", []int64{7}, goldenPass{lanes: 1, workers: 1},
		goldenPass{lanes: 1, workers: 3}, goldenPass{lanes: 1, workers: 8}, goldenPass{lanes: 4, workers: 8})
}

// TestEngineEquivalence: the heap event queue, the reference for the timer
// wheel, over 16 seeds of the paper tree and of the tree with a router
// rebooted under traffic, and the four seeds of the tree on 802.15.4. The
// wheel may be faster, but it must never reorder events.
func TestEngineEquivalence(t *testing.T) {
	t.Parallel()
	goldenSubtests(t, [][2]string{{"dense-tree", "tree"}, {"churn", "tree-churn"}}, seedsTo(16), reference("heap", 0))
	goldenSubtests(t, [][2]string{{"dot-tree", "dot-tree"}}, seedsTo(4), reference("heap", 0))
}

// TestObservationDoesNotPerturbTheRun: a run whose registry is gathered at
// instants drawn from the seed — every CDF's count and quantiles read again
// and again while samples arrive — exports what the run read only at its end
// exports, to the byte, on four seeds of the paper tree.
func TestObservationDoesNotPerturbTheRun(t *testing.T) {
	t.Parallel()
	checkGoldenCase(t, goldenCorpus(t), "tree", seedsTo(4), reference("observed", 1))
}

// TestEngineEquivalenceIsRepeatable: the shipped export of tree seed 1
// reproduces its committed digest, so an equivalence pass cannot be two
// different-but-luckily-equal runs.
func TestEngineEquivalenceIsRepeatable(t *testing.T) {
	t.Parallel()
	checkGoldenCase(t, goldenCorpus(t), "tree", []int64{1}, shipped(0))
}

// TestShardEquivalence: the lane count is a worker knob, never an output
// knob — 16 seeds of the tree workloads on 0, 2 and 8 lanes (TestGolden runs
// 1 and 4).
func TestShardEquivalence(t *testing.T) {
	t.Parallel()
	goldenSubtests(t, [][2]string{{"dense-tree", "tree"}, {"churn", "tree-churn"}}, seedsTo(16),
		shipped(0), shipped(2), shipped(8))
}

// TestForestShardWorkerInvariance: the racing half of the lane contract, a
// four-site forest whose windows really run concurrently, with and without
// reboots in two sites, on 0, 2 and 8 lanes (TestGolden runs 1 and 4).
func TestForestShardWorkerInvariance(t *testing.T) {
	t.Parallel()
	goldenSubtests(t, [][2]string{{"dense-forest", "forest-dense"}, {"forest-churn", "forest"}}, seedsTo(4),
		shipped(0), shipped(2), shipped(8))
}

// TestForestShardedIsRepeatable: the forest on four lanes reproduces its
// committed digest run to run.
func TestForestShardedIsRepeatable(t *testing.T) {
	t.Parallel()
	checkGoldenCase(t, goldenCorpus(t), "forest-dense", []int64{1}, shipped(4))
}

// TestFusedIdleEquivalence: the link layer may compute an idle connection
// event in one step, but every trace line and metric must be what the
// event-by-event path gives. Eight seeds of four workloads, on one lane and
// on four; the event-by-event runs must fuse nothing, and the shipped runs of
// these lines at least a fifth of their events.
func TestFusedIdleEquivalence(t *testing.T) {
	t.Parallel()
	goldenSubtests(t, [][2]string{{"dense-tree", "tree"}, {"churn", "tree-churn"}, {"geo", "geo"}, {"forest", "forest"}},
		fusedSeeds, reference("event-by-event", 0), reference("event-by-event", 4))
}

// TestPoolingByteIdentity: the pooled packet path against allocation per
// packet, eight seeds of the tree workloads and the four of the tree on
// 802.15.4. Not parallel: its pass flips pktbuf's process-wide pooling
// switch.
func TestPoolingByteIdentity(t *testing.T) {
	goldenSubtests(t, [][2]string{{"dense-tree", "tree"}, {"churn", "tree-churn"}}, seedsTo(8), reference("unpooled", 0))
	goldenSubtests(t, [][2]string{{"dot-tree", "dot-tree"}}, seedsTo(4), reference("unpooled", 0))
}

// TestSpatialIndexEquivalence: the PHY's receive-list scan against the
// linear distance filter over every radio, 16 seeds of generated geo and
// city topologies and of the geometry-free tree.
func TestSpatialIndexEquivalence(t *testing.T) {
	t.Parallel()
	goldenSubtests(t, [][2]string{{"geo", "geo"}, {"city", "city"}, {"tree", "tree"}}, seedsTo(16),
		reference("linear-scan", 0))
}

// TestSpatialIndexIsRepeatable: the geometric export reproduces its
// committed digest run to run.
func TestSpatialIndexIsRepeatable(t *testing.T) {
	t.Parallel()
	checkGoldenCase(t, goldenCorpus(t), "geo", []int64{1}, shipped(0))
}

// TestGeoShardWorkerInvariance: per-site media scanned concurrently from
// domain windows, on a generated multi-site geo topology, on 0 and 2 lanes.
func TestGeoShardWorkerInvariance(t *testing.T) {
	t.Parallel()
	checkGoldenCase(t, goldenCorpus(t), "geo-sites", []int64{11}, shipped(0), shipped(2))
}

// TestParallelBuildRepeatable: the parallel per-site fill, eight workers
// racing for the sites' claims, reproduces its committed digest. Under -race
// this is also the data-race check of the two-pass builder.
func TestParallelBuildRepeatable(t *testing.T) {
	t.Parallel()
	checkGoldenCase(t, goldenCorpus(t), "geo-sites", []int64{11}, shipped(8))
}

// TestRoutedEngineEquivalence: the heap event queue under the dynamic
// routing plane — trickle timers, parent reselection, DAO re-plumbing after
// a reboot — over eight seeds of the braided mesh.
func TestRoutedEngineEquivalence(t *testing.T) {
	t.Parallel()
	checkGoldenCase(t, goldenCorpus(t), "mesh-rpl", seedsTo(8), reference("heap", 0))
}

// TestRoutedByteIdenticalAcrossWorkers: eight seeds of the routed workload
// racing across the runner's workers: each network is hermetic, so
// scheduling its run on any OS thread changes no byte.
func TestRoutedByteIdenticalAcrossWorkers(t *testing.T) {
	t.Parallel()
	checkGoldenCase(t, goldenCorpus(t), "mesh-rpl", seedsTo(8), shipped(0))
}

// TestSampledTraceEngineEquivalence: the heap event queue under a 10 %
// sampled trace, which must still keep packet spans.
func TestSampledTraceEngineEquivalence(t *testing.T) {
	t.Parallel()
	checkGoldenCase(t, goldenCorpus(t), "mesh-churn", []int64{7}, reference("heap", 0))
}

// TestStreamBytesMatchReference: the append encoders of the metrics stream
// and of the trace export against the fmt encoders they replaced, on a
// churn-shaped run re-encoded at the same instants as it streams, on one
// mesh lane and on four forest lanes. The reference stream must hold 100
// snapshots, RPL link-quality and trace-sampling lines, and ".links" lines
// that change shape.
func TestStreamBytesMatchReference(t *testing.T) {
	t.Parallel()
	goldenSubtests(t, [][2]string{{"mesh-serial", "mesh-churn"}}, seedsTo(3), reference("fmt", 0))
	goldenSubtests(t, [][2]string{{"forest-4-lanes", "forest-stream"}}, seedsTo(3), reference("fmt", 4))
}

// TestTraceExportIsByteIdentical: the trace export of the overloaded tree,
// where queues fill and packets drop, reproduces its committed digest.
func TestTraceExportIsByteIdentical(t *testing.T) {
	t.Parallel()
	checkGoldenCase(t, goldenCorpus(t), "tree-overload", []int64{5}, shipped(0))
}

// TestRunsAreDeterministic: the fig7 report reproduces its committed digest
// for both its seeds, and the two seeds differ.
func TestRunsAreDeterministic(t *testing.T) {
	t.Parallel()
	d := checkGoldenCase(t, goldenCorpus(t), "fig7", []int64{2, 4}, shipped(0))
	if len(d) == 2 && d[2] == d[4] {
		t.Fatalf("seeds 2 and 4 printed the same report (%s)", d[2])
	}
}

// TestReportBytesIdenticalAcrossRuns: the churn report — lines and values
// table, with no map-iteration order anywhere in the output path — and the
// metrics registry, which walks every node's collectors, reproduce their
// committed digests.
func TestReportBytesIdenticalAcrossRuns(t *testing.T) {
	t.Parallel()
	file := goldenCorpus(t)
	checkGoldenCase(t, file, "churn", []int64{2}, shipped(0))
	checkGoldenCase(t, file, "tree", []int64{5}, shipped(0))
}

func goldenKey(c string, seed int64) string { return c + " " + strconv.FormatInt(seed, 10) }

// goldenKeys lists every (case, seed) of the table, in order.
func goldenKeys() []string {
	var keys []string
	for _, c := range goldenCases {
		for _, seed := range c.seeds {
			keys = append(keys, goldenKey(c.name, seed))
		}
	}
	return keys
}

// loadGolden reads goldenFile: its lines, or nil, logged, when it is
// missing.
func loadGolden(t *testing.T) [][2]string {
	lines, err := readGolden(goldenFile)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		t.Logf("%s is missing: comparing the passes with the shipped path only", goldenFile)
		return nil
	case err != nil:
		t.Fatal(err)
	}
	return lines
}

// goldenCorpus is the digests of goldenFile, or nil when it is missing.
func goldenCorpus(t *testing.T) map[string]string {
	lines := loadGolden(t)
	if lines == nil {
		return nil
	}
	file := map[string]string{}
	for _, l := range lines {
		file[l[0]] = l[1]
	}
	return file
}

// goldenSubtests runs the passes over seeds of each case in a subtest:
// subs holds subtest name, case name pairs.
func goldenSubtests(t *testing.T, subs [][2]string, seeds []int64, passes ...goldenPass) {
	file := goldenCorpus(t)
	for _, s := range subs {
		t.Run(s[0], func(t *testing.T) { checkGoldenCase(t, file, s[1], seeds, passes...) })
	}
}

// checkGoldenCase runs every pass over the given seeds of a case and
// requires each to give the digest file commits for the line or, where file
// has none, what the shipped lanes1 pass, run alongside, gives. It returns
// what the first pass gives.
func checkGoldenCase(t *testing.T, file map[string]string, name string, seeds []int64, passes ...goldenPass) map[int64]string {
	t.Helper()
	c := findGolden(name)
	var jobs, unpooled []goldenResult
	for _, seed := range seeds {
		ps := passes
		if _, ok := file[goldenKey(name, seed)]; !ok && !slices.Contains(ps, goldenShipped) {
			ps = append([]goldenPass{goldenShipped}, ps...)
		}
		for _, p := range ps {
			if p.ref == "unpooled" {
				unpooled = append(unpooled, goldenResult{seed: seed, pass: p})
			} else {
				jobs = append(jobs, goldenResult{seed: seed, pass: p})
			}
		}
	}
	results, err := runner.Map(len(jobs), runner.Options{}, func(i int) (goldenResult, error) {
		return goldenDigest(c, jobs[i].seed, jobs[i].pass), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Flipped while no buffer is live: only TestPoolingByteIdentity, which
	// is not parallel, has unpooled passes, so nothing else runs now.
	if len(unpooled) > 0 {
		pktbuf.SetPooling(false)
		for _, j := range unpooled {
			results = append(results, goldenDigest(c, j.seed, j.pass))
		}
		pktbuf.SetPooling(true)
	}

	want := map[int64]string{}
	for _, r := range results {
		if d, ok := file[goldenKey(name, r.seed)]; ok {
			want[r.seed] = d
		} else if r.pass == goldenShipped && r.err == nil {
			want[r.seed] = r.digest
		}
	}
	first := map[int64]string{}
	for _, r := range results {
		where := fmt.Sprintf("%s seed %d, pass %s", name, r.seed, r.pass)
		w, ok := want[r.seed]
		_, inFile := file[goldenKey(name, r.seed)]
		switch err := goldenGuards(c, r); {
		case r.err != nil:
			t.Errorf("%s: %v", where, r.err)
		case err != nil:
			t.Errorf("%s: %v — nothing was compared", where, err)
		case !ok:
			t.Errorf("%s: the shipped pass failed, nothing to compare with", where)
		case r.digest != w && inFile:
			t.Errorf("%s: %s where %s has %s; %s", where, r.digest, goldenFile, w, goldenDiff(c, r.seed, r.pass))
		case r.digest != w:
			t.Errorf("%s: %s where the shipped path gives %s; %s", where, r.digest, w, goldenDiff(c, r.seed, r.pass))
		}
		if r.pass == passes[0] && r.err == nil {
			first[r.seed] = r.digest
		}
	}
	return first
}

// goldenDiff reruns a pass and the shipped path and shows the first line
// where their exports differ — or, where they agree, says that the digest
// moved.
func goldenDiff(c goldenCase, seed int64, p goldenPass) string {
	var got, want strings.Builder
	unpooled := p.ref == "unpooled"
	if unpooled {
		pktbuf.SetPooling(false)
	}
	_, err := goldenRun(c, seed, p, &got)
	if unpooled {
		pktbuf.SetPooling(true)
	}
	_, err2 := goldenRun(c, seed, goldenShipped, &want)
	if err := errors.Join(err, err2); err != nil {
		return "rerunning it: " + err.Error()
	}
	if got.String() == want.String() {
		return "rerun, it gives the same bytes as the shipped path: the digest moved, or a run is not a function of its seed"
	}
	n, g, w := firstDiff(got.String(), want.String())
	return fmt.Sprintf("first difference at line %d:\n  %s: %s\n  %s: %s", n, p, g, goldenShipped, w)
}

// goldenGuards fails a pass that would compare nothing: an event-by-event
// run that fused an event, a shipped run of a line the event-by-event pass
// checks that fused too few, a sampled trace with no packet span, a
// reference stream too short, without RPL link-quality or trace-sampling
// lines, or whose ".links" lines never change shape.
func goldenGuards(c goldenCase, r goldenResult) error {
	p, st := r.pass, r.st
	switch {
	case p.ref == "event-by-event" && st.fused != 0:
		return fmt.Errorf("ran %.2f of the coordinator events in one step", st.fused)
	case p.ref == "" && slices.Contains(fusedCases, c.name) && slices.Contains(fusedSeeds, r.seed) && st.fused < 0.2:
		return fmt.Errorf("only %.2f of the coordinator events ran in one step", st.fused)
	case c.net != nil && c.net.sample > 0 && st.packets == 0:
		return errors.New("the sampled trace kept no packet span")
	case p.ref == "observed" && st.gathers < 10:
		return fmt.Errorf("the registry was gathered %d times before the export", st.gathers)
	case p.ref == "fmt" && (st.snaps < 100 || st.shapes < 2 || !st.refLines):
		return fmt.Errorf("%d reference snapshots, %d shapes of the .links lines, RPL and sampling lines: %v",
			st.snaps, st.shapes, st.refLines)
	}
	return nil
}

// readGolden parses goldenFile: its "case seed" → digest lines in file
// order, after the header line.
func readGolden(path string) (lines [][2]string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	header, body, _ := strings.Cut(string(data), "\n")
	if !strings.HasPrefix(header, "#") {
		return nil, fmt.Errorf("%s: the first line %q is not a # header", path, header)
	}
	for i, l := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		f := strings.Fields(l)
		if len(f) != 3 {
			return nil, fmt.Errorf("%s:%d: %q is not \"case seed digest\"", path, i+2, l)
		}
		lines = append(lines, [2]string{f[0] + " " + f[1], f[2]})
	}
	return lines, nil
}

// checkGoldenFile fails a corpus that is not exactly one line per (case,
// seed) of the table, in table order — a stale line of a renamed case
// would otherwise never be checked — and returns its digests.
func checkGoldenFile(t *testing.T, lines [][2]string) map[string]string {
	want := goldenKeys()
	digests := map[string]string{}
	var have []string
	for _, l := range lines {
		if _, dup := digests[l[0]]; dup || !slices.Contains(want, l[0]) {
			t.Errorf("%s: %q is a second line, or one no case produces", goldenFile, l[0])
			continue
		}
		digests[l[0]] = l[1]
		have = append(have, l[0])
	}
	want = slices.DeleteFunc(want, func(k string) bool {
		_, ok := digests[k]
		if !ok {
			t.Errorf("%s: no line for %q", goldenFile, k)
		}
		return !ok
	})
	for i := range have {
		if have[i] != want[i] {
			t.Errorf("%s: the lines are out of order: %q stands where %q belongs", goldenFile, have[i], want[i])
			break
		}
	}
	checkSeedsDiffer(t, digests)
	return digests
}

// checkSeedsDiffer fails two seeds of one case that share a digest: such a
// case does not depend on its seed, so its passes agreeing proves little.
func checkSeedsDiffer(t *testing.T, digests map[string]string) {
	for _, c := range goldenCases {
		seen := map[string]int64{}
		for _, seed := range c.seeds {
			d, ok := digests[goldenKey(c.name, seed)]
			if prev, dup := seen[d]; ok && dup {
				t.Errorf("%s: seeds %d and %d share the digest %s", c.name, prev, seed, d)
			}
			seen[d] = seed
		}
	}
}

// firstDiff locates the first differing line of two exports.
func firstDiff(a, b string) (line int, got, want string) {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return i + 1, al[i], bl[i]
		}
	}
	return len(al), "<end>", "<end>"
}

// TestFusedIdleShareOnPaperTree pins how much of the paper's default workload
// (15-node tree, 75 ms, 14 producers at 1 s) qualifies for the fused path:
// counted before it existed, 55 % of the coordinator's events had nothing
// queued at either end and nothing else inside their window. A precondition
// that silently stops matching would leave every digest in place and only
// show up as a slower benchmark; this makes it fail a test.
func TestFusedIdleShareOnPaperTree(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		st, err := goldenRun(findGolden("tree"), seed, shipped(0), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: %.3f of the coordinator events in one step", seed, st.fused)
		if st.fused < 0.5 {
			t.Errorf("seed %d: %.3f of the coordinator events ran in one step, want at least 0.5", seed, st.fused)
		}
	}
}
