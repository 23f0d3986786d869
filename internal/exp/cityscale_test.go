package exp

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
)

// cityScaleConfig attaches streaming to the canonical 10k-node build
// (exp.CityScaleConfig — shared with the bench CLI and CI).
func cityScaleConfig(stream *strings.Builder, shards int) NetworkConfig {
	cfg := CityScaleConfig(shards)
	cfg.StreamMetrics = stream
	cfg.StreamEvery = 10 * sim.Second
	return cfg
}

// TestCityScaleSmoke builds and drives a 10k-node generated city-scale
// network end to end under a -short-friendly budget. The run must stream
// its metrics — the assertions pin that lean mode materialized no per-node
// surfaces (no heatmap rows, no per-node registry collectors) while the
// aggregate counters and streamed snapshots still flowed.
func TestCityScaleSmoke(t *testing.T) {
	var stream strings.Builder
	nw := BuildNetwork(cityScaleConfig(&stream, 4))
	// No WaitTopology: polling 10k links every 100ms would dominate the
	// budget, and partial formation is fine for a smoke run.
	nw.Run(20 * sim.Second)
	nw.StartTraffic(TrafficConfig{Interval: 10 * sim.Second})
	nw.Run(25 * sim.Second)

	if got := nw.NodeCount(); got != 10000 {
		t.Fatalf("built %d nodes, want 10000", got)
	}
	if nw.Processed() == 0 {
		t.Fatal("no simulation events processed")
	}
	if rows := nw.PerProd.Rows(); len(rows) != 0 {
		t.Fatalf("lean run materialized %d per-producer heatmap rows", len(rows))
	}
	var reg strings.Builder
	if err := nw.Registry.WriteNDJSON(&reg); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(reg.String(), `"node-`) {
		t.Fatal("lean run registered per-node collectors")
	}
	if !strings.Contains(reg.String(), "net.coap_pdr") {
		t.Fatal("network-level aggregates missing from lean registry")
	}
	if strings.Count(stream.String(), "\n") < 2 {
		t.Fatalf("expected streamed snapshots, got %d lines", strings.Count(stream.String(), "\n"))
	}
	if pdr := nw.CoAPPDR(); pdr.Sent == 0 {
		t.Fatal("no traffic sent across 10k nodes")
	}
}

// cityScale100kBudget bounds the 100k smoke's wall clock: build plus 15
// simulated seconds of a 100k-node network. The per-site builder holds
// this comfortably; blowing it means a superlinear regression somewhere in
// build or steady-state cost, not noise.
const cityScale100kBudget = 10 * time.Minute

// TestCityScale100k drives the 100k-node city-scale network — the per-site
// builder's design target — end to end: streaming-only
// metrics, lean mode, sparse routes, parallel per-site build, all under a
// wall-clock budget. Skipped in -short (the build alone is seconds and the
// run dominates a quick suite) and under the race detector, where it took
// 186 s on a 2-core amd64 host; the parallel builder and the sharded
// scheduler have their own race-stress tests.
func TestCityScale100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node run in -short mode")
	}
	if raceEnabled {
		t.Skip("100k-node run under the race detector")
	}
	start := time.Now()
	var stream strings.Builder
	cfg := CityScale100kConfig(4)
	cfg.StreamMetrics = &stream
	cfg.StreamEvery = 5 * sim.Second
	nw := BuildNetwork(cfg)
	buildWall := time.Since(start)
	nw.Run(5 * sim.Second)
	nw.StartTraffic(TrafficConfig{Interval: 10 * sim.Second})
	nw.Run(10 * sim.Second)
	wall := time.Since(start)
	t.Logf("100k: build %v, total %v, %d events (%.0f ns/event after the build), %d sites",
		buildWall, wall, nw.Processed(),
		float64((wall-buildWall).Nanoseconds())/float64(max(nw.Processed(), 1)),
		len(nw.Cfg.Topology.Sites()))
	if got := nw.NodeCount(); got != 100000 {
		t.Fatalf("built %d nodes, want 100000", got)
	}
	if nw.Processed() == 0 {
		t.Fatal("no simulation events processed")
	}
	if rows := nw.PerProd.Rows(); len(rows) != 0 {
		t.Fatalf("lean run materialized %d per-producer heatmap rows", len(rows))
	}
	if strings.Count(stream.String(), "\n") < 2 {
		t.Fatalf("expected streamed snapshots, got %d lines", strings.Count(stream.String(), "\n"))
	}
	if pdr := nw.CoAPPDR(); pdr.Sent == 0 {
		t.Fatal("no traffic sent across 100k nodes")
	}
	if wall > cityScale100kBudget {
		t.Fatalf("100k smoke took %v, budget %v", wall, cityScale100kBudget)
	}
}

// settledHeap is the heap still reachable after two collections.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// formedFootprintBudget is the settled heap a formed, loaded node may cost,
// in bytes: under 8 % above what TestFormedFootprintBudget reads (5 664;
// 6 086 while a controller kept its advertising and scanning state, a link
// end its GATT client state and every site its own PDR series, 7 684 while
// Conn carried Fig. 12's per-channel counters and the layers above the link
// were wired with closures, 8 741 while every link end carried nine closures
// and a 1 024 B Conn, 12 410 before link and site state was sized for what
// it holds). Most of a node's cost is allocated after BuildNetwork returns —
// connections, L2CAP endpoints, per-site sketches — which is why a built,
// unformed network (the "built" figure the test logs) reads half of this.
const formedFootprintBudget = 6110

// TestFormedFootprintBudget pins what a node costs the host once its links
// are up and traffic flows, on a 2 000-node city at the canonical density
// (256 m² per node) in the shape the 10k and 100k cities run in.
func TestFormedFootprintBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("2 000-node formed run in -short mode")
	}
	const n = 2000
	side := 1600 * math.Sqrt(float64(n)/10000)
	before := settledHeap()
	nw := BuildNetwork(NetworkConfig{
		Seed: 42,
		Topology: testbed.RandomGeometric(testbed.GeoConfig{
			Seed: 42, N: n, Width: side, Height: side, Range: 15}),
		Policy:       statconn.Static{Interval: 75 * sim.Millisecond},
		JamChannel22: true,
		Lean:         true,
		SparseRoutes: true,
	})
	built := settledHeap() - before
	nw.Run(20 * sim.Second)
	formed := settledHeap() - before
	nw.StartTraffic(TrafficConfig{Interval: 10 * sim.Second})
	nw.Run(10 * sim.Second)
	loaded := settledHeap() - before

	ends := 0
	for _, id := range nw.Cfg.Topology.Nodes() {
		ends += len(nw.Node(id).NetIf.Links())
	}
	if ends < n {
		t.Fatalf("%d link ends on %d nodes: the city did not form", ends, n)
	}
	t.Logf("%d nodes, %d link ends, %d sites: built %d B/node, formed %d, loaded %d (%d B per link end over built)",
		n, ends, len(nw.Cfg.Topology.Sites()), built/n, formed/n, loaded/n, (loaded-built)/uint64(ends))
	if perNode := loaded / n; perNode > formedFootprintBudget {
		t.Fatalf("formed, loaded footprint %d B/node, budget %d", perNode, formedFootprintBudget)
	}
	runtime.KeepAlive(nw)
}
