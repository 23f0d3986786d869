package exp

import (
	"fmt"
	"math"

	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
)

// The density experiment family: CoAP PDR and delay as a function of node
// count and node density over generated geometric topologies, the
// city-scale counterpart of the paper's fixed 10-node testbed. The curve
// shapes follow the Bluetooth Mesh scalability literature ("Understanding
// the Performance of Bluetooth Mesh"): delivery degrades and delay grows as
// density pushes more relay traffic through the shared 2.4GHz medium, and
// deeper (sparser) networks pay per-hop delay instead.
//
// Runs use the geometric PHY (disk range == the generator's link range),
// sink-tree sparse routes, and — so the family scales to 10k+ nodes — lean
// metrics: only network-level aggregates and streaming snapshots, never
// per-node collector or heatmap state.

func init() {
	register(Experiment{
		ID:     "density",
		Title:  "PDR and delay vs node count and density (geo topologies)",
		Figure: "city-scale extension (no paper figure)",
		Run:    runDensity,
	})
}

// densityDur scales the per-cell runtime: density cells are a sweep, so
// each cell runs a fraction of the paper hour.
func densityDur(o Options) sim.Duration {
	d := sim.Duration(float64(20*sim.Minute) * o.Scale)
	if d < 2*sim.Minute {
		d = 2 * sim.Minute
	}
	return d
}

// DensityCell describes one sweep cell: N nodes at a target mean disk
// degree (density) on a square arena sized so the per-node area stays
// constant as N grows.
type DensityCell struct {
	N      int
	Degree float64
}

// densityTopology generates the cell's random geometric topology: the
// arena keeps 250m² per node and the disk range is solved from the target
// mean degree (E[deg] ≈ λπr² for a Poisson field of intensity λ).
func densityTopology(seed int64, c DensityCell) testbed.Topology {
	area := 250.0 * float64(c.N)
	side := math.Sqrt(area)
	r := math.Sqrt(c.Degree * area / (float64(c.N) * math.Pi))
	return testbed.RandomGeometric(testbed.GeoConfig{
		Seed: seed, N: c.N, Width: side, Height: side, Range: r,
	})
}

// DensityConfig builds the NetworkConfig for one density cell — the same
// build the experiment, the determinism diff in CI, and the scale bench
// all share.
func DensityConfig(o Options, c DensityCell) NetworkConfig {
	return NetworkConfig{
		Seed:         o.Seed,
		Shards:       o.Shards,
		Topology:     densityTopology(o.Seed, c),
		Policy:       statconn.Static{Interval: 75 * sim.Millisecond},
		JamChannel22: true,
		Lean:         true,
		SparseRoutes: true,
	}
}

// CityScaleConfig is the canonical 10k-node city-scale build: a sparse
// random geometric field (≈2.8 mean disk degree, hundreds of RF-isolated
// sites) in lean, sparse-route mode. The scale smoke test, the
// ns_per_event_10k bench key, and CI's determinism diff all run exactly
// this network.
func CityScaleConfig(shards int) NetworkConfig {
	return NetworkConfig{
		Seed: 42,
		Topology: testbed.RandomGeometric(testbed.GeoConfig{
			Seed: 42, N: 10000, Width: 1600, Height: 1600, Range: 15}),
		Policy:       statconn.Static{Interval: 75 * sim.Millisecond},
		JamChannel22: true,
		Lean:         true,
		SparseRoutes: true,
		Shards:       shards,
	}
}

// CityScale100kConfig is the 100k-node variant of CityScaleConfig at the
// same spatial density (the area scales with N) — the population the
// per-site builder is sized for. Same lean, sparse-route,
// streaming-friendly shape; the 100k smoke test runs exactly this network.
func CityScale100kConfig(shards int) NetworkConfig {
	return NetworkConfig{
		Seed: 42,
		Topology: testbed.RandomGeometric(testbed.GeoConfig{
			Seed: 42, N: 100000, Width: 5060, Height: 5060, Range: 15}),
		Policy:       statconn.Static{Interval: 75 * sim.Millisecond},
		JamChannel22: true,
		Lean:         true,
		SparseRoutes: true,
		Shards:       shards,
	}
}

func runDensity(o Options) *Report {
	o.defaults()
	r := newReport("density", "CoAP PDR and delay vs node count × density (random geometric, CI 75ms, producer 10s±5s)")
	dur := densityDur(o)
	traffic := TrafficConfig{Interval: 10 * sim.Second}
	for _, c := range []DensityCell{
		{N: 40, Degree: 2.5}, {N: 40, Degree: 5}, {N: 40, Degree: 10},
		{N: 80, Degree: 2.5}, {N: 80, Degree: 5}, {N: 80, Degree: 10},
		{N: 160, Degree: 5},
	} {
		cfg := DensityConfig(o, c)
		nw := BuildNetwork(cfg)
		nw.WaitTopology(120 * sim.Second)
		nw.Run(10 * sim.Second)
		nw.StartTraffic(traffic)
		nw.Run(dur)
		pdr := nw.CoAPPDR()
		rtts := nw.MergedRTTs()
		key := fmt.Sprintf("n%d_d%g", c.N, c.Degree)
		r.addf("N=%3d deg≈%4.1f (measured %4.1f, %2d sites, range %4.1fm): PDR %.4f (%d/%d)  RTT median %.3fs p95 %.3fs  losses %d",
			c.N, c.Degree, cfg.Topology.MeanDiskDegree(), len(cfg.Topology.Sites()),
			cfg.Topology.Range, pdr.Rate(), pdr.Delivered, pdr.Sent,
			rtts.Median(), rtts.Quantile(0.95), nw.ConnLosses())
		r.set(key+"_pdr", pdr.Rate())
		r.set(key+"_rtt_median_s", rtts.Median())
		r.set(key+"_degree", cfg.Topology.MeanDiskDegree())
		r.set(key+"_sites", float64(len(cfg.Topology.Sites())))
	}
	r.addf("(expected shape: PDR falls and delay rises with density at fixed N — relay")
	r.addf(" contention on the shared band; at fixed density, larger N adds hops and delay)")
	return r
}
