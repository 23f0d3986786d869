package exp

import (
	"strings"
	"testing"

	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
)

// spatialTopology builds one cell of the differential matrix: a generated
// geometric topology ("geo", "city") or the paper's fixed tree — the
// geometry-free case. On each, phy.Medium.SetLinearScan swaps the scan of
// receiving radios for the visit-every-radio oracle.
func spatialTopology(kind string, seed int64) testbed.Topology {
	switch kind {
	case "geo":
		return testbed.RandomGeometric(testbed.GeoConfig{
			Seed: seed, N: 30, Width: 70, Height: 70, Range: 18})
	case "city":
		return testbed.CityBlocks(testbed.CityConfig{
			Seed: seed, BlocksX: 2, BlocksY: 2, PerBlock: 4})
	default:
		return testbed.Tree()
	}
}

// spatialExport drives one traced workload with the PHY scan path pinned to
// the list of receiving radios (linear=false) or the linear distance filter
// (linear=true) and returns the full trace + metrics NDJSON. shards is the
// worker-lane count (0: one).
func spatialExport(t *testing.T, topo testbed.Topology, seed int64, linear bool, shards int) string {
	t.Helper()
	nw := BuildNetwork(NetworkConfig{
		Seed:          seed,
		Engine:        sim.EngineWheel,
		Shards:        shards,
		Topology:      topo,
		Policy:        statconn.Static{Interval: 75 * sim.Millisecond},
		JamChannel22:  true,
		Trace:         true,
		TraceCapacity: 1 << 18,
	})
	// The scan path is switched after the build; no radio has transmitted
	// yet, so every transmission of the run takes the pinned path.
	for _, m := range nw.Media {
		if n := m.Stats().Transmissions; n != 0 {
			t.Fatalf("medium transmitted %d times during the build", n)
		}
		m.SetLinearScan(linear)
	}
	// Formation failure on a hard seed is itself fine — both scan paths
	// must fail identically, and byte equality still checks that.
	nw.WaitTopology(60 * sim.Second)
	nw.Run(5 * sim.Second)
	nw.StartTraffic(TrafficConfig{Interval: sim.Second, Jitter: 500 * sim.Millisecond})
	nw.Run(20 * sim.Second)
	var b strings.Builder
	if err := nw.Trace.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := nw.Registry.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSpatialIndexEquivalence is the lockdown for the PHY scan: 16 seeds of
// generated geo and city topologies (and the geometry-free tree control) must
// export byte-identical trace and metrics NDJSON whether the medium scans its
// receiving radios with a range check or every radio through the linear
// distance filter. The scan path is a lookup accelerator, never an output
// knob.
func TestSpatialIndexEquivalence(t *testing.T) {
	seeds := int64(16)
	if testing.Short() {
		seeds = 4
	}
	for _, kind := range []string{"geo", "city", "tree"} {
		t.Run(kind, func(t *testing.T) {
			for seed := int64(1); seed <= seeds; seed++ {
				topo := spatialTopology(kind, seed)
				lin := spatialExport(t, topo, seed, true, 0)
				idx := spatialExport(t, topo, seed, false, 0)
				if lin == "" {
					t.Fatalf("%s seed %d: empty export", kind, seed)
				}
				if idx != lin {
					n, g, w := firstDiff(idx, lin)
					t.Fatalf("%s seed %d: receive-list scan diverges from linear scan at line %d:\n  rx:     %s\n  linear: %s",
						kind, seed, n, g, w)
				}
			}
		})
	}
}

// TestSpatialIndexIsRepeatable pins the geometric export itself as
// deterministic run-to-run, so equivalence passes cannot be two
// different-but-luckily-equal runs.
func TestSpatialIndexIsRepeatable(t *testing.T) {
	topo := spatialTopology("geo", 1)
	a := spatialExport(t, topo, 1, false, 0)
	b := spatialExport(t, topo, 1, false, 0)
	if a != b {
		n, g, w := firstDiff(a, b)
		t.Fatalf("same geo config diverges run-to-run at line %d:\n  %s\n  %s", n, g, w)
	}
}

// TestGeoShardWorkerInvariance runs a generated multi-site geo topology at
// Shards 1, 0 (one lane as well), 2 and 4: the worker count must never leak
// into the merged export. This is the racing half of the contract for the
// PHY scan — per-site media scanned concurrently from domain windows.
func TestGeoShardWorkerInvariance(t *testing.T) {
	topo := testbed.RandomGeometric(testbed.GeoConfig{
		Seed: 11, N: 60, Width: 200, Height: 200, Range: 22})
	if len(topo.Sites()) < 2 {
		t.Fatalf("fixture topology has %d sites, need a multi-site seed", len(topo.Sites()))
	}
	ref := spatialExport(t, topo, 11, false, 1)
	if ref == "" {
		t.Fatal("empty export")
	}
	for _, shards := range []int{0, 2, 4} {
		if got := spatialExport(t, topo, 11, false, shards); got != ref {
			n, g, w := firstDiff(got, ref)
			t.Fatalf("shards %d diverges from shards=1 at line %d:\n  got:  %s\n  want: %s",
				shards, n, g, w)
		}
	}
}
