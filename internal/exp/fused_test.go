package exp

import (
	"strings"
	"testing"

	"blemesh/internal/fault"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
)

// fusedExport drives one traced workload of the equivalence matrix — the
// dense tree, the tree with a router rebooted under traffic, a generated
// geometric topology, a four-site forest with a reboot in two sites — with
// the link layer as shipped, or with every controller forced to run each
// connection event through the queue (ble.Controller.SetEventByEvent), and
// returns trace + metrics NDJSON and the share of coordinator events the
// link layer ran in one step. shards is the worker-lane count (0: one).
func fusedExport(t *testing.T, kind string, seed int64, shards int, eventByEvent bool) (string, float64) {
	t.Helper()
	var topo testbed.Topology
	var reboots []int
	switch kind {
	case "dense-tree":
		topo = testbed.Tree()
	case "churn":
		topo, reboots = testbed.Tree(), []int{2}
	case "geo":
		topo = spatialTopology("geo", seed)
	case "forest":
		topo, reboots = testbed.Forest(4), []int{2, 102}
	}
	nw := BuildNetwork(NetworkConfig{
		Seed:          seed,
		Shards:        shards,
		Topology:      topo,
		Policy:        statconn.Static{Interval: 75 * sim.Millisecond},
		JamChannel22:  true,
		Trace:         true,
		TraceCapacity: 1 << 18,
	})
	for _, n := range nw.Nodes {
		if n != nil {
			n.Ctrl.SetEventByEvent(eventByEvent)
		}
	}
	// Formation failure on a hard generated seed is fine: both paths must
	// fail identically, and byte equality still checks that.
	nw.WaitTopology(60 * sim.Second)
	nw.Run(5 * sim.Second)
	nw.StartTraffic(TrafficConfig{Interval: sim.Second, Jitter: 500 * sim.Millisecond})
	nw.Run(10 * sim.Second)
	if len(reboots) > 0 {
		plan := &fault.Plan{}
		for i, id := range reboots {
			plan.Events = append(plan.Events, fault.Event{
				At: sim.Duration(i) * 2 * sim.Second, Kind: fault.Reboot, Node: id, Dwell: churnDwell})
		}
		if _, err := fault.Attach(nw.Sim, nw, plan); err != nil {
			t.Fatal(err)
		}
		nw.Run(20 * sim.Second)
	}
	nw.Run(10 * sim.Second)
	var b strings.Builder
	if err := nw.Trace.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := nw.Registry.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	var fused, events uint64
	for _, n := range nw.Nodes {
		if n != nil {
			ev := n.Ctrl.Events()
			fused, events = fused+ev.IdleFused, events+ev.ConnEvents
		}
	}
	return b.String(), float64(fused) / float64(events)
}

// TestFusedIdleEquivalence is the lockdown for the fused idle exchange: the
// link layer may compute an idle connection event in one step, but every
// trace line and every metric must be what the event-by-event path — the
// general path, and the reference — produces. Eight seeds of each workload,
// on one lane and on four.
func TestFusedIdleEquivalence(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 4
	}
	for _, kind := range []string{"dense-tree", "churn", "geo", "forest"} {
		t.Run(kind, func(t *testing.T) {
			for seed := int64(1); seed <= seeds; seed++ {
				for _, shards := range []int{0, 4} {
					ref, none := fusedExport(t, kind, seed, shards, true)
					got, share := fusedExport(t, kind, seed, shards, false)
					if ref == "" || none != 0 {
						t.Fatalf("seed %d shards %d: reference export empty (%v) or not event by event (share %.2f)",
							seed, shards, ref == "", none)
					}
					if share < 0.2 {
						t.Fatalf("seed %d shards %d: only %.2f of the coordinator events ran in one step — nothing was compared",
							seed, shards, share)
					}
					if got != ref {
						n, g, w := firstDiff(got, ref)
						t.Fatalf("seed %d shards %d: fused path diverges from event by event at line %d:\n  fused:          %s\n  event by event: %s",
							seed, shards, n, g, w)
					}
				}
			}
		})
	}
}

// TestFusedIdleShareOnPaperTree pins how much of the paper's default workload
// (15-node tree, 75 ms, 14 producers at 1 s) qualifies for the fused path:
// counted before it existed, 55 % of the coordinator's events had nothing
// queued at either end and nothing else inside their window. A precondition
// that silently stops matching would leave every digest in place and only
// show up as a slower benchmark; this makes it fail a test.
func TestFusedIdleShareOnPaperTree(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		_, share := fusedExport(t, "dense-tree", seed, 0, false)
		t.Logf("seed %d: %.3f of the coordinator events in one step", seed, share)
		if share < 0.5 {
			t.Errorf("seed %d: %.3f of the coordinator events ran in one step, want at least 0.5", seed, share)
		}
	}
}
