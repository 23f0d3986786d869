package exp

import (
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"blemesh/internal/coap"
	"blemesh/internal/core"
	"blemesh/internal/ip6"
	"blemesh/internal/metrics"
	"blemesh/internal/rpl"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
	"blemesh/internal/trace"
)

// tracedRun drives a short tree workload and returns the network.
func tracedRun(seed int64, traced bool) *Network {
	nw := BuildNetwork(NetworkConfig{
		Seed:          seed,
		Topology:      testbed.Tree(),
		Policy:        statconn.Static{Interval: 75 * sim.Millisecond},
		JamChannel22:  true,
		Trace:         traced,
		TraceCapacity: 1 << 18,
	})
	nw.WaitTopology(60 * sim.Second)
	nw.Run(10 * sim.Second)
	nw.StartTraffic(TrafficConfig{})
	nw.Run(2 * sim.Minute)
	return nw
}

func TestTracingDoesNotPerturbTheRun(t *testing.T) {
	// The determinism contract of the flight recorder: recording must not
	// consume randomness or alter scheduling, so a traced run and an
	// untraced run of the same seed produce identical experiment output.
	on := tracedRun(5, true)
	off := tracedRun(5, false)
	if on.Trace.Total() == 0 || off.Trace.Total() != 0 {
		t.Fatalf("trace totals: on=%d off=%d", on.Trace.Total(), off.Trace.Total())
	}
	a, b := on.CoAPPDR(), off.CoAPPDR()
	if a != b {
		t.Fatalf("PDR differs: traced %+v vs untraced %+v", a, b)
	}
	if on.ConnLosses() != off.ConnLosses() {
		t.Fatalf("losses differ: %d vs %d", on.ConnLosses(), off.ConnLosses())
	}
	if on.MergedRTTs().N() != off.MergedRTTs().N() || on.MergedRTTs().Mean() != off.MergedRTTs().Mean() ||
		on.MergedRTTs().Quantile(0.99) != off.MergedRTTs().Quantile(0.99) {
		t.Fatal("RTT distributions differ between traced and untraced runs")
	}
	if on.Sim.Now() != off.Sim.Now() {
		t.Fatalf("clocks diverged: %v vs %v", on.Sim.Now(), off.Sim.Now())
	}
}

func TestLatencyDecompositionTiles(t *testing.T) {
	// Acceptance bar: per-packet component spans sum to the measured
	// end-to-end latency within 1µs (they tile exactly, so 0 here).
	rep := runLatency(small(2))
	if rep.Value("delivered") == 0 {
		t.Fatal("no delivered journeys")
	}
	if err := rep.Value("tiling_max_err_us"); err > 1 {
		t.Fatalf("tiling error %.3fµs exceeds 1µs", err)
	}
	shares := rep.Value("share_queue") + rep.Value("share_interval_wait") +
		rep.Value("share_airtime") + rep.Value("share_retrans")
	if shares < 0.999 || shares > 1.001 {
		t.Fatalf("component shares sum to %v, want 1", shares)
	}
	if !strings.Contains(rep.String(), "hop 1") {
		t.Fatal("report lacks a waterfall")
	}
}

func TestJourneysSpanMultipleHops(t *testing.T) {
	nw := tracedRun(5, true)
	js := nw.Journeys()
	if len(js) == 0 {
		t.Fatal("no journeys reconstructed")
	}
	var delivered, multiHop int
	for _, j := range js {
		if !j.Delivered {
			continue
		}
		delivered++
		if len(j.Hops) >= 2 {
			multiHop++
		}
		if j.ComponentSum() != j.Latency() {
			t.Fatalf("pkt %x: components %v != latency %v",
				j.ID, j.ComponentSum(), j.Latency())
		}
		for _, h := range j.Hops {
			if h.Queue < 0 || h.IntervalWait < 0 || h.Airtime <= 0 || h.Retrans < 0 {
				t.Fatalf("pkt %x: bad hop %+v", j.ID, h)
			}
		}
	}
	if delivered == 0 || multiHop == 0 {
		t.Fatalf("delivered=%d multiHop=%d", delivered, multiHop)
	}
	d := trace.Decompose(js)
	if d.Delivered != delivered || d.Hops == 0 {
		t.Fatalf("decompose: %+v", d)
	}
}

func TestUnifiedRegistrySnapshot(t *testing.T) {
	nw := tracedRun(5, true)
	names := nw.Registry.Names()
	if len(names) < 15*4 { // 15 nodes × 4 subsystems + network-level
		t.Fatalf("registry has %d collectors", len(names))
	}
	samples := nw.Registry.Gather()
	byKey := make(map[string]float64)
	for _, s := range samples {
		byKey[s.Name+"{"+s.Label+"}"] = s.Value
	}
	// Registry values must agree with the Stats() sources they wrap.
	if got := byKey["net.conn_losses{}"]; got != float64(nw.ConnLosses()) {
		t.Fatalf("net.conn_losses %v != %d", got, nw.ConnLosses())
	}
	if got := byKey["nrf52dk-1.coap{requests_served}"]; got == 0 {
		t.Fatal("consumer served no requests according to the registry")
	}
	if got := byKey["net.trace{events_total}"]; got != float64(nw.Trace.Total()) {
		t.Fatalf("net.trace %v != %d", got, nw.Trace.Total())
	}
	var nd strings.Builder
	if err := nw.Registry.WriteNDJSON(&nd); err != nil {
		t.Fatal(err)
	}
	if strings.Count(nd.String(), "\n") != len(samples) {
		t.Fatal("NDJSON line count != sample count")
	}
}

// TestCounterLabels walks every Stats type whose fields the registry
// exports: each metric tag is a non-empty snake_case label, unique within
// its type, on a uint64 field, and CounterSamples exports exactly the
// tagged fields in field order.
func TestCounterLabels(t *testing.T) {
	snake := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	u64 := reflect.TypeOf(uint64(0))
	for _, st := range []any{coap.Stats{}, core.NetIfStats{}, ip6.StackStats{}, statconn.Stats{}, rpl.Stats{}} {
		typ := reflect.TypeOf(st)
		var labels []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			label, ok := f.Tag.Lookup("metric")
			if !ok {
				continue
			}
			if f.Type != u64 {
				t.Errorf("%v.%s: metric tag on a %v field, want uint64", typ, f.Name, f.Type)
			}
			if !snake.MatchString(label) {
				t.Errorf("%v.%s: label %q is not snake_case", typ, f.Name, label)
			}
			if slices.Contains(labels, label) {
				t.Errorf("%v.%s: label %q is taken by an earlier field", typ, f.Name, label)
			}
			labels = append(labels, label)
		}
		if len(labels) == 0 {
			t.Errorf("%v: no metric tags", typ)
		}
		var exported []string
		for _, s := range metrics.CounterSamples("x", st) {
			exported = append(exported, s.Label)
		}
		if !slices.Equal(exported, labels) {
			t.Errorf("%v: CounterSamples exports %v, tags name %v", typ, exported, labels)
		}
	}
}
