package exp

import (
	"fmt"
	"sort"
	"strings"

	"blemesh/internal/runner"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
)

// IntervalConfig names one connection-interval configuration of the
// Fig. 14/15 grid.
type IntervalConfig struct {
	Name   string
	Policy statconn.IntervalPolicy
}

// Fig14Configs returns the ten interval configurations of Fig. 14/15:
// five static intervals and five randomized windows.
func Fig14Configs() []IntervalConfig {
	ms := sim.Millisecond
	return []IntervalConfig{
		{"25", statconn.Static{Interval: 25 * ms}},
		{"50", statconn.Static{Interval: 50 * ms}},
		{"75", statconn.Static{Interval: 75 * ms}},
		{"100", statconn.Static{Interval: 100 * ms}},
		{"500", statconn.Static{Interval: 500 * ms}},
		{"[15:35]", statconn.Random{Min: 15 * ms, Max: 35 * ms}},
		{"[40:60]", statconn.Random{Min: 40 * ms, Max: 60 * ms}},
		{"[65:85]", statconn.Random{Min: 65 * ms, Max: 85 * ms}},
		{"[90:110]", statconn.Random{Min: 90 * ms, Max: 110 * ms}},
		{"[490:510]", statconn.Random{Min: 490 * ms, Max: 510 * ms}},
	}
}

// Fig15Producers returns the six producer intervals of the Appendix-B
// sweep.
func Fig15Producers() []sim.Duration {
	return []sim.Duration{100 * sim.Millisecond, 500 * sim.Millisecond,
		sim.Second, 5 * sim.Second, 10 * sim.Second, 30 * sim.Second}
}

// SweepConfig parameterises a parallel producer×interval sweep.
type SweepConfig struct {
	Options
	// Producers and Configs span the grid (defaults: the Fig. 15 grid).
	Producers []sim.Duration
	Configs   []IntervalConfig
	// Topology overrides the swept network layout (zero value: the paper's
	// tree). City-scale sweeps pass a generated geo/city topology here;
	// every grid cell then runs that same layout.
	Topology testbed.Topology
	// Progress, when non-nil, is called after each completed run with
	// (done, total) counts. Calls are serialised but arrive in completion
	// order; use it for display only.
	Progress func(done, total int)
}

// CellResult aggregates one grid cell (producer interval × interval
// configuration) across the sweep's replicate runs. The per-run slices are
// ordered by run index, so downstream statistics are independent of worker
// scheduling.
type CellResult struct {
	Producer sim.Duration
	Config   string
	// CoAP, LL, and RTT hold one value per run (CoAP PDR, link-layer PDR,
	// median RTT in seconds); Losses holds per-run connection losses.
	CoAP, LL, RTT, Losses []float64
}

// Key returns the cell's metric-key prefix ("p<producer>_i<config>").
func (c CellResult) Key() string { return fmt.Sprintf("p%v_i%s", c.Producer, c.Config) }

// TotalLosses sums connection losses across runs.
func (c CellResult) TotalLosses() float64 {
	t := 0.0
	for _, v := range c.Losses {
		t += v
	}
	return t
}

// RunSweep executes the grid across a pool of workers: one job
// per (producer, config, run) triple, each building and running its own
// hermetic seeded network. Cells are returned in grid order (producers
// outer, configs inner) with per-run metrics in run order, so the output
// is byte-identical for any worker count.
func RunSweep(sc SweepConfig) ([]CellResult, error) {
	sc.Options.defaults()
	if sc.Producers == nil {
		sc.Producers = Fig15Producers()
	}
	if sc.Configs == nil {
		sc.Configs = Fig14Configs()
	}
	if sc.Topology.Name == "" {
		sc.Topology = testbed.Tree()
	}
	dur := hour(sc.Options)
	runs := sc.Options.Runs
	nCells := len(sc.Producers) * len(sc.Configs)
	nJobs := nCells * runs

	type runMetrics struct {
		coap, ll, rtt, losses float64
	}
	results, err := runner.Map(nJobs, runner.Options{
		Workers:    sc.Options.Workers,
		OnProgress: sc.Progress,
	}, func(job int) (runMetrics, error) {
		cell, run := job/runs, job%runs
		pi := sc.Producers[cell/len(sc.Configs)]
		cfg := sc.Configs[cell%len(sc.Configs)]
		nw := runTopo(sc.Options, run, sc.Topology, cfg.Policy,
			TrafficConfig{Interval: pi, Jitter: pi / 2}, dur,
			func(c *NetworkConfig) { c.MaxPPM = 30 })
		return runMetrics{
			coap: nw.CoAPPDR().Rate(),
			ll:   nw.LLPDR(),
			// MergedRTTs is the one CDF of a single-site network (the
			// historical bytes) and the cross-site merge on generated
			// multi-site topologies.
			rtt:    nw.MergedRTTs().Median(),
			losses: float64(nw.ConnLosses()),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]CellResult, 0, nCells)
	for ci := 0; ci < nCells; ci++ {
		c := CellResult{
			Producer: sc.Producers[ci/len(sc.Configs)],
			Config:   sc.Configs[ci%len(sc.Configs)].Name,
		}
		for run := 0; run < runs; run++ {
			m := results[ci*runs+run]
			c.CoAP = append(c.CoAP, m.coap)
			c.LL = append(c.LL, m.ll)
			c.RTT = append(c.RTT, m.rtt)
			c.Losses = append(c.Losses, m.losses)
		}
		out = append(out, c)
	}
	return out, nil
}

// SweepText renders the grid exactly as blemesh-sweep prints it: per-cell
// summary lines in grid order, then a sorted "cell,metric,value" CSV.
// Factored into the library so tests can pin the command's output
// byte-for-byte against worker count and repetition.
func SweepText(cells []CellResult) string {
	var b strings.Builder
	values := map[string]float64{}
	for _, c := range cells {
		coap, coapCI := MeanCI95(c.CoAP)
		ll, llCI := MeanCI95(c.LL)
		rtt, rttCI := MeanCI95(c.RTT)
		fmt.Fprintf(&b, "producer %6v interval %-10s: LLPDR %.4f  CoAP %.4f  RTTmed %7.3fs  losses %d\n",
			c.Producer, c.Config, ll, coap, rtt, uint64(c.TotalLosses()))
		key := c.Key()
		values[key+"_coap"] = coap
		values[key+"_llpdr"] = ll
		values[key+"_rtt"] = rtt
		values[key+"_losses"] = c.TotalLosses()
		if len(c.CoAP) > 1 {
			values[key+"_coap_ci95"] = coapCI
			values[key+"_llpdr_ci95"] = llCI
			values[key+"_rtt_ci95"] = rttCI
			_, values[key+"_losses_ci95"] = MeanCI95(c.Losses)
		}
	}
	b.WriteString("\ncell,metric,value\n")
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		// Keys are "p<producer>_i<config>_<metric>"; the cell is the first
		// two "_"-separated fields.
		i1 := strings.Index(k, "_")
		i2 := i1 + 1 + strings.Index(k[i1+1:], "_")
		fmt.Fprintf(&b, "%s,%s,%g\n", k[:i2], k[i2+1:], values[k])
	}
	return b.String()
}
