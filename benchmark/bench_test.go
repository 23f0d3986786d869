package main

import (
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"testing"

	"blemesh/internal/sim"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// smoke is the test's size: one unit of about a simulated minute, the city
// at a tenth of its nodes, probes at a fiftieth of their iterations.
func smoke(w *workload) (*workload, size) {
	small := *w
	small.setups = 1
	sz := size{units: 1, span: sim.Minute, probeDiv: 50}
	if w.shared {
		sz.span, sz.nodes = 10*sim.Second, 1000
	}
	return &small, sz
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// sameSpecs checks that the benchmark emits exactly the metrics the file
// names, each with the file's unit, direction and bound.
func sameSpecs(t *testing.T, kind string, file, code []metricSpec, emitted map[string]metricValue) {
	t.Helper()
	if len(file) != len(code) {
		t.Errorf("%s: BENCHMARK.json names %d metrics, the benchmark %d", kind, len(file), len(code))
	}
	inFile := map[string]metricSpec{}
	for _, sp := range file {
		inFile[sp.Name] = sp
	}
	for _, sp := range code {
		if !nameRE.MatchString(sp.Name) {
			t.Errorf("%s: metric name %q is not well formed", kind, sp.Name)
		}
		f, ok := inFile[sp.Name]
		if !ok {
			t.Errorf("%s: %s is emitted but not in BENCHMARK.json", kind, sp.Name)
			continue
		}
		if f.Unit != sp.Unit || f.Better != sp.Better || f.Bound != sp.Bound {
			t.Errorf("%s: %s is %s/%s/%g in BENCHMARK.json, %s/%s/%g in the benchmark",
				kind, sp.Name, f.Unit, f.Better, f.Bound, sp.Unit, sp.Better, sp.Bound)
		}
		if v, ok := emitted[sp.Name]; !ok || v.Unit != sp.Unit {
			t.Errorf("%s: %s emitted as %+v (present %v), want unit %s", kind, sp.Name, v, ok, sp.Unit)
		}
		delete(inFile, sp.Name)
	}
	for name := range inFile {
		t.Errorf("%s: %s is in BENCHMARK.json but not emitted", kind, name)
	}
	if len(emitted) != len(code) {
		t.Errorf("%s: %d metrics on the contract line, want %d", kind, len(emitted), len(code))
	}
}

// simulated picks the end-to-end metrics that must repeat exactly.
func simulated(rep *report) map[string]float64 {
	out := map[string]float64{}
	for _, sp := range endToEnd {
		if sp.base == "simulated" {
			out[sp.Name] = rep.Metrics[sp.Name].Value
		}
	}
	return out
}

func TestSmoke(t *testing.T) {
	file := loadBenchmarkFile(t)
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark %d", len(file.Workloads), len(workloads))
	}
	m := describeMachine()
	for i, full := range workloads {
		full := full
		if fw := file.Workloads[i]; fw.Name != full.name || fw.Why != full.why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the benchmark", i, fw.Name, fw.Why, full.name, full.why)
		}
		if !nameRE.MatchString(full.name) || len(full.why) > 200 {
			t.Errorf("workload %q: name or reason out of the contract's limits", full.name)
		}
		t.Run(full.name, func(t *testing.T) {
			if full.lanes > runtime.NumCPU() {
				t.Skipf("%d worker lanes on %d processors", full.lanes, runtime.NumCPU())
			}
			w, sz := smoke(full)
			run := func(seed int64, traced bool) *report {
				rep := buildReport(runWorkload(w, seed, sz, traced), 1, m)
				if !rep.Correct {
					t.Fatalf("seed %d traced %v: %v", seed, traced, rep.Problems)
				}
				if l := rep.line(); !l.Correct || l.Failed != 0 || l.Attempted != rep.Ops || rep.Ops == 0 {
					t.Fatalf("seed %d: contract line %+v for %d ops", seed, l, rep.Ops)
				}
				return rep
			}
			a, b, other := run(7, false), run(7, false), run(8, false)
			sameSpecs(t, "end_to_end", file.EndToEnd, endToEnd, a.line().Metrics)
			if a.SimDigest != b.SimDigest || a.Ops != b.Ops || a.Lost != b.Lost {
				t.Errorf("same seed, different outcome: %s/%d/%d and %s/%d/%d",
					a.SimDigest, a.Ops, a.Lost, b.SimDigest, b.Ops, b.Lost)
			}
			if a.SimDigest == other.SimDigest {
				t.Errorf("seeds 7 and 8 share sim_digest %s", a.SimDigest)
			}
			sa, sb, so := simulated(a), simulated(b), simulated(other)
			differs := false
			for name, v := range sa {
				if v != sb[name] {
					t.Errorf("%s: %v and %v for one seed", name, v, sb[name])
				}
				if v <= 0 {
					t.Errorf("%s = %v, want positive", name, v)
				}
				differs = differs || v != so[name]
			}
			if !differs {
				t.Errorf("seeds 7 and 8 agree on every simulated metric: %v", sa)
			}
			for _, sp := range endToEnd {
				if v := a.Metrics[sp.Name].Value; v <= 0 {
					t.Errorf("%s = %v, want positive", sp.Name, v)
				}
			}

			tr := run(7, true)
			sameSpecs(t, "per_layer", file.PerLayer, perLayer, tr.line().Metrics)
			if tr.SimDigest != a.SimDigest {
				t.Errorf("traced run digest %s, plain run %s", tr.SimDigest, a.SimDigest)
			}
			if err := checkSpans(tr.spans); err != nil {
				t.Error(err)
			}
			// The full phase chain, each phase a descendant of the workload span.
			seen := map[string]bool{}
			for _, s := range tr.spans {
				seen[s.Name] = true
				if s.Workload != full.name {
					t.Errorf("span %d %s belongs to workload %q", s.ID, s.Name, s.Workload)
				}
				if (s.Parent < 0) != (s.Name == "workload") {
					t.Errorf("span %d %s has parent %d", s.ID, s.Name, s.Parent)
				}
			}
			for _, name := range []string{"workload", "unit", "testbed.generate", "exp.build", "exp.form",
				"exp.run", "exp.run.segment[0]", "sim.run", "stats.snapshot", "metrics.gather", "trace.export",
				"probe.sim.dispatch", "probe.coap.sink_exchange"} {
				if !seen[name] {
					t.Errorf("no %s span", name)
				}
			}
			if w.lanes > 1 && tr.Metrics["sim.lanes2_speedup"].Value <= 0 {
				t.Errorf("sim.lanes2_speedup = %v on a sharded workload", tr.Metrics["sim.lanes2_speedup"].Value)
			}
			if w.plan != nil && tr.Metrics["fault.events_executed"].Value <= 0 {
				t.Error("the fault plan executed nothing")
			}
		})
	}
}

func TestBenchmarkFileShape(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	setup := false
	for _, sp := range f.EndToEnd {
		if sp.Bound <= 0 || sp.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", sp.Name, sp.Bound)
		}
		setup = setup || (sp.Name == "setup_s" && sp.Unit == "s" && sp.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0]; statistics.median([3, 1, 2]) gives 2.
	v := []float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11}
	if q1, med, q3 := quantile(v, 0.25), median(v), quantile(v, 0.75); q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	if med := median([]float64{3, 1, 2}); med != 2 {
		t.Errorf("median = %v", med)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Better: "lower", Bound: 0.10}
	higher := metricSpec{Better: "higher", Bound: 0.10}
	floored := metricSpec{Better: "lower", Bound: 0.25, floor: 0.02}
	for _, c := range []struct {
		sp   metricSpec
		a, b []float64
		want string
	}{
		{lower, []float64{10, 10.1, 9.9}, []float64{10.5, 10.4, 10.6}, "ok"},
		{lower, []float64{10, 10.1, 9.9}, []float64{11.5, 11.4, 11.6}, "worse"},
		{lower, []float64{10, 14, 6}, []float64{10, 13, 7}, "unresolved"},
		{lower, []float64{10, 14, 8}, []float64{5, 7, 3}, "ok"},
		{higher, []float64{0.9, 0.91, 0.89}, []float64{0.7, 0.71, 0.69}, "worse"},
		{higher, []float64{0.9, 0.91, 0.89}, []float64{0.95, 0.96, 0.94}, "ok"},
		// 3 ms against 4 ms is a third worse, and under the floor.
		{floored, []float64{0.003, 0.0031, 0.0029}, []float64{0.004, 0.0042, 0.0038}, "ok"},
		{floored, []float64{4, 4.1, 3.9}, []float64{5.5, 5.4, 5.6}, "worse"},
	} {
		if got := verdict(c.sp, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.sp.Better, c.a, c.b, got, c.want)
		}
	}
}

func TestPairedVerdict(t *testing.T) {
	pdr := metricSpec{Better: "higher", floor: 0.002}
	rtt := metricSpec{Better: "lower", seedBound: 0.02}
	for _, c := range []struct {
		sp    metricSpec
		a, b  []float64
		want  string
		moved int
	}{
		{pdr, []float64{0.93, 0.80, 0.99}, []float64{0.93, 0.80, 0.99}, "ok", 0},
		// Seeds differ by far more than the bound; each against itself does not.
		{pdr, []float64{0.93, 0.80, 0.99}, []float64{0.929, 0.80, 0.991}, "ok", 2},
		{pdr, []float64{0.93, 0.80, 0.99}, []float64{0.92, 0.79, 0.99}, "worse", 2},
		{rtt, []float64{100, 200, 150}, []float64{101, 203, 152}, "ok", 3},
		{rtt, []float64{100, 200, 150}, []float64{104, 204, 154}, "worse", 3},
		{rtt, []float64{100, 200, 150}, []float64{90, 180, 140}, "ok", 3},
	} {
		if got, _, moved := pairedVerdict(c.sp, c.a, c.b); got != c.want || moved != c.moved {
			t.Errorf("pairedVerdict(%s, %v, %v) = %s with %d moved, want %s with %d",
				c.sp.Better, c.a, c.b, got, moved, c.want, c.moved)
		}
	}
}
