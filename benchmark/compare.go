package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// loadSet reads a run set: one report file, or every *.json report in a
// directory. Traced reports carry no end-to-end metrics and are skipped.
func loadSet(path string) ([]*report, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var set []*report
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rep := &report{}
		if err := json.Unmarshal(b, rep); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if rep.Workload != "" && !rep.Traced {
			set = append(set, rep)
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s holds no untraced run report", path)
	}
	return set, nil
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	return ratio(quantile(v, 0.75)-quantile(v, 0.25), median(v))
}

// worseBy is how much worse y reads than x: positive when y is the worse.
func (sp metricSpec) worseBy(x, y float64) float64 {
	if sp.Better == "higher" {
		return x - y
	}
	return y - x
}

// verdict applies the regression rule to two sets of runs of one metric on
// one workload: the change's median may not be worse than the parent's by
// more than the bound (or the floor, where that is larger); where either
// side's own spread is wider than that, the question is unresolved, unless
// every run of the change beats every run of the parent.
func verdict(sp metricSpec, a, b []float64) string {
	ma, mb := median(a), median(b)
	allow := max(sp.Bound*ma, sp.floor)
	if spread(a)*ma > allow || spread(b)*mb > allow {
		for _, x := range a {
			for _, y := range b {
				if sp.worseBy(x, y) >= 0 {
					return "unresolved"
				}
			}
		}
		return "ok"
	}
	if sp.worseBy(ma, mb) > allow {
		return "worse"
	}
	return "ok"
}

// pairedVerdict applies the rule to a paired metric on runs paired by seed.
// One seed gives one outcome, so there is no spread to resolve and the tight
// per-seed bound applies: the median of the paired differences may not be
// worse than it. moved counts the seeds whose reading changed at all.
func pairedVerdict(sp metricSpec, a, b []float64) (v string, medianWorse float64, moved int) {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = sp.worseBy(a[i], b[i])
		if d[i] != 0 {
			moved++
		}
	}
	medianWorse = median(d)
	if medianWorse > max(sp.seedBound*median(a), sp.floor) {
		return "worse", medianWorse, moved
	}
	return "ok", medianWorse, moved
}

func boundText(share, floor float64, unit string) string {
	switch {
	case share == 0:
		return fmt.Sprintf("%g %s", floor, unit)
	case floor == 0:
		return fmt.Sprintf("%g%% of A's median", 100*share)
	}
	return fmt.Sprintf("%g%% of A's median or %g %s, whichever is larger", 100*share, floor, unit)
}

type runKey struct {
	workload string
	seed     int64
}

// compareSets prints, per end-to-end metric, one row per workload: both
// medians, the ratio B/A, the bound and the verdict. Host times compare the
// two sets' medians under the wide bounds of BENCHMARK.json; paired metrics
// (the simulated ones and the live heap) are compared seed by seed under
// the tight per-seed bounds. Last comes, per workload, whether the simulated
// outcome (sim_digest, ops, lost) is identical on the shared seeds and
// whether more operations were lost.
func compareSets(w io.Writer, pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	for _, rep := range append(append([]*report{}, a...), b...) {
		if rep.Seconds != a[0].Seconds {
			return fmt.Errorf("runs of -seconds %d and %d measure different work and cannot be compared", a[0].Seconds, rep.Seconds)
		}
	}
	inA := map[runKey]*report{}
	for _, rep := range a {
		inA[runKey{rep.Workload, rep.Seed}] = rep
	}
	// pairs[workload] holds, for every seed in both sets, A's run and B's.
	pairs := map[string][][2]*report{}
	for _, rb := range b {
		if ra := inA[runKey{rb.Workload, rb.Seed}]; ra != nil {
			pairs[rb.Workload] = append(pairs[rb.Workload], [2]*report{ra, rb})
		}
	}

	fmt.Fprintf(w, "A = %s (%d runs), B = %s (%d runs), -seconds %d; ratios are B/A, base A\n", pathA, len(a), pathB, len(b), a[0].Seconds)
	for _, sp := range endToEnd {
		if sp.paired {
			fmt.Fprintf(w, "\n%s (%s, %s, %s is better; paired by seed, bound %s)\n",
				sp.Name, sp.Unit, sp.base, sp.Better, boundText(sp.seedBound, sp.floor, sp.Unit))
			for _, wl := range workloads {
				var va, vb []float64
				for _, p := range pairs[wl.name] {
					va = append(va, p[0].Metrics[sp.Name].Value)
					vb = append(vb, p[1].Metrics[sp.Name].Value)
				}
				if len(va) == 0 {
					fmt.Fprintf(w, "  %-14s no seed in both sets\n", wl.name)
					continue
				}
				v, worse, moved := pairedVerdict(sp, va, vb)
				fmt.Fprintf(w, "  %-14s A %.6g   B %.6g   B/A %.4f   %d seeds, %d moved, median worse by %.6g   %s\n",
					wl.name, median(va), median(vb), ratio(median(vb), median(va)), len(va), moved, worse, v)
			}
			continue
		}
		fmt.Fprintf(w, "\n%s (%s, %s, %s is better; bound %s)\n",
			sp.Name, sp.Unit, sp.base, sp.Better, boundText(sp.Bound, sp.floor, sp.Unit))
		for _, wl := range workloads {
			va, vb := metricValues(a, wl.name, sp.Name), metricValues(b, wl.name, sp.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			am, bm := median(va), median(vb)
			fmt.Fprintf(w, "  %-14s A %.6g [%.6g, %.6g] n=%d   B %.6g [%.6g, %.6g] n=%d   B/A %.4f   %s\n",
				wl.name, am, quantile(va, 0.25), quantile(va, 0.75), len(va),
				bm, quantile(vb, 0.25), quantile(vb, 0.75), len(vb), ratio(bm, am), verdict(sp, va, vb))
		}
	}

	fmt.Fprintf(w, "\nsimulated outcome per workload, on the seeds in both sets (sim_digest, ops, lost)\n")
	for _, wl := range workloads {
		ps := pairs[wl.name]
		if len(ps) == 0 {
			fmt.Fprintf(w, "  %-14s no seed in both sets\n", wl.name)
			continue
		}
		differ := 0
		var opsA, opsB, lostA, lostB uint64
		for _, p := range ps {
			ra, rb := p[0], p[1]
			opsA, opsB, lostA, lostB = opsA+ra.Ops, opsB+rb.Ops, lostA+ra.Lost, lostB+rb.Lost
			if ra.SimDigest != rb.SimDigest || ra.Ops != rb.Ops || ra.Lost != rb.Lost {
				differ++
				fmt.Fprintf(w, "  %-14s seed %d DIFFERS: digest %.12s / %.12s, ops %d / %d, lost %d / %d\n",
					wl.name, rb.Seed, ra.SimDigest, rb.SimDigest, ra.Ops, rb.Ops, ra.Lost, rb.Lost)
			}
		}
		switch {
		case differ == 0:
			fmt.Fprintf(w, "  %-14s identical on all %d shared seeds: ops %d, lost %d\n", wl.name, len(ps), opsA, lostA)
		case ratio(float64(lostB), float64(opsB)) > ratio(float64(lostA), float64(opsA)):
			fmt.Fprintf(w, "  %-14s MORE OPERATIONS FAIL: lost %d of %d in A, %d of %d in B; a gain on this workload does not count\n",
				wl.name, lostA, opsA, lostB, opsB)
		default:
			fmt.Fprintf(w, "  %-14s differs on %d of %d shared seeds: lost %d of %d in A, %d of %d in B\n",
				wl.name, differ, len(ps), lostA, opsA, lostB, opsB)
		}
	}
	return nil
}

func metricValues(set []*report, workload, metric string) []float64 {
	var v []float64
	for _, rep := range set {
		if rep.Workload == workload {
			v = append(v, rep.Metrics[metric].Value)
		}
	}
	return v
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the p-quantile of v by the exclusive method, position
// p × (n+1) among the order statistics, so that quantile(v, 0.25), median(v)
// and quantile(v, 0.75) are what Python's statistics.quantiles(v, n=4) and
// statistics.median give: the acceptance rule for this benchmark's bounds is
// stated in those. An empty sample reads 0.
func quantile(v []float64, p float64) float64 {
	n := len(v)
	if n < 2 {
		if n == 0 {
			return 0
		}
		return v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(n+1)
	j := min(max(int(pos), 1), n-1)
	f := pos - float64(j)
	return s[j-1]*(1-f) + s[j]*f
}
