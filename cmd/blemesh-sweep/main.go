// Command blemesh-sweep runs the Appendix-B parameter sweep (Fig. 15): six
// producer intervals × ten connection-interval configurations, each
// repeated, fanned across a pool of workers, and prints the
// aggregated grid as CSV for plotting.
//
// Usage:
//
//	blemesh-sweep [-scale F] [-runs N] [-seed N] [-workers N]
//	              [-producers 100,1000] [-intervals "25,75,[65:85]"]
//	              [-topo tree|line|mesh|forest|geo|city|floors] [-nodes N]
//	              [-range M] [-shards N] [-progress]
//
// At -scale 1 -runs 5 this is the paper's full 300 simulated hours. The
// output is byte-identical for every -workers value; only wall-clock time
// changes.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"blemesh"
	"blemesh/internal/prof"
	"blemesh/internal/testbed"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	scale := flag.Float64("scale", 0.1, "duration scale (1.0 = 1h per run)")
	runs := flag.Int("runs", 1, "repetitions per configuration (paper: 5)")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "worker lanes executing the RF-isolated sites of each run (0 and 1: one lane; output is the same for every value)")
	topoName := flag.String("topo", "tree", "swept topology: tree (the paper's), line, mesh, forest, or a seeded generator: geo, city, floors")
	nodes := flag.Int("nodes", 60, "node count for -topo geo")
	radioRange := flag.Float64("range", 0, "disk radio range in meters for generated topologies (0 = generator default)")
	producersFlag := flag.String("producers", "", "comma-separated producer intervals in ms (default: full Fig. 15 grid)")
	intervalsFlag := flag.String("intervals", "", "comma-separated interval config names, e.g. 25,75,[65:85] (default: all ten)")
	progress := flag.Bool("progress", false, "report per-run progress on stderr")
	pf := prof.Register(flag.CommandLine)
	flag.Parse()
	for _, err := range []error{
		blemesh.NetworkConfig{Shards: *shards}.Validate(),
		blemesh.ValidateRunFlags(*scale, *runs, *workers),
		blemesh.ValidateFlags(*nodes, *radioRange, 1), // no -minutes flag: the sweep's length is -scale
	} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "blemesh-sweep:", err)
			os.Exit(2)
		}
	}
	defer pf.Start()()

	producers, err := parseProducers(*producersFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	configs, err := parseIntervals(*intervalsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The zero-value Topology tells RunSweep to use its tree default.
	var topo blemesh.Topology
	if *topoName != "tree" {
		if topo, err = testbed.ByName(*topoName, *seed, *nodes, *radioRange); err == nil {
			err = blemesh.ValidateTopology(topo)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "blemesh-sweep:", err)
			os.Exit(2)
		}
	}

	sc := blemesh.SweepConfig{
		Options: blemesh.Options{
			Seed: *seed, Scale: *scale, Runs: *runs,
			Workers: *workers, Shards: *shards,
		},
		Producers: producers,
		Configs:   configs,
		Topology:  topo,
	}
	if *progress {
		sc.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d runs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	cells, err := blemesh.RunSweep(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Per-cell summary lines, then a CSV of the grid for external
	// plotting. SweepText emits keys in sorted order, so the bytes are
	// reproducible run-to-run and worker-count-to-worker-count.
	out := bufio.NewWriter(os.Stdout)
	out.WriteString(blemesh.SweepText(cells))
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "blemesh-sweep:", err)
		os.Exit(1)
	}
}

// parseProducers parses "100,1000" (milliseconds) into durations; an empty
// flag selects the full Fig. 15 producer set.
func parseProducers(s string) ([]blemesh.Duration, error) {
	if s == "" {
		return nil, nil
	}
	var out []blemesh.Duration
	for _, f := range strings.Split(s, ",") {
		ms, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || ms <= 0 {
			return nil, fmt.Errorf("blemesh-sweep: bad producer interval %q (want ms)", f)
		}
		d := blemesh.Duration(ms) * blemesh.Millisecond
		if slices.Contains(out, d) {
			return nil, fmt.Errorf("blemesh-sweep: producer interval %d ms given twice", ms)
		}
		out = append(out, d)
	}
	return out, nil
}

// parseIntervals selects interval configurations from the Fig. 14 set by
// name; an empty flag selects all ten.
func parseIntervals(s string) ([]blemesh.IntervalConfig, error) {
	if s == "" {
		return nil, nil
	}
	all := blemesh.Fig14Configs()
	var out []blemesh.IntervalConfig
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		named := func(c blemesh.IntervalConfig) bool { return c.Name == name }
		i := slices.IndexFunc(all, named)
		if i < 0 {
			names := make([]string, len(all))
			for i, c := range all {
				names[i] = c.Name
			}
			return nil, fmt.Errorf("blemesh-sweep: unknown interval config %q (have: %s)",
				name, strings.Join(names, " "))
		}
		if slices.ContainsFunc(out, named) {
			return nil, fmt.Errorf("blemesh-sweep: interval config %q given twice", name)
		}
		out = append(out, all[i])
	}
	return out, nil
}
