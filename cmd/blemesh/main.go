// Command blemesh runs the reproduction experiments: one per table and
// figure of "Mind the Gap: Multi-hop IPv6 over BLE in the IoT".
//
// Usage:
//
//	blemesh list
//	blemesh run <experiment-id> [-seed N] [-scale F] [-runs N] [-workers N]
//	            [-engine wheel|heap] [-values]
//	blemesh all [-scale F]
//
// Scale 1.0 regenerates the paper-length runs (1h per configuration, 24h
// for fig13); smaller scales shorten every run proportionally, preserving
// the qualitative shape.
package main

import (
	"flag"
	"fmt"
	"os"

	"blemesh"
	"blemesh/internal/prof"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		list()
	case "run":
		run(os.Args[2:])
	case "all":
		all(os.Args[2:])
	case "trace":
		traceRun(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  blemesh list                                   list experiments
  blemesh run <id> [-seed N] [-scale F] [-runs N] [-workers N] [-engine wheel|heap] [-shards N] [-values]
  blemesh all [-scale F] [-seed N] [-workers N] [-shards N]  run everything
  blemesh trace [-topo tree|line|mesh|forest|geo|city|floors] [-nodes N] [-range M] [-lean]
                [-minutes N] [-seed N] [-node NAME] [-routing static|dynamic] [-shards N]
                                                 dump the link event log of a run`)
}

func list() {
	fmt.Printf("%-9s %-22s %s\n", "ID", "PAPER ARTIFACT", "TITLE")
	for _, e := range blemesh.Experiments() {
		fmt.Printf("%-9s %-22s %s\n", e.ID, e.Figure, e.Title)
	}
}

func run(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	scale := fs.Float64("scale", 1.0, "duration scale (1.0 = paper length)")
	runs := fs.Int("runs", 1, "repetitions (paper: 5)")
	workers := fs.Int("workers", 0, "parallel workers for repeated/swept experiments (0 = GOMAXPROCS)")
	engineName := fs.String("engine", "wheel", "sim event-queue engine: wheel or heap")
	shards := fs.Int("shards", 0, shardsHelp)
	values := fs.Bool("values", false, "also print the key-number table")
	exact := fs.Bool("exact", false, "use the exact CDF backend instead of the quantile sketch")
	pf := prof.Register(fs)
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	id := args[0]
	_ = fs.Parse(args[1:])
	validate(blemesh.NetworkConfig{Shards: *shards})
	blemesh.SetExactCDF(*exact)
	defer pf.Start()()
	engine, err := blemesh.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rep, err := blemesh.RunExperiment(id, blemesh.Options{
		Seed: *seed, Scale: *scale, Runs: *runs, Workers: *workers, Engine: engine,
		Shards: *shards,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(rep.String())
	if *values {
		fmt.Println("-- key numbers --")
		fmt.Print(rep.ValuesTable())
	}
	// The GC footer goes to stderr: heap numbers vary across runtimes and
	// would break the byte-identical stdout guarantee.
	fmt.Fprintln(os.Stderr, blemesh.GCFooter())
}

// shardsHelp describes the -shards flag of run, trace and all.
const shardsHelp = "worker lanes executing the RF-isolated sites of a run (0 and 1: one lane; output is the same for every value)"

// parseTopo resolves a -topo flag value into a topology: the paper's fixed
// layouts, or one of the seeded city-scale generators (geo honours -nodes;
// all three honour -range, 0 keeping each generator's default).
func parseTopo(name string, seed int64, nodes int, radioRange float64) (blemesh.Topology, error) {
	switch name {
	case "tree":
		return blemesh.Tree(), nil
	case "line":
		return blemesh.Line(), nil
	case "mesh":
		return blemesh.Mesh(), nil
	case "forest":
		return blemesh.Forest(4), nil
	case "geo":
		return blemesh.RandomGeometric(blemesh.GeoConfig{
			Seed: seed, N: nodes, Range: radioRange}), nil
	case "city":
		return blemesh.CityBlocks(blemesh.CityConfig{
			Seed: seed, Range: radioRange}), nil
	case "floors":
		return blemesh.BuildingFloors(blemesh.FloorsConfig{
			Seed: seed, Range: radioRange}), nil
	}
	return blemesh.Topology{}, fmt.Errorf(
		"unknown topology %q (tree, line, mesh, forest, geo, city, or floors)", name)
}

// validate exits 2 with a one-line message when the flags ask for a network
// that cannot be built.
func validate(cfg blemesh.NetworkConfig) {
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "blemesh:", err)
		os.Exit(2)
	}
}

func traceRun(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	topoName := fs.String("topo", "tree", "tree, line, mesh, forest (4 isolated trees), geo, city, or floors")
	minutes := fs.Int("minutes", 10, "simulated minutes")
	seed := fs.Int64("seed", 1, "simulation seed")
	node := fs.String("node", "", "restrict to one node name")
	routingName := fs.String("routing", "static", "routing plane: static or dynamic (RPL-lite)")
	shards := fs.Int("shards", 0, shardsHelp)
	nodes := fs.Int("nodes", 60, "node count for -topo geo")
	radioRange := fs.Float64("range", 0, "disk radio range in meters for generated topologies (0 = generator default)")
	lean := fs.Bool("lean", false, "lean metrics + sparse sink-tree routes (the city-scale mode; required well before 10k nodes)")
	_ = fs.Parse(args)
	if err := blemesh.ValidateFlags(*nodes, *radioRange, *minutes); err != nil {
		fmt.Fprintln(os.Stderr, "blemesh:", err)
		os.Exit(2)
	}
	topo, err := parseTopo(*topoName, *seed, *nodes, *radioRange)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	routing, err := blemesh.ParseRouting(*routingName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := blemesh.NetworkConfig{
		Seed:         *seed,
		Topology:     topo,
		JamChannel22: true,
		Trace:        true,
		Routing:      routing,
		Shards:       *shards,
		Lean:         *lean,
		SparseRoutes: *lean,
	}
	validate(cfg)
	nw := blemesh.BuildNetwork(cfg)
	nw.WaitTopology(60 * blemesh.Second)
	if routing == blemesh.RoutingDynamic && !nw.WaitConverged(120*blemesh.Second) {
		fmt.Fprintln(os.Stderr, "warning: DODAG did not converge within 120s; tracing anyway")
	}
	nw.StartTraffic(blemesh.TrafficConfig{})
	nw.Run(blemesh.Duration(*minutes) * blemesh.Minute)
	fmt.Print(nw.Trace.Render(*node))
	pdr := nw.CoAPPDR()
	fmt.Printf("-- %d events total; CoAP PDR %.4f; %d connection losses --\n",
		nw.Trace.Total(), pdr.Rate(), nw.ConnLosses())
}

func all(args []string) {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	scale := fs.Float64("scale", 1.0, "duration scale")
	workers := fs.Int("workers", 0, "parallel workers for repeated/swept experiments (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 0, shardsHelp)
	exact := fs.Bool("exact", false, "use the exact CDF backend instead of the quantile sketch")
	pf := prof.Register(fs)
	_ = fs.Parse(args)
	validate(blemesh.NetworkConfig{Shards: *shards})
	blemesh.SetExactCDF(*exact)
	defer pf.Start()()
	for _, e := range blemesh.Experiments() {
		rep, err := blemesh.RunExperiment(e.ID, blemesh.Options{Seed: *seed, Scale: *scale, Workers: *workers, Shards: *shards})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(rep.String())
		fmt.Println()
	}
	fmt.Fprintln(os.Stderr, blemesh.GCFooter())
}
