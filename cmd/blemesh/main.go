// Command blemesh runs the reproduction experiments: one per table and
// figure of "Mind the Gap: Multi-hop IPv6 over BLE in the IoT".
//
// Usage:
//
//	blemesh list
//	blemesh run <experiment-id> [-seed N] [-scale F] [-runs N] [-workers N]
//	            [-shards N] [-values]
//	blemesh all [-scale F]
//
// Scale 1.0 regenerates the paper-length runs (1h per configuration, 24h
// for fig13); smaller scales shorten every run proportionally, preserving
// the qualitative shape.
package main

import (
	"bufio"
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
	out := bufio.NewWriter(os.Stdout)
	switch os.Args[1] {
	case "list":
		list(out)
	case "run":
		run(out, os.Args[2:])
	case "all":
		all(out, os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	flush(out)
	if os.Args[1] != "list" {
		// The GC footer goes to stderr: heap numbers vary across runtimes
		// and would break the byte-identical stdout guarantee.
		fmt.Fprintln(os.Stderr, blemesh.GCFooter())
	}
}

// flush writes out what stdout has buffered: output that cannot be
// written fails the run.
func flush(out *bufio.Writer) {
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "blemesh:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  blemesh list                                   list experiments
  blemesh run <id> [-seed N] [-scale F] [-runs N] [-workers N] [-shards N] [-values]
  blemesh all [-scale F] [-seed N] [-workers N] [-shards N]  run everything`)
}

func list(out *bufio.Writer) {
	fmt.Fprintf(out, "%-9s %-22s %s\n", "ID", "PAPER ARTIFACT", "TITLE")
	for _, e := range blemesh.Experiments() {
		fmt.Fprintf(out, "%-9s %-22s %s\n", e.ID, e.Figure, e.Title)
	}
}

func run(out *bufio.Writer, args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	scale := fs.Float64("scale", 1.0, "duration scale (1.0 = paper length)")
	runs := fs.Int("runs", 1, "repetitions (paper: 5)")
	workers := fs.Int("workers", 0, "parallel workers for repeated/swept experiments (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 0, shardsHelp)
	values := fs.Bool("values", false, "also print the key-number table")
	pf := prof.Register(fs)
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	id := args[0]
	_ = fs.Parse(args[1:])
	validate(blemesh.NetworkConfig{Shards: *shards}.Validate())
	validate(blemesh.ValidateRunFlags(*scale, *runs, *workers))
	defer pf.Start()()
	rep, err := blemesh.RunExperiment(id, blemesh.Options{
		Seed: *seed, Scale: *scale, Runs: *runs, Workers: *workers, Shards: *shards,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	out.WriteString(rep.String())
	if *values {
		out.WriteString("-- key numbers --\n")
		out.WriteString(rep.ValuesTable())
	}
}

// shardsHelp describes the -shards flag of run and all.
const shardsHelp = "worker lanes executing the RF-isolated sites of a run (0 and 1: one lane; output is the same for every value)"

// validate exits 2 with a one-line message when the flags ask for a network
// that cannot be built or a run the runners would silently replace.
func validate(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "blemesh:", err)
		os.Exit(2)
	}
}

func all(out *bufio.Writer, args []string) {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	scale := fs.Float64("scale", 1.0, "duration scale")
	workers := fs.Int("workers", 0, "parallel workers for repeated/swept experiments (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 0, shardsHelp)
	pf := prof.Register(fs)
	_ = fs.Parse(args)
	validate(blemesh.NetworkConfig{Shards: *shards}.Validate())
	validate(blemesh.ValidateRunFlags(*scale, 1, *workers))
	defer pf.Start()()
	for _, e := range blemesh.Experiments() {
		rep, err := blemesh.RunExperiment(e.ID, blemesh.Options{Seed: *seed, Scale: *scale, Workers: *workers, Shards: *shards})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		out.WriteString(rep.String() + "\n")
		flush(out)
	}
}
