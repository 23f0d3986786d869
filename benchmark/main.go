// Command benchmark is the repository's one benchmark: four named
// workloads, six end-to-end metrics measured with tracing off, and a traced
// pass that reads every layer's counters from outside and times its
// exported functions. It claims nothing; later changes cite its metrics.
//
//	bash benchmark/run.sh -workload tree-paper -seed 1 -seconds 10 -trace 0
//	bash benchmark/run.sh -compare runsA runsB
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// maxProcs caps GOMAXPROCS: the reference host has two cores, and numbers
// taken with more threads would not compare with the baseline.
const maxProcs = 2

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: tree-paper, tree-overload, city-10k, mesh-churn, or all")
	seed := fs.Int64("seed", 1, "workload seed; repetition i of a workload uses seed+i")
	seconds := fs.Int("seconds", 10, "host seconds the measured span is sized for on the reference host (1-60)")
	traced := fs.Int("trace", 0, "0: tracing off, end-to-end metrics; 1: traced pass, per-layer metrics")
	out := fs.String("out", ".bench_out", "directory for the run's report and span files")
	compare := fs.Bool("compare", false, "compare two run sets: -compare A B, each a report file or a directory of reports")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two run sets")
			return 2
		}
		if err := compareSets(os.Stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds < 1 || *seconds > 60 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(nproc, maxProcs))

	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else if w := findWorkload(*name); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	for _, w := range selected {
		if w.lanes > nproc {
			fmt.Fprintf(os.Stderr, "benchmark: %s runs on %d worker lanes and this host has %d processors: refused, lanes would time-share\n",
				w.name, w.lanes, nproc)
			return 2
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	m := describeMachine()
	mj, _ := json.Marshal(m) // a struct of strings and ints cannot fail to marshal
	fmt.Printf("# machine %s\n", mj)

	code := 0
	for _, w := range selected {
		rep := buildReport(runWorkload(w, *seed, w.size(*seconds), *traced == 1), *seconds, m)
		base := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *traced))
		if rep.Traced {
			rep.SpanFile = base + ".spans.ndjson"
			if err := writeSpans(rep.SpanFile, rep.spans); err != nil {
				rep.Problems = append(rep.Problems, err.Error())
				rep.Correct = false
			}
		}
		if err := writeJSON(base+".json", rep); err != nil {
			rep.Problems = append(rep.Problems, err.Error())
			rep.Correct = false
		}
		rep.print(os.Stdout)
		line, _ := json.Marshal(rep.line()) // numbers and strings only
		fmt.Printf("%s\n", line)
		if !rep.Correct {
			code = 1
		}
	}
	return code
}
