// Command dls-bench regenerates every experiment in the paper
// reproduction (E1…E12): the three execution-diagram figures and the
// empirical checks of every theorem and lemma. See DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for the recorded results.
//
// Usage:
//
//	dls-bench               # run everything
//	dls-bench -id E6        # run one experiment
//	dls-bench -seed 7       # change the reproducibility seed
//	dls-bench -list         # list experiments
//	dls-bench -trace        # canned faulty multiload run → TRACE.json (chrome://tracing)
//
// Performance is measured by perfbench (bash perfbench/run.sh) and the
// go test -bench benchmarks, not by this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"dlsbl/internal/experiments"
)

func main() {
	id := flag.String("id", "", "run only this experiment (E1…E12, X1…)")
	seed := flag.Int64("seed", 42, "seed for randomized experiments")
	list := flag.Bool("list", false, "list experiments and exit")
	format := flag.String("format", "text", "output format: text or csv")
	outPath := flag.String("o", "", "write output to this file instead of stdout")
	parallel := flag.Bool("parallel", false, "run experiments concurrently (results still print in order)")
	traceBench := flag.Bool("trace", false, "run a canned faulty multiload session and write a Chrome trace to TRACE.json (honors -o)")
	flag.Parse()

	if *traceBench {
		path := "TRACE.json"
		if *outPath != "" {
			path = *outPath
		}
		if err := runTraceBench(*seed, path); err != nil {
			fmt.Fprintf(os.Stderr, "dls-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "dls-bench: unknown format %q (want text or csv)\n", *format)
		os.Exit(2)
	}
	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dls-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var toRun []experiments.Experiment
	if *id != "" {
		e, ok := experiments.ByID(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "dls-bench: unknown experiment %q (use -list)\n", *id)
			os.Exit(2)
		}
		toRun = []experiments.Experiment{e}
	} else {
		toRun = experiments.All()
	}

	type slot struct {
		res experiments.Result
		err error
	}
	results := make([]slot, len(toRun))
	if *parallel {
		var wg sync.WaitGroup
		for i, e := range toRun {
			wg.Add(1)
			go func(i int, e experiments.Experiment) {
				defer wg.Done()
				results[i].res, results[i].err = e.Run(*seed)
			}(i, e)
		}
		wg.Wait()
	} else {
		for i, e := range toRun {
			results[i].res, results[i].err = e.Run(*seed)
		}
	}
	for i, e := range toRun {
		if results[i].err != nil {
			fmt.Fprintf(os.Stderr, "dls-bench: %s failed: %v\n", e.ID, results[i].err)
			os.Exit(1)
		}
		switch *format {
		case "csv":
			fmt.Fprintln(out, results[i].res.CSV())
		default:
			fmt.Fprintln(out, results[i].res.String())
		}
	}
}
