// Command pcbench regenerates the paper's tables and figures.
//
// Usage:
//
//	pcbench list                 # show available experiments
//	pcbench all                  # run everything
//	pcbench fig3 table2 ...      # run specific experiments
//	pcbench -csv fig5            # emit CSV instead of a table
//
// The repo's own performance is not measured here: that is
// `bash benchmark/run.sh`, compared across commits by cmd/benchdiff.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

// resolve turns the command line's experiment arguments into the ids to
// run, expanding "all" and rejecting any unknown id before the first
// experiment starts.
func resolve(args []string) ([]string, error) {
	known := map[string]bool{}
	var all []string
	for _, e := range bench.Experiments() {
		known[e.ID] = true
		if !e.Variant {
			all = append(all, e.ID)
		}
	}
	var ids []string
	for _, a := range args {
		switch {
		case a == "all":
			ids = append(ids, all...)
		case known[a]:
			ids = append(ids, a)
		default:
			return nil, fmt.Errorf("unknown experiment %q (see `pcbench list`)", a)
		}
	}
	return ids, nil
}

func main() {
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pcbench [-csv] <experiment>... | all | list\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if args[0] == "list" {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-20s %s\n", e.ID, e.Summary)
		}
		return
	}
	ids, err := resolve(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcbench: %v\n", err)
		os.Exit(2)
	}
	failed := false
	for _, id := range ids {
		rep, err := bench.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcbench: %v\n", err)
			failed = true
			continue
		}
		if *csv {
			fmt.Print(rep.CSV())
		} else {
			rep.Print(os.Stdout)
		}
	}
	if failed {
		os.Exit(1)
	}
}
