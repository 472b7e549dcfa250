// Command pclint runs the repo's invariant analyzers (internal/lint)
// over the module and exits nonzero on any unsuppressed diagnostic. It
// is wired into CI as a hard gate after staticcheck.
//
// The six analyzers and the invariants they machine-check — lockscope,
// pinbalance, maporder, ctxplumb, errtaxonomy, unreached — are
// documented in internal/lint and the README's "Static analysis"
// section. A false positive is silenced at the site with
//
//	//pclint:ignore <analyzer> <reason>
//
// on, or on the line above, the reported line; the reason is mandatory.
//
// Usage:
//
//	pclint [-only analyzer[,analyzer]] [-show-suppressed] [packages]
//
// Packages default to ./... and are passed to `go list` verbatim.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer subset (default: all)")
	showSuppressed := flag.Bool("show-suppressed", false, "also print suppressed diagnostics with their reasons")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pclint [-only a,b] [-show-suppressed] [packages]\nanalyzers: %s\n",
			strings.Join(lint.AnalyzerNames, ", "))
		flag.PrintDefaults()
	}
	flag.Parse()

	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pclint: %v\n", err)
		os.Exit(2)
	}
	prog, err := lint.Load(dir, flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pclint: %v\n", err)
		os.Exit(2)
	}
	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	diags, err := prog.Run(lint.DefaultConfig(), names...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pclint: %v\n", err)
		os.Exit(2)
	}

	for _, d := range diags {
		if !d.Suppressed || *showSuppressed {
			fmt.Println(d)
		}
	}
	if failing := len(lint.Unsuppressed(diags)); failing > 0 {
		fmt.Fprintf(os.Stderr, "pclint: %d unsuppressed diagnostic(s)\n", failing)
		os.Exit(1)
	}
}
