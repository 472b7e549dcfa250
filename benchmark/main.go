// Command benchmark is the repository's benchmark of record: it starts
// the real HTTP server over a promptcache.Client on a loopback port,
// drives it with seeded workloads, checks the outputs, and reports
// client-observed TTFT, TPOT and throughput — plus, in a separate traced
// run, where each layer's time went. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	spans    string
	repeat   int
	dump     string
	workDir  string
}

func main() {
	if serveIfChild() {
		return
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and print the one-line JSON result last (default: every workload)")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed: the same seed generates byte-identical inputs")
	flag.IntVar(&o.seconds, "seconds", 0, "measured window per workload in seconds (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "0: timed end-to-end run; 1: traced per-layer run")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1: write the recorded spans to this JSON file")
	flag.IntVar(&o.repeat, "repeat", 1, "run the timed suite this many times and hold every pair of runs to each metric's bound")
	flag.StringVar(&o.dump, "dump-inputs", "", "write each workload's schemas, first requests and arrival schedule under this directory, and exit")
	flag.Parse()
	// Disk tiers of tiered workloads go where run.sh builds.
	o.workDir = filepath.Join(".bench_build", "tmp")
	if err := run(context.Background(), o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned, after everything was printed, when a run's
// outputs were wrong or an operation failed.
var errIncorrect = errors.New("outputs incorrect or operations failed; see the problems listed above")

func run(ctx context.Context, o options, out io.Writer) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = spec.RunSeconds
	}
	return runSuite(ctx, o, fullPlan(o.seconds), spec, out)
}

// runSuite runs the selected workloads under a plan and prints their
// reports.
func runSuite(ctx context.Context, o options, pl plan, spec *benchSpec, out io.Writer) (err error) {
	selected := workloads(pl.scale)
	if o.workload != "" {
		wl := workloadByName(o.workload, pl.scale)
		if wl == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []*workloadSpec{wl}
	}
	lx := newLexicon()
	if o.dump != "" {
		for _, wl := range selected {
			if err := newGenerator(o.seed, wl, lx).dumpInputs(o.dump, 256, pl.window); err != nil {
				return err
			}
		}
		return nil
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	if o.workDir, err = filepath.Abs(o.workDir); err != nil {
		return err
	}

	if o.trace != 0 {
		return runTracedSuite(ctx, o, pl, spec, selected, lx, out)
	}
	correct := true
	var suites [][]*runReport
	for n := 0; n < o.repeat; n++ {
		var suite []*runReport
		for _, wl := range selected {
			rep, err := runTimed(ctx, wl, o.seed, pl, lx, o.workDir)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			if err := checkDeclared(rep.Metrics, spec.EndToEnd); err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			printTimed(out, spec, rep)
			correct = correct && rep.correct()
			suite = append(suite, rep)
		}
		suites = append(suites, suite)
	}
	if o.repeat > 1 && !printAgreement(out, spec, suites) {
		correct = false
	}
	if o.workload != "" {
		rep := suites[len(suites)-1][0]
		if err := printResultLine(out, &rep.ledger, pickDeclared(rep.Metrics, spec.EndToEnd)); err != nil {
			return err
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

func runTracedSuite(ctx context.Context, o options, pl plan, spec *benchSpec, selected []*workloadSpec, lx *lexicon, out io.Writer) error {
	correct := true
	var last *layerReport
	var spans []span
	for _, wl := range selected {
		rep, err := runTraced(ctx, wl, o.seed, pl, lx, o.workDir)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		if err := checkDeclared(rep.Metrics, spec.PerLayer); err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		printTraced(out, spec, rep)
		correct = correct && rep.correct()
		spans = append(spans, rep.spans...)
		last = rep
	}
	if o.spans != "" {
		b, err := json.Marshal(spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.spans, b, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d spans to %s\n", len(spans), o.spans)
	}
	if o.workload != "" {
		if err := printResultLine(out, &last.ledger, pickDeclared(last.Metrics, spec.PerLayer)); err != nil {
			return err
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// printResultLine prints the driver's contract: one JSON object, last on
// standard output.
func printResultLine(out io.Writer, l *ledger, metrics map[string]metric) error {
	attempted, failed := l.attempted()
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{l.correct(), attempted, failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
