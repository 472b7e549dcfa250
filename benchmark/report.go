package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/promptcache"
)

// runner stamps every report with where it ran, so numbers from
// different machines are never compared silently.
type runner struct {
	CPUArch, Vector   string
	Cores, MaxProcs   int
	Backend           string
	Workers           int
	GoVersion, Commit string
	Seed              uint64
	Clients           int
}

// runnerOf reads the server's own account of its hardware and backend
// (the backend block of /v1/stats, which is hw.DetectCPU plus the chosen
// kernel backend) and adds what this process knows.
func runnerOf(seed uint64, snap promptcache.Snapshot) runner {
	r := runner{
		CPUArch: snap.Backend.CPUArch, Cores: snap.Backend.CPUCores, MaxProcs: snap.Backend.MaxProcs,
		Vector: snap.Backend.Vector, Backend: snap.Backend.Name, Workers: snap.Backend.Workers,
		GoVersion: runtime.Version(), Commit: "unknown", Seed: seed, Clients: clientCount(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				r.Commit = s.Value
			}
		}
	}
	return r
}

func (r runner) String() string {
	return fmt.Sprintf("%s (%s), %d cores, GOMAXPROCS=%d; backend %s, %d workers; %s; commit %s; seed %d; clients %d",
		r.CPUArch, r.Vector, r.Cores, r.MaxProcs, r.Backend, r.Workers, r.GoVersion, r.Commit, r.Seed, r.Clients)
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func printLedger(out io.Writer, l *ledger) {
	for _, p := range l.Phases {
		fmt.Fprintf(out, "  phase %-18s attempted %5d  succeeded %5d  failed %d\n", p.Phase, p.Attempted, p.Succeeded, p.Failed)
	}
	for _, p := range l.Problems {
		fmt.Fprintf(out, "  PROBLEM %s\n", p)
	}
}

// printTimed prints one timed run: the declared end-to-end metrics with
// unit, direction, bound and sample count, then the diagnostics, then
// the per-phase ledger.
func printTimed(out io.Writer, spec *benchSpec, rep *runReport) {
	fmt.Fprintf(out, "\n== %s (timed)\n  runner: %s\n", rep.Workload, rep.Runner)
	declared := map[string]bool{}
	for _, d := range spec.EndToEnd {
		declared[d.Name] = true
		m := rep.Metrics[d.Name]
		samples := ""
		if n, ok := rep.Samples[d.Name]; ok {
			samples = fmt.Sprintf("n=%d", n)
		}
		fmt.Fprintf(out, "  %-22s %14.4f %-6s %-7s better=%-6s bound=%.2f\n", d.Name, m.Value, m.Unit, samples, d.Better, d.Bound)
	}
	for _, name := range sortedNames(rep.Metrics) {
		if declared[name] {
			continue
		}
		m := rep.Metrics[name]
		samples := ""
		if n, ok := rep.Samples[name]; ok {
			samples = fmt.Sprintf("n=%d", n)
		}
		fmt.Fprintf(out, "  %-22s %14.4f %-6s %-7s (diagnostic)\n", name, m.Value, m.Unit, samples)
	}
	printLedger(out, &rep.ledger)
}

// printTraced prints one traced run: every per-layer metric, with the
// layers' self-time shares of the request last.
func printTraced(out io.Writer, spec *benchSpec, rep *layerReport) {
	fmt.Fprintf(out, "\n== %s (traced)\n  runner: %s\n", rep.Workload, rep.Runner)
	for _, d := range spec.PerLayer {
		m := rep.Metrics[d.Name]
		fmt.Fprintf(out, "  %-32s %16.4f %-8s better=%s\n", d.Name, m.Value, m.Unit, d.Better)
	}
	printLedger(out, &rep.ledger)
}

// ownBounds are absolute bounds on diagnostics the -repeat comparison
// also holds runs to. They cannot be declared in BENCHMARK.json, whose
// bounds are relative and apply to every workload: slo_attainment means
// something on mixed.open only, and fail_share is 0 on a healthy run.
var ownBounds = []struct {
	name  string
	bound float64
}{{"slo_attainment", 0.05}, {"fail_share", 0}}

// printAgreement compares every pair of consecutive suites: per metric
// and workload, both values, how much worse the worse one is, and
// PASS/FAIL against the metric's bound. It reports whether all passed.
func printAgreement(out io.Writer, spec *benchSpec, suites [][]*runReport) bool {
	ok := true
	fmt.Fprintf(out, "\n== agreement between repeated runs of the same code\n")
	fmt.Fprintf(out, "  %-14s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "differ", "bound")
	for n := 1; n < len(suites); n++ {
		for w, first := range suites[n-1] {
			second := suites[n][w]
			for _, d := range spec.EndToEnd {
				a, b := first.Metrics[d.Name].Value, second.Metrics[d.Name].Value
				diff := math.Abs(a-b) / math.Max(math.Min(a, b), math.SmallestNonzeroFloat64)
				verdict := "PASS"
				if diff > d.Bound {
					verdict, ok = "FAIL", false
				}
				fmt.Fprintf(out, "  %-14s %-16s %14.4f %14.4f %8.1f%% %6.0f%% %s\n", first.Workload, d.Name, a, b, 100*diff, 100*d.Bound, verdict)
			}
			for _, own := range ownBounds {
				a, b := first.Metrics[own.name].Value, second.Metrics[own.name].Value
				verdict := "PASS"
				if math.Abs(a-b) > own.bound {
					verdict, ok = "FAIL", false
				}
				fmt.Fprintf(out, "  %-14s %-16s %14.4f %14.4f %8.3f  %6.2f  %s (absolute)\n", first.Workload, own.name, a, b, math.Abs(a-b), own.bound, verdict)
			}
		}
	}
	fmt.Fprintln(out, strings.Repeat("-", 40))
	return ok
}
