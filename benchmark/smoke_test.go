package main

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The server runs as a child of this binary, so the test binary must be
// able to become one.
func TestMain(m *testing.M) {
	if serveIfChild() {
		return
	}
	os.Exit(m.Run())
}

var (
	blockLine  = regexp.MustCompile(`^== (\S+) \((timed|traced)\)$`)
	metricLine = regexp.MustCompile(`^  (\S+)\s+(-?[0-9.]+) (\S+)\s.*better=(higher|lower)( +bound=([0-9.]+))?$`)
	diagLine   = regexp.MustCompile(`^  (\S+)\s+(-?[0-9.]+) (\S+)\s.*\(diagnostic\)$`)
)

// printedBlocks parses a report into workload → declared metric names in
// print order, checking each carries a unit and a direction (and a bound
// when wantBound); diagnostics are returned by workload and name.
func printedBlocks(t *testing.T, report string, wantBound bool) (names map[string][]string, order []string, diags map[string]map[string]float64) {
	t.Helper()
	names, diags = map[string][]string{}, map[string]map[string]float64{}
	wl := ""
	for _, line := range strings.Split(report, "\n") {
		if m := blockLine.FindStringSubmatch(line); m != nil {
			wl = m[1]
			order = append(order, wl)
			diags[wl] = map[string]float64{}
			continue
		}
		if m := metricLine.FindStringSubmatch(line); m != nil {
			if wantBound && m[6] == "" {
				t.Errorf("%s: metric %s printed without a bound", wl, m[1])
			}
			names[wl] = append(names[wl], m[1])
			continue
		}
		if m := diagLine.FindStringSubmatch(line); m != nil {
			v, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				t.Fatal(err)
			}
			diags[wl][m[1]] = v
		}
		if strings.Contains(line, "PROBLEM") {
			t.Errorf("%s: %s", wl, strings.TrimSpace(line))
		}
	}
	return names, order, diags
}

func declaredNames(decls []metricDecl) []string {
	var out []string
	for _, d := range decls {
		out = append(out, d.Name)
	}
	return out
}

// TestSmoke runs every workload end to end at an eighth of its size,
// timed and traced, and holds the printed workload and metric names to
// BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var wantWorkloads []string
	for _, w := range spec.Workloads {
		if w.Why == "" {
			t.Errorf("workload %s has no why", w.Name)
		}
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	for _, d := range spec.EndToEnd {
		if d.Unit == "" || (d.Better != "higher" && d.Better != "lower") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v needs a unit, a direction and a bound in (0, 0.25]", d)
		}
	}
	for _, d := range spec.PerLayer {
		if d.Unit == "" || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("per-layer metric %+v needs a unit and a direction", d)
		}
	}

	pl := plan{window: 600 * time.Millisecond, setups: 1, traced: 4, scale: 8}
	o := options{seed: defaultSeed, repeat: 1, workDir: t.TempDir()}
	for _, mode := range []struct {
		trace int
		decls []metricDecl
	}{{0, spec.EndToEnd}, {1, spec.PerLayer}} {
		var out bytes.Buffer
		o.trace = mode.trace
		if err := runSuite(context.Background(), o, pl, spec, &out); err != nil {
			t.Fatalf("trace=%d: %v\n%s", mode.trace, err, out.String())
		}
		names, order, diags := printedBlocks(t, out.String(), mode.trace == 0)
		if !slices.Equal(order, wantWorkloads) {
			t.Errorf("trace=%d: printed workloads %v, BENCHMARK.json declares %v", mode.trace, order, wantWorkloads)
		}
		for _, wl := range order {
			if want := declaredNames(mode.decls); !slices.Equal(names[wl], want) {
				t.Errorf("trace=%d %s: printed metrics %v, BENCHMARK.json declares %v", mode.trace, wl, names[wl], want)
			}
			if share, ok := diags[wl]["fail_share"]; mode.trace == 0 && (!ok || share != 0) {
				t.Errorf("%s: fail_share = %v (printed %v), want 0", wl, share, ok)
			}
		}
	}
}
