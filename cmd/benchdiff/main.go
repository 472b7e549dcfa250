// Command benchdiff judges paired runs of the benchmark of record.
//
// Usage, from the repository root (BENCHMARK.json is read from the
// current directory):
//
//	benchdiff parent.jsonl change.jsonl
//
// Each file holds the one-line JSON results of
// `bash benchmark/run.sh --workload W`, appended one per run; line i of
// parent.jsonl and line i of change.jsonl are pair i. For every
// end-to-end metric BENCHMARK.json declares it prints both sides'
// medians and quartiles, the pairs won, lost and tied by the change, and
// a verdict by the rules of the choosing-metrics guide:
//
//	gain          at least ten pairs, the change won nine tenths of them,
//	              and the medians differ by more than the distance
//	              between the parent's quartiles
//	regression    the change's median is worse than the parent's by more
//	              than the metric's bound
//	unresolved    the parent's own quartiles are further apart than the
//	              bound, and not every run of the change beat every run
//	              of the parent
//	inside bound  otherwise
//
// It exits 1 on any regression, or when the change has a larger share of
// failed operations or more incorrect runs than the parent; 2 when the
// inputs cannot be compared.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// minGainPairs is the fewest pairs a gain may be claimed from.
const minGainPairs = 10

// metricDecl is one end_to_end entry of BENCHMARK.json.
type metricDecl struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is one run's line as benchmark/run.sh prints it.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func readDecls(path string) ([]metricDecl, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run benchdiff from the repository root)", err)
	}
	var spec struct {
		EndToEnd []metricDecl `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	for _, d := range spec.EndToEnd {
		if d.Better != "lower" && d.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better is %q, want lower or higher", path, d.Name, d.Better)
		}
	}
	return spec.EndToEnd, nil
}

// readResults parses one result per non-blank line of the file and
// requires every declared metric on every line: a side that lacks one
// was not produced by a timed run of this benchmark and cannot be paired.
func readResults(path string, decls []metricDecl) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		for _, d := range decls {
			if _, ok := res.Metrics[d.Name]; !ok {
				return nil, fmt.Errorf("%s:%d: metric %s missing", path, line, d.Name)
			}
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of v,
// interpolating linearly between order statistics.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	var q [3]float64
	for i := range q {
		pos := float64(i+1) / 4 * float64(len(s)-1)
		lo := int(pos)
		hi := min(lo+1, len(s)-1)
		q[i] = s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return q
}

// judged is one metric's comparison over all pairs.
type judged struct {
	parent, change     [3]float64 // first quartile, median, third quartile
	wins, losses, ties int        // pairs, from the change's side
	verdict            string
}

// judge compares one metric's paired values: p[i] and c[i] are pair i.
func judge(d metricDecl, p, c []float64) judged {
	// worse > 0 wherever the change's value is the worse of the two.
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	j := judged{parent: quartiles(p), change: quartiles(c)}
	for i := range p {
		switch worse := sign * (c[i] - p[i]); {
		case worse < 0:
			j.wins++
		case worse > 0:
			j.losses++
		default:
			j.ties++
		}
	}
	allBetter := true
	for _, pv := range p {
		for _, cv := range c {
			if sign*(cv-pv) >= 0 {
				allBetter = false
			}
		}
	}
	worse := sign * (j.change[1] - j.parent[1])
	spread := j.parent[2] - j.parent[0]
	bound := d.Bound * j.parent[1]
	switch {
	case len(p) >= minGainPairs && 10*j.wins >= 9*len(p) && -worse > spread:
		j.verdict = "gain"
	case worse > bound:
		j.verdict = "regression"
	case spread > bound && !allBetter:
		j.verdict = "unresolved"
	default:
		j.verdict = "inside bound"
	}
	return j
}

// compare prints the report for paired results and reports whether the
// change is acceptable: no regression, no larger failed share, no more
// incorrect runs.
func compare(w io.Writer, decls []metricDecl, parent, change []result) bool {
	ok := true
	fmt.Fprintf(w, "%d pairs\n", len(parent))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tbetter\tbound\tparent median [q1, q3]\tchange median [q1, q3]\tmedian change\twon/lost/tied\tverdict")
	for _, d := range decls {
		p, c := make([]float64, len(parent)), make([]float64, len(change))
		for i := range parent {
			p[i], c[i] = parent[i].Metrics[d.Name].Value, change[i].Metrics[d.Name].Value
		}
		j := judge(d, p, c)
		ok = ok && j.verdict != "regression"
		fmt.Fprintf(tw, "%s\t%s\t%.0f%%\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d/%d\t%s\n",
			d.Name, d.Better, d.Bound*100,
			j.parent[1], j.parent[0], j.parent[2], j.change[1], j.change[0], j.change[2],
			(j.change[1]-j.parent[1])/j.parent[1]*100, j.wins, j.losses, j.ties, j.verdict)
	}
	tw.Flush()

	type tally struct{ failed, attempted, incorrect int }
	count := func(rs []result) (t tally) {
		for _, r := range rs {
			t.failed += r.Failed
			t.attempted += r.Attempted
			if !r.Correct {
				t.incorrect++
			}
		}
		return t
	}
	pt, ct := count(parent), count(change)
	fmt.Fprintf(w, "failed/attempted: parent %d/%d, change %d/%d\n", pt.failed, pt.attempted, ct.failed, ct.attempted)
	fmt.Fprintf(w, "incorrect runs:   parent %d/%d, change %d/%d\n", pt.incorrect, len(parent), ct.incorrect, len(change))
	// Cross-multiplied so a side that attempted nothing needs no special case.
	if ct.failed*pt.attempted > pt.failed*ct.attempted {
		fmt.Fprintln(w, "the change fails a larger share of operations than the parent")
		ok = false
	}
	if ct.incorrect > pt.incorrect {
		fmt.Fprintln(w, "the change has more incorrect runs than the parent")
		ok = false
	}
	return ok
}

// run reads and pairs the two files and prints the report; ok is false
// when the change is not acceptable, err is set when the inputs cannot
// be compared.
func run(w io.Writer, specPath, parentPath, changePath string) (ok bool, err error) {
	decls, err := readDecls(specPath)
	if err != nil {
		return false, err
	}
	parent, err := readResults(parentPath, decls)
	if err != nil {
		return false, err
	}
	change, err := readResults(changePath, decls)
	if err != nil {
		return false, err
	}
	if len(parent) == 0 || len(parent) != len(change) {
		return false, fmt.Errorf("%s has %d runs and %s has %d: line i of each must be pair i",
			parentPath, len(parent), changePath, len(change))
	}
	return compare(w, decls, parent, change), nil
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff parent.jsonl change.jsonl")
		os.Exit(2)
	}
	ok, err := run(os.Stdout, "BENCHMARK.json", os.Args[1], os.Args[2])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}
