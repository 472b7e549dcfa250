package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testSpec = `{"end_to_end": [
	{"name": "ttft_p50_ms", "unit": "ms", "better": "lower", "bound": 0.24},
	{"name": "out_tok_s", "unit": "tok/s", "better": "higher", "bound": 0.24}
]}`

// lines renders one result line per (ttft, tok/s) pair of values.
func lines(ttft, tok []float64) string {
	var b strings.Builder
	for i := range ttft {
		fmt.Fprintf(&b, `{"correct":true,"attempted":100,"failed":0,"metrics":{"ttft_p50_ms":{"value":%g,"unit":"ms"},"out_tok_s":{"value":%g,"unit":"tok/s"}}}`+"\n",
			ttft[i], tok[i])
	}
	return b.String()
}

// row returns the report's line for a metric, or "" when there is none.
func row(report, metric string) string {
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, metric) {
			return line
		}
	}
	return ""
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestBenchdiff(t *testing.T) {
	quiet := []float64{20.1, 19.9, 20.0, 20.2, 19.8, 20.0, 20.1, 19.9, 20.0, 20.1}
	noisy := []float64{10, 30, 12, 28, 11, 29, 10, 30, 12, 28}
	flat := repeat(100, 10)
	cases := []struct {
		name           string
		parent, change string
		code           int    // the exit status main derives: 2 on error, 1 when not ok
		ttft, tok      string // expected verdicts; "" when the run must not print a table
		wantOut        string // substring of standard output or of the error
	}{
		{
			name:   "gain: ten of ten pairs won by more than the parent's quartile distance",
			parent: lines(quiet, flat),
			change: lines(repeat(15, 10), flat),
			ttft:   "gain", tok: "inside bound", wantOut: "10/0/0",
		},
		{
			name:   "higher is better: the same rise is a gain for tok/s and a regression for TTFT",
			parent: lines(quiet, flat),
			change: lines(repeat(26, 10), repeat(130, 10)),
			code:   1, ttft: "regression", tok: "gain",
		},
		{
			name:   "unresolved: the parent's quartiles are further apart than the bound",
			parent: lines(noisy, flat),
			change: lines(noisy, flat),
			ttft:   "unresolved", tok: "inside bound", wantOut: "0/0/10",
		},
		{
			name:   "inside bound: a 2% drift on a quiet metric",
			parent: lines(quiet, flat),
			change: lines(repeat(20.4, 10), flat),
			ttft:   "inside bound", tok: "inside bound",
		},
		{
			name:   "five pairs all won are not enough for a gain",
			parent: lines(quiet[:5], flat[:5]),
			change: lines(repeat(15, 5), flat[:5]),
			ttft:   "inside bound", tok: "inside bound", wantOut: "5/0/0",
		},
		{
			name:   "a wide parent is resolved when every change run beats every parent run",
			parent: lines(noisy[:5], flat[:5]),
			change: lines(repeat(5, 5), flat[:5]),
			ttft:   "inside bound", tok: "inside bound",
		},
		{
			name:   "an incorrect run on the change side fails the comparison",
			parent: lines(quiet, flat),
			change: strings.Replace(lines(quiet, flat), `"correct":true`, `"correct":false`, 1),
			code:   1, ttft: "inside bound", tok: "inside bound", wantOut: "more incorrect runs",
		},
		{
			name:   "a larger failed share fails the comparison",
			parent: lines(quiet, flat),
			change: strings.Replace(lines(quiet, flat), `"failed":0`, `"failed":3`, 1),
			code:   1, ttft: "inside bound", tok: "inside bound", wantOut: "change 3/1000",
		},
		{
			name:   "length mismatch",
			parent: lines(quiet, flat),
			change: lines(quiet[:9], flat[:9]),
			code:   2, wantOut: "has 10 runs",
		},
		{
			name:   "metric missing from one side",
			parent: lines(quiet, flat),
			change: strings.Replace(lines(quiet, flat), `"out_tok_s"`, `"out_tok_per_s"`, 1),
			code:   2, wantOut: "change.jsonl:1: metric out_tok_s missing",
		},
		{
			name:   "not a result line",
			parent: "19.5\n",
			change: lines(quiet[:1], flat[:1]),
			code:   2, wantOut: "parent.jsonl:1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			write := func(name, content string) string {
				path := filepath.Join(dir, name)
				if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
				return path
			}
			var out bytes.Buffer
			ok, err := run(&out, write("BENCHMARK.json", testSpec),
				write("parent.jsonl", tc.parent), write("change.jsonl", tc.change))
			text, code := out.String(), 0
			switch {
			case err != nil:
				text, code = text+err.Error(), 2
			case !ok:
				code = 1
			}
			if code != tc.code {
				t.Fatalf("exit %d (err %v), want %d\n%s", code, err, tc.code, text)
			}
			if !strings.Contains(text, tc.wantOut) {
				t.Errorf("output lacks %q:\n%s", tc.wantOut, text)
			}
			for metric, want := range map[string]string{"ttft_p50_ms": tc.ttft, "out_tok_s": tc.tok} {
				got := row(out.String(), metric)
				if (want == "") != (got == "") || !strings.HasSuffix(got, want) {
					t.Errorf("%s: want verdict %q, got row %q", metric, want, got)
				}
			}
		})
	}
}

func TestReadDeclsRejectsUnknownDirection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(path, []byte(`{"end_to_end":[{"name":"x","better":"bigger","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readDecls(path); err == nil || !strings.Contains(err.Error(), "bigger") {
		t.Fatalf("readDecls error = %v, want the bad direction named", err)
	}
}
