package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// metricDecl is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen;
// per-layer metrics have none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json: the contract this program reports to.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent:
// the repository root, whether the program runs from there or from its
// own directory.
func loadSpec() (*benchSpec, error) {
	candidates := []string{"BENCHMARK.json", "../BENCHMARK.json"}
	for _, p := range candidates {
		b, err := os.ReadFile(p)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var spec benchSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &spec, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found (tried %v)", candidates)
}

// checkDeclared verifies that a run measured every declared metric, in
// the declared unit.
func checkDeclared(measured map[string]metric, decls []metricDecl) error {
	for _, d := range decls {
		m, ok := measured[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("metric %s measured in %q but declared in %q", d.Name, m.Unit, d.Unit)
		}
	}
	return nil
}

// pickDeclared returns the declared metrics out of everything measured.
func pickDeclared(measured map[string]metric, decls []metricDecl) map[string]metric {
	out := make(map[string]metric, len(decls))
	for _, d := range decls {
		out[d.Name] = measured[d.Name]
	}
	return out
}
