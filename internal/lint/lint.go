// Package lint is pclint's engine: a stdlib-only static analysis driver
// (go/parser, go/types, go/ast — no golang.org/x/tools) plus six
// repo-specific analyzers that machine-check the serving engine's
// correctness invariants and keep dead code out:
//
//   - lockscope: nothing heavy — prefill/decode/generate, disk blob I/O,
//     the quant codec — may run while an engine mutex is held.
//   - pinbalance: module pin acquisitions must be released on every
//     error return.
//   - maporder: no map iteration in functions reachable from
//     ordering-sensitive token paths, unless gathered-then-sorted.
//   - ctxplumb: exported serve/generate entry points must accept and
//     forward context.Context.
//   - errtaxonomy: errors born in the engine must wrap the typed
//     taxonomy the HTTP layer maps to statuses.
//   - unreached: every exported function or method under internal/
//     must be referenced from a non-test file other than its own (the
//     nested benchmark module counts); interface dispatch reaches the
//     methods it can call, and standard-interface methods are exempt.
//
// A diagnostic is suppressed by a directive on the same line or the
// line above:
//
//	//pclint:ignore <analyzer> <reason>
//
// The reason is mandatory — an ignore without one is itself reported.
// All analysis is a deliberate approximation: call graphs follow only
// statically-resolved callees (no interface dispatch), and lock regions
// are lexical. Both under-approximate, so a clean run is evidence, not
// proof; neither ever blocks a legal program without a suppressible
// site.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Program is a loaded, type-checked module ready for analysis.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	root    string // main module directory
	checked map[string]*types.Package
	exports map[string]string
	gc      types.Importer

	graph *callGraph
	// extern holds the funcKeys that Config.ReachModules reference,
	// once loadReachModules has run.
	extern map[string]bool
}

// Package is one type-checked module package.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks findings matched by a //pclint:ignore directive;
	// Reason carries the directive's justification.
	Suppressed bool
	Reason     string
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	if d.Suppressed {
		s += fmt.Sprintf(" (suppressed: %s)", d.Reason)
	}
	return s
}

// An analyzerFunc inspects the program and reports findings. Suppression
// is applied by the driver afterwards.
type analyzerFunc func(prog *Program, cfg *Config) []Diagnostic

// AnalyzerNames lists every analyzer in the order they run.
var AnalyzerNames = []string{"lockscope", "pinbalance", "maporder", "ctxplumb", "errtaxonomy", "unreached"}

var analyzers = map[string]analyzerFunc{
	"lockscope":   lockscope,
	"pinbalance":  pinbalance,
	"maporder":    maporder,
	"ctxplumb":    ctxplumb,
	"errtaxonomy": errtaxonomy,
	"unreached":   unreached,
}

// Run executes the named analyzers (all of them when names is empty)
// and returns diagnostics sorted by position, with suppression
// directives applied.
func (prog *Program) Run(cfg *Config, names ...string) ([]Diagnostic, error) {
	if len(names) == 0 {
		names = AnalyzerNames
	}
	var diags []Diagnostic
	for _, name := range names {
		fn, ok := analyzers[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
		if name == "unreached" {
			if err := prog.loadReachModules(cfg); err != nil {
				return nil, err
			}
		}
		diags = append(diags, fn(prog, cfg)...)
	}
	sup, bad := prog.suppressions()
	diags = append(diags, bad...)
	for i := range diags {
		if dir, ok := sup[supKey{diags[i].Pos.Filename, diags[i].Pos.Line, diags[i].Analyzer}]; ok {
			diags[i].Suppressed = true
			diags[i].Reason = dir
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// Unsuppressed filters diagnostics down to the ones that fail a run.
func Unsuppressed(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

type supKey struct {
	file     string
	line     int
	analyzer string
}

const ignorePrefix = "//pclint:ignore"

// suppressions scans every file for //pclint:ignore directives. A
// directive suppresses matching diagnostics on its own line (trailing
// comment) and on the line immediately below (own-line comment).
// Malformed directives — unknown analyzer, missing reason — are
// reported as pclint's own diagnostics so a typo cannot silently turn a
// gate off.
func (prog *Program) suppressions() (map[supKey]string, []Diagnostic) {
	sup := map[supKey]string{}
	var bad []Diagnostic
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignorePrefix) {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
					name, reason, _ := strings.Cut(rest, " ")
					reason = strings.TrimSpace(reason)
					if _, known := analyzers[name]; !known {
						bad = append(bad, Diagnostic{Pos: pos, Analyzer: "pclint",
							Message: fmt.Sprintf("malformed ignore directive: unknown analyzer %q (want one of %s)", name, strings.Join(AnalyzerNames, ", "))})
						continue
					}
					if reason == "" {
						bad = append(bad, Diagnostic{Pos: pos, Analyzer: "pclint",
							Message: fmt.Sprintf("ignore directive for %q needs a reason: //pclint:ignore %s <why this is safe>", name, name)})
						continue
					}
					sup[supKey{pos.Filename, pos.Line, name}] = reason
					sup[supKey{pos.Filename, pos.Line + 1, name}] = reason
				}
			}
		}
	}
	return sup, bad
}

// funcKey names a function or method the way Config fields reference
// it: "pkg/path.Func" or "pkg/path.Type.Method" (pointer receivers are
// not distinguished from value receivers).
func funcKey(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + f.Name()
		}
	}
	if f.Pkg() != nil {
		return f.Pkg().Path() + "." + f.Name()
	}
	return f.Name()
}

// callee resolves a call expression to the *types.Func it statically
// invokes, or nil for indirect calls (function values, interface
// methods) and conversions.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				// Interface dispatch has no static callee.
				if types.IsInterface(sel.Recv().Underlying()) {
					return nil
				}
				return f
			}
			return nil
		}
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// stringSet builds a membership set from a slice.
func stringSet(ss []string) map[string]bool {
	m := make(map[string]bool, len(ss))
	for _, s := range ss {
		m[s] = true
	}
	return m
}
