package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Export     string
	Dir        string
	GoFiles    []string
	Module     *struct {
		Path string
		Main bool
		Dir  string
	}
}

// Load type-checks the module packages matched by patterns (plus every
// module package they depend on) and returns them in dependency order.
//
// The loader is stdlib-only: `go list -export -deps -json` resolves the
// build list and hands back compiled export data for every non-module
// dependency (stdlib included), so only the module's own packages are
// type-checked from source. dir must be inside the module; patterns
// default to ./... .
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Export,Dir,GoFiles,Module",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.Bytes())
	}

	exports := map[string]string{}
	var modPkgs []listPackage
	var root string
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		// `go list -deps` emits dependencies before dependents, so
		// module packages accumulate in type-check order.
		if p.Module != nil {
			modPkgs = append(modPkgs, p)
			if p.Module.Main {
				root = p.Module.Dir
			}
		} else if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	prog := &Program{
		Fset:    token.NewFileSet(),
		root:    root,
		checked: map[string]*types.Package{},
		exports: exports,
	}
	for _, p := range modPkgs {
		pkg, err := prog.checkSource(p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

// checkSource parses and type-checks one package from source, resolving
// imports against already-checked module packages or export data.
func (prog *Program) checkSource(importPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(prog.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: prog.importer()}
	tpkg, err := conf.Check(importPath, prog.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", importPath, err)
	}
	prog.checked[importPath] = tpkg
	return &Package{Path: importPath, Files: files, Types: tpkg, Info: info}, nil
}

// importer resolves an import path to an already-checked module package
// or, failing that, to compiled export data from the go build cache.
func (prog *Program) importer() types.Importer {
	if prog.gc == nil {
		prog.gc = importer.ForCompiler(prog.Fset, "gc", func(path string) (io.ReadCloser, error) {
			exp, ok := prog.exports[path]
			if !ok {
				return nil, fmt.Errorf("lint: no export data for %q", path)
			}
			return os.Open(exp)
		})
	}
	return importerFunc(func(path string) (*types.Package, error) {
		if p, ok := prog.checked[path]; ok {
			return p, nil
		}
		return prog.gc.Import(path)
	})
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
