package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// unreached reports exported functions and methods, in the configured
// packages, that no non-test file other than their own declaring file
// references. Such code is kept alive only by its tests: every PR pays
// to read and maintain it, and nothing the program does depends on it.
//
// A reference is any types.Info.Uses entry, so calls, method values and
// function values all count. A concrete method is also reached when an
// interface method it implements is referenced (dynamic dispatch), and
// a method that satisfies a standard-library interface (String, Error,
// ServeHTTP, Close, ...) is exempt: the library calls it. References
// from the nested modules in Config.ReachModules count too; they are
// matched by funcKey, since those modules type-check this one anew.
// The rule only makes sense over the whole module (pclint ./...): a
// package left out of the load cannot reach anything.
func unreached(prog *Program, cfg *Config) []Diagnostic {
	type candidate struct {
		fn   *types.Func
		name *ast.Ident
	}
	var cands []candidate
	reached := map[*types.Func]bool{}
	ifaceUsed := map[*types.Func]bool{}
	byKey := map[string]*types.Func{}
	for _, pkg := range prog.Packages {
		checked := hasPrefix(pkg.Path, cfg.ReachPackages)
		for _, file := range pkg.Files {
			if prog.isTestFile(file) {
				continue
			}
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					byKey[funcKey(fn)] = fn
					if checked {
						cands = append(cands, candidate{fn, fd.Name})
					}
				}
			}
		}
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			refFile := prog.Fset.File(id.Pos())
			if strings.HasSuffix(refFile.Name(), "_test.go") {
				continue
			}
			if isInterfaceMethod(fn) {
				ifaceUsed[fn] = true
			} else if refFile != prog.Fset.File(fn.Pos()) {
				reached[fn] = true
			}
		}
	}
	for key := range prog.extern {
		if fn, ok := byKey[key]; ok {
			reached[fn] = true
		} else if fn := interfaceMethodByKey(prog, key); fn != nil {
			ifaceUsed[fn] = true
		}
	}
	ifaceRefs := map[string][]*types.Func{} // method name -> referenced interface methods
	for fn := range ifaceUsed {
		ifaceRefs[fn.Name()] = append(ifaceRefs[fn.Name()], fn)
	}
	std := prog.stdInterfaces()

	var diags []Diagnostic
	for _, c := range cands {
		if reached[c.fn] || implementsAny(c.fn, ifaceRefs[c.fn.Name()]) || implementsAny(c.fn, std[c.fn.Name()]) {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:      prog.Fset.Position(c.name.Pos()),
			Analyzer: "unreached",
			Message: fmt.Sprintf("%s is exported but no non-test file outside its own references it: delete it, or keep it with //pclint:ignore unreached <why>",
				shortName(funcKey(c.fn))),
		})
	}
	return diags
}

// isTestFile reports whether f is a _test.go file. Load never parses
// those, but fixtures may.
func (prog *Program) isTestFile(f *ast.File) bool {
	return strings.HasSuffix(prog.Fset.File(f.Pos()).Name(), "_test.go")
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// interfaceMethodByKey finds the method a nested module's funcKey names
// on one of this program's named interface types.
func interfaceMethodByKey(prog *Program, key string) *types.Func {
	dot := strings.LastIndex(key, ".")
	if dot < 0 {
		return nil
	}
	typeKey, method := key[:dot], key[dot+1:]
	for _, pkg := range prog.Packages {
		if !strings.HasPrefix(typeKey, pkg.Path+".") {
			continue
		}
		tn, ok := pkg.Types.Scope().Lookup(strings.TrimPrefix(typeKey, pkg.Path+".")).(*types.TypeName)
		if !ok || !types.IsInterface(tn.Type()) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(tn.Type(), false, pkg.Types, method)
		if fn, ok := obj.(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// implementsAny reports whether the receiver of method fn, as a value
// or a pointer, implements the interface declaring one of ifaceMethods.
func implementsAny(fn *types.Func, ifaceMethods []*types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, im := range ifaceMethods {
		iface, ok := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if ok && (types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)) {
			return true
		}
	}
	return false
}

// stdInterfaces indexes, by method name, the methods of every exported
// interface type in the standard-library packages the program imports
// (transitively), plus the predeclared error and the errors package's
// Unwrap/Is/As protocol.
func (prog *Program) stdInterfaces() map[string][]*types.Func {
	idx := map[string][]*types.Func{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			idx[m.Name()] = append(idx[m.Name()], m)
		}
	}
	errT := types.Universe.Lookup("error").Type()
	add(errT)
	// The errors package finds Unwrap, Is and As by asserting anonymous
	// interfaces, so no exported type declares them.
	method := func(name string, param, result types.Type) types.Type {
		var params *types.Tuple
		if param != nil {
			params = types.NewTuple(types.NewParam(token.NoPos, nil, "", param))
		}
		results := types.NewTuple(types.NewParam(token.NoPos, nil, "", result))
		fn := types.NewFunc(token.NoPos, nil, name, types.NewSignatureType(nil, nil, nil, params, results, false))
		return types.NewInterfaceType([]*types.Func{fn}, nil).Complete()
	}
	boolT := types.Typ[types.Bool]
	add(method("Unwrap", nil, errT))
	add(method("Unwrap", nil, types.NewSlice(errT)))
	add(method("Is", errT, boolT))
	add(method("As", types.Universe.Lookup("any").Type(), boolT))
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if _, module := prog.checked[p.Path()]; !module {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() && !tn.IsAlias() {
					add(tn.Type())
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range prog.Packages {
		walk(pkg.Types)
	}
	return idx
}

// loadReachModules type-checks each of cfg.ReachModules (directories
// relative to the module root) and records, by funcKey, every function
// and method their own non-test packages reference. It runs once.
func (prog *Program) loadReachModules(cfg *Config) error {
	if prog.extern != nil {
		return nil
	}
	prog.extern = map[string]bool{}
	for _, dir := range cfg.ReachModules {
		ext, err := Load(filepath.Join(prog.root, dir))
		if err != nil {
			return err
		}
		for _, pkg := range ext.Packages {
			if _, ours := prog.checked[pkg.Path]; ours {
				continue
			}
			for _, obj := range pkg.Info.Uses {
				if fn, ok := obj.(*types.Func); ok {
					prog.extern[funcKey(fn.Origin())] = true
				}
			}
		}
	}
	return nil
}
