package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockscope reports calls that may reach a heavy function — prefill,
// decode/generate, disk-blob I/O, the quant codec — while one of the
// guarded engine mutexes is held. Holding Cache.mu across a prefill
// serializes every concurrent serve behind one model walk; the PR 2
// plan/execute split exists precisely so this never happens.
//
// Lock regions are lexical: mu.Lock() opens a region that the next
// plain mu.Unlock() closes (defer mu.Unlock() holds to function end),
// and a function named *Locked in a package owning a guarded mutex, or a
// method of a configured locked type, is treated as entirely locked. The locked-context set then propagates
// down the static call graph, stopping at heavy functions so each
// violation is reported exactly once — at the deepest call site that
// names a heavy function, where a single //pclint:ignore covers every
// lock path into it.
func lockscope(prog *Program, cfg *Config) []Diagnostic {
	g := prog.callgraph()
	heavy := stringSet(cfg.HeavyFuncs)
	guarded := stringSet(cfg.GuardedMutexes)
	lockedTypes := stringSet(cfg.LockedTypes)

	// Packages that own a guarded mutex: the *Locked naming convention
	// only applies there.
	lockedPkgs := map[string]bool{}
	for m := range guarded {
		if i := strings.LastIndex(m, "."); i >= 0 {
			if j := strings.LastIndex(m[:i], "."); j >= 0 {
				lockedPkgs[m[:j]] = true
			}
		}
	}

	// Seed the locked-context worklist: whole *Locked functions and
	// locked types' methods, plus callees invoked from within an explicit
	// Lock..Unlock region.
	fullyLocked := map[string]bool{}
	var work []string
	mark := func(key string) {
		if !fullyLocked[key] && !heavy[key] {
			if _, ok := g.decls[key]; ok {
				fullyLocked[key] = true
				work = append(work, key)
			}
		}
	}
	lockedCalls := map[string][]*callSite{} // caller -> calls made under an explicit region
	for key, di := range g.decls {
		if strings.HasSuffix(di.decl.Name.Name, cfg.LockedSuffix) && lockedPkgs[di.pkg.Path] || lockedTypes[recvOf(key)] {
			mark(key)
			continue
		}
		regions := lockRegions(di, guarded)
		if len(regions) == 0 {
			continue
		}
		for _, cs := range g.calls[key] {
			if inRegions(regions, cs.call.Pos()) {
				lockedCalls[key] = append(lockedCalls[key], cs)
			}
		}
	}

	var diags []Diagnostic
	report := func(cs *callSite, via string) {
		diags = append(diags, Diagnostic{
			Pos:      prog.Fset.Position(cs.call.Pos()),
			Analyzer: "lockscope",
			Message: fmt.Sprintf("%s may run while %s is held (%s): move it outside the critical section (plan/execute split) or justify with //pclint:ignore",
				cs.key, via, describeLockPath(cs.caller, cfg.LockedSuffix, lockedTypes)),
		})
	}

	// Calls made directly inside an explicit lock region.
	for _, calls := range lockedCalls {
		for _, cs := range calls {
			if cs.viaGo {
				continue // a spawned goroutine does not hold the caller's lock
			}
			if heavy[cs.key] {
				report(cs, "a guarded mutex")
			} else {
				mark(cs.key)
			}
		}
	}
	// Propagate: everything a locked-context function calls is itself
	// locked-context, until a heavy callee is reported.
	for len(work) > 0 {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		for _, cs := range g.calls[key] {
			if cs.viaGo {
				continue
			}
			if heavy[cs.key] {
				report(cs, "a guarded mutex")
			} else {
				mark(cs.key)
			}
		}
	}
	return diags
}

func describeLockPath(caller *declInfo, lockedSuffix string, lockedTypes map[string]bool) string {
	name := caller.decl.Name.Name
	switch {
	case lockedTypes[recvOf(caller.key)]:
		return "reached from " + name + ", a method of locked type " + recvOf(caller.key)
	case strings.HasSuffix(name, lockedSuffix):
		return "reached from " + name + ", named *" + lockedSuffix
	}
	return "reached from a locked region in " + name
}

// recvOf strips a funcKey's last element: a method's receiver type, or a
// function's package path.
func recvOf(key string) string { return key[:strings.LastIndex(key, ".")] }

// lockRegion is a lexical [from,to) span of positions where a guarded
// mutex is held.
type lockRegion struct {
	from, to token.Pos
}

// lockRegions scans a function body for Lock/Unlock calls on guarded
// mutexes and returns the lexical spans between them. A deferred
// Unlock, matching the language, holds the lock to the end of the
// function, not the end of the block.
func lockRegions(di *declInfo, guarded map[string]bool) []lockRegion {
	type event struct {
		pos   token.Pos
		mutex string
		kind  int // 0 lock, 1 unlock, 2 deferred unlock
	}
	var events []event
	ast.Inspect(di.decl.Body, func(n ast.Node) bool {
		var call *ast.CallExpr
		kindShift := 0
		switch s := n.(type) {
		case *ast.DeferStmt:
			call = s.Call
			kindShift = 1
		case *ast.CallExpr:
			call = s
		default:
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		var kind int
		switch sel.Sel.Name {
		case "Lock":
			kind = 0
		case "Unlock":
			kind = 1 + kindShift
		default:
			return true
		}
		m := mutexRef(di.pkg.Info, sel.X, guarded)
		if m == "" {
			return true
		}
		events = append(events, event{pos: call.Pos(), mutex: m, kind: kind})
		return kindShift == 0 // a deferred Unlock has no nested events worth visiting
	})

	end := di.decl.Body.End()
	var regions []lockRegion
	open := map[string]token.Pos{} // mutex -> Lock position
	for _, ev := range events {
		switch ev.kind {
		case 0:
			if _, ok := open[ev.mutex]; !ok {
				open[ev.mutex] = ev.pos
			}
		case 1:
			if from, ok := open[ev.mutex]; ok {
				regions = append(regions, lockRegion{from: from, to: ev.pos})
				delete(open, ev.mutex)
			}
		case 2:
			from, ok := open[ev.mutex]
			if !ok {
				// defer mu.Unlock() with no visible Lock: assume held
				// from here on (e.g. lock taken by a helper).
				from = ev.pos
			}
			regions = append(regions, lockRegion{from: from, to: end})
			delete(open, ev.mutex)
		}
	}
	// A Lock never released in this function (handed to a callee or a
	// *Locked helper chain) holds to the end.
	for _, from := range open {
		regions = append(regions, lockRegion{from: from, to: end})
	}
	return regions
}

func inRegions(regions []lockRegion, pos token.Pos) bool {
	for _, r := range regions {
		if r.from <= pos && pos < r.to {
			return true
		}
	}
	return false
}

// mutexRef resolves the receiver expression of a Lock/Unlock call to a
// guarded-mutex field key ("pkg.Type.field"), or "" when it is not one.
func mutexRef(info *types.Info, x ast.Expr, guarded map[string]bool) string {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	field, ok := s.Obj().(*types.Var)
	if !ok {
		return ""
	}
	t := s.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	key := named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field.Name()
	if guarded[key] {
		return key
	}
	return ""
}
