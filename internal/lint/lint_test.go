package lint

// Fixture tests: each analyzer runs over a seeded package under
// testdata/src/<analyzer>/ with a config naming the fixture's own
// types, proving the analyzers are configuration-driven rather than
// hard-wired to this repo. Expectations live in the fixtures
// themselves: a "// want <analyzer>" comment marks a line that must
// produce an unsuppressed diagnostic, and every //pclint:ignore
// directive must actually suppress something (counted per fixture).
//
// Fixtures type-check against the same export data as the real repo,
// so they may import anything in the repo's dependency closure (sync,
// context, fmt, errors, sort, ...).

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var repoOnce = sync.OnceValues(func() (*Program, error) {
	dir, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	return Load(dir)
})

// loadRepo loads and type-checks the enclosing module once per test
// binary; fixtures reuse its export data, the meta-test analyzes it.
func loadRepo(t *testing.T) *Program {
	t.Helper()
	prog, err := repoOnce()
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	return prog
}

// fixtureProgram type-checks testdata/src/<name> as import path
// "fix/<name>", the path fixture configs use to name their objects.
func fixtureProgram(t *testing.T, name string) *Program {
	t.Helper()
	base := loadRepo(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var goFiles []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	prog := &Program{
		Fset:    token.NewFileSet(),
		checked: map[string]*types.Package{},
		exports: base.exports,
	}
	pkg, err := prog.checkSource("fix/"+name, dir, goFiles)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", name, err)
	}
	prog.Packages = append(prog.Packages, pkg)
	return prog
}

type marker struct {
	file     string
	line     int
	analyzer string
}

// wantMarkers collects the "// want <analyzer>" expectations from a
// fixture's comments.
func wantMarkers(prog *Program) map[marker]bool {
	m := map[marker]bool{}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					m[marker{pos.Filename, pos.Line, strings.Fields(text)[1]}] = true
				}
			}
		}
	}
	return m
}

// checkFixture runs one analyzer over its fixture and asserts the
// diagnostics match the fixture's want markers exactly, plus that the
// expected number of findings were suppressed by ignore directives.
func checkFixture(t *testing.T, name string, cfg *Config, analyzer string, wantSuppressed int) {
	t.Helper()
	prog := fixtureProgram(t, name)
	diags, err := prog.Run(cfg, analyzer)
	if err != nil {
		t.Fatal(err)
	}
	want := wantMarkers(prog)
	seen := map[marker]bool{}
	suppressed := 0
	for _, d := range diags {
		if d.Suppressed {
			if d.Reason == "" {
				t.Errorf("suppressed diagnostic with no reason: %s", d)
			}
			suppressed++
			continue
		}
		mk := marker{d.Pos.Filename, d.Pos.Line, d.Analyzer}
		if !want[mk] {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		if seen[mk] {
			t.Errorf("duplicate diagnostic: %s", d)
		}
		seen[mk] = true
	}
	for mk := range want {
		if !seen[mk] {
			t.Errorf("missing diagnostic: %s:%d: %s reported nothing here", mk.file, mk.line, mk.analyzer)
		}
	}
	if suppressed != wantSuppressed {
		t.Errorf("got %d suppressed diagnostics, want %d", suppressed, wantSuppressed)
	}
}

func TestLockscopeFixture(t *testing.T) {
	checkFixture(t, "lockscope", &Config{
		GuardedMutexes: []string{"fix/lockscope.Cache.mu"},
		LockedSuffix:   "Locked",
		LockedTypes:    []string{"fix/lockscope.store"},
		HeavyFuncs: []string{
			"fix/lockscope.Model.Prefill",
			"fix/lockscope.Model.Decode",
			"fix/lockscope.MatMulKernel",
		},
	}, "lockscope", 1)
}

func TestPinbalanceFixture(t *testing.T) {
	checkFixture(t, "pinbalance", &Config{
		Acquires: []AcquireSpec{{Func: "fix/pinbalance.Cache.acquire", OwnErrorExempt: true}},
		Releases: []string{"fix/pinbalance.Cache.unpin"},
		PinField: "fix/pinbalance.Module.pins",
	}, "pinbalance", 1)
}

// TestAdmissionFixture proves pinbalance generalizes to admission
// slots: Admit/AdmitRelease are an acquire/release pair like module
// pins, with the shed/deadline error own-error-exempt.
func TestAdmissionFixture(t *testing.T) {
	checkFixture(t, "admission", &Config{
		Acquires: []AcquireSpec{{Func: "fix/admission.Gate.admit", OwnErrorExempt: true}},
		Releases: []string{"fix/admission.Gate.admitRelease"},
		PinField: "fix/admission.Gate.inflight",
	}, "pinbalance", 1)
}

func TestMaporderFixture(t *testing.T) {
	checkFixture(t, "maporder", &Config{
		OrderRoots: []string{"fix/maporder.Engine.Emit"},
	}, "maporder", 1)
}

func TestCtxplumbFixture(t *testing.T) {
	checkFixture(t, "ctxplumb", &Config{
		CtxPackages: []string{"fix/ctxplumb"},
		CtxPrefixes: []string{"Serve", "Generate", "Infer", "Send"},
	}, "ctxplumb", 1)
}

func TestErrtaxonomyFixture(t *testing.T) {
	checkFixture(t, "errtaxonomy", &Config{
		ErrPackages: []string{"fix/errtaxonomy"},
	}, "errtaxonomy", 2)
}

// TestUnreachedFixture: a function referenced only by its own file and
// a test is flagged; a suppressed one is not; a method named nowhere
// but reached through an interface call, and a fmt.Stringer method, are
// reached.
func TestUnreachedFixture(t *testing.T) {
	checkFixture(t, "unreached", &Config{
		ReachPackages: []string{"fix/unreached"},
	}, "unreached", 1)
}

// TestMalformedIgnoreDirectives: an ignore naming an unknown analyzer
// or lacking a reason is itself an unsuppressable diagnostic.
func TestMalformedIgnoreDirectives(t *testing.T) {
	prog := fixtureProgram(t, "badignore")
	diags, err := prog.Run(&Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := Unsuppressed(diags)
	if len(bad) != 2 {
		t.Fatalf("got %d diagnostics, want 2:\n%v", len(bad), bad)
	}
	if !strings.Contains(bad[0].Message, `unknown analyzer "lockscop"`) {
		t.Errorf("first diagnostic should flag the unknown analyzer, got: %s", bad[0])
	}
	if !strings.Contains(bad[1].Message, "needs a reason") {
		t.Errorf("second diagnostic should flag the missing reason, got: %s", bad[1])
	}
}

func TestRunUnknownAnalyzer(t *testing.T) {
	prog := fixtureProgram(t, "badignore")
	if _, err := prog.Run(&Config{}, "nonesuch"); err == nil {
		t.Fatal("Run with an unknown analyzer name should error")
	}
}
