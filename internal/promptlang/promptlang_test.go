package promptlang

import (
	"strings"
	"testing"

	"repro/internal/pml"
)

const travelProgram = `
schema travel:
  emit "You are a travel planner."
  def trip_plan(duration: 4):
    emit "Plan a trip of"
    arg duration
    emit "days at a relaxed pace."
  choose:
    when tokyo:
      emit "Tokyo is the capital of Japan."
    when miami:
      emit "Miami has beaches and surf."
`

func TestParseBasicProgram(t *testing.T) {
	s, err := parse(travelProgram)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "travel" {
		t.Fatalf("name = %q", s.Name)
	}
	if len(s.Nodes) != 3 { // text, def module, union
		t.Fatalf("nodes = %d", len(s.Nodes))
	}
	mod, ok := s.Nodes[1].(*pml.Module)
	if !ok || mod.Name != "trip_plan" {
		t.Fatalf("node 1 = %#v", s.Nodes[1])
	}
	// def body: text, param, text
	if len(mod.Nodes) != 3 {
		t.Fatalf("def body = %d nodes", len(mod.Nodes))
	}
	p, ok := mod.Nodes[1].(*pml.Param)
	if !ok || p.Name != "duration" || p.Len != 4 {
		t.Fatalf("param = %#v", mod.Nodes[1])
	}
	u, ok := s.Nodes[2].(*pml.Union)
	if !ok || len(u.Members) != 2 {
		t.Fatalf("union = %#v", s.Nodes[2])
	}
	if u.Members[0].Name != "tokyo" || u.Members[1].Name != "miami" {
		t.Fatalf("union members = %v %v", u.Members[0].Name, u.Members[1].Name)
	}
}

func TestCompileToPMLRoundTrip(t *testing.T) {
	out, err := CompileToPML(travelProgram)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := pml.ParseSchema(out)
	if err != nil {
		t.Fatalf("compiled PML does not parse: %v\n%s", err, out)
	}
	if schema.Name != "travel" {
		t.Fatalf("round-trip name = %q", schema.Name)
	}
	// Fixpoint: serialize→parse→serialize is stable.
	again := pml.Serialize(schema)
	schema2, err := pml.ParseSchema(again)
	if err != nil {
		t.Fatal(err)
	}
	if pml.Serialize(schema2) != again {
		t.Fatal("serialize/parse not a fixpoint")
	}
}

func TestIfBecomesModule(t *testing.T) {
	s, err := parse("schema s:\n  if ctx:\n    emit \"context text\"\n")
	if err != nil {
		t.Fatal(err)
	}
	m, ok := s.Nodes[0].(*pml.Module)
	if !ok || m.Name != "ctx" {
		t.Fatalf("if did not become module: %#v", s.Nodes[0])
	}
}

func TestNestedIfBecomesNestedModule(t *testing.T) {
	src := `
schema s:
  if outer:
    emit "outer text"
    if inner:
      emit "inner text"
`
	s, err := parse(src)
	if err != nil {
		t.Fatal(err)
	}
	outer := s.Nodes[0].(*pml.Module)
	if len(outer.Nodes) != 2 {
		t.Fatalf("outer nodes = %d", len(outer.Nodes))
	}
	inner, ok := outer.Nodes[1].(*pml.Module)
	if !ok || inner.Name != "inner" {
		t.Fatalf("inner = %#v", outer.Nodes[1])
	}
}

func TestRoleStatements(t *testing.T) {
	src := "schema s:\n  system \"be safe\"\n  user \"hi\"\n  assistant \"hello\"\n"
	s, err := parse(src)
	if err != nil {
		t.Fatal(err)
	}
	roles := []pml.Role{pml.RoleSystem, pml.RoleUser, pml.RoleAssistant}
	for i, want := range roles {
		txt := s.Nodes[i].(*pml.Text)
		if txt.Role != want {
			t.Fatalf("node %d role = %v", i, txt.Role)
		}
	}
}

func TestScaffoldStatement(t *testing.T) {
	src := `
schema s:
  if a:
    emit "one"
  if b:
    emit "two"
  scaffold pair: a b
`
	s, err := parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Scaffolds) != 1 || s.Scaffolds[0].Name != "pair" || len(s.Scaffolds[0].Modules) != 2 {
		t.Fatalf("scaffolds = %+v", s.Scaffolds)
	}
}

func TestMultipleParams(t *testing.T) {
	src := `
schema s:
  def greet(name: 2, title: 3):
    emit "Dear"
    arg title
    arg name
`
	s, err := parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Nodes[0].(*pml.Module)
	p1 := m.Nodes[1].(*pml.Param)
	p2 := m.Nodes[2].(*pml.Param)
	if p1.Name != "title" || p1.Len != 3 || p2.Name != "name" || p2.Len != 2 {
		t.Fatalf("params = %#v %#v", p1, p2)
	}
}

func TestErrors(t *testing.T) {
	cases := map[string]string{
		"empty":               "",
		"no schema":           "emit \"hi\"\n",
		"schema no colon":     "schema s\n  emit \"x\"\n",
		"bad statement":       "schema s:\n  frobnicate\n",
		"if no colon":         "schema s:\n  if x\n    emit \"a\"\n",
		"if empty body":       "schema s:\n  if x:\n",
		"arg outside def":     "schema s:\n  if m:\n    arg q\n",
		"arg unknown":         "schema s:\n  def f(a: 2):\n    arg b\n",
		"def bad maxlen":      "schema s:\n  def f(a: zero):\n    emit \"x\"\n",
		"def unterminated":    "schema s:\n  def f(a: 2:\n    emit \"x\"\n",
		"choose without when": "schema s:\n  choose:\n    emit \"x\"\n",
		"choose empty":        "schema s:\n  choose:\n",
		"unquoted emit":       "schema s:\n  emit hello\n",
		"scaffold no colon":   "schema s:\n  if a:\n    emit \"x\"\n  scaffold broken a\n",
		"scaffold unknown":    "schema s:\n  if a:\n    emit \"x\"\n  scaffold sc: ghost\n",
		"duplicate modules":   "schema s:\n  if a:\n    emit \"x\"\n  if a:\n    emit \"y\"\n",
		"bad indent jump":     "schema s:\n  if a:\n      emit \"x\"\n    emit \"y\"\n",
	}
	for label, src := range cases {
		if _, err := parse(src); err == nil {
			t.Errorf("%s: expected error", label)
		}
	}
}

func TestCommentsAndBlanksIgnored(t *testing.T) {
	src := `
# a travel schema
schema s:

  # the context
  emit "hello"
`
	s, err := parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Nodes) != 1 {
		t.Fatalf("nodes = %d", len(s.Nodes))
	}
}

func TestTabsAsIndent(t *testing.T) {
	src := "schema s:\n\temit \"tabbed\"\n"
	if _, err := parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestCompiledSchemaServesEndToEnd(t *testing.T) {
	// The compiled PML must be loadable and layout-compilable.
	out, err := CompileToPML(travelProgram)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := pml.ParseSchema(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(schema.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(schema.Nodes))
	}
}

func TestErrorMessageHasLine(t *testing.T) {
	_, err := parse("schema s:\n  emit \"ok\"\n  bogus\n")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error lacks line info: %v", err)
	}
}
