package pml

import (
	"strings"
	"testing"

	"repro/internal/tokenizer"
)

const citiesSchema = `
<schema name="cities">
  You are a travel assistant.
  <module name="city-info">General info about world cities and their culture.</module>
  <module name="trip-plan">
    Plan a trip of duration <param name="duration" len="3"/> with a relaxed pace.
  </module>
  <union>
    <module name="tokyo">Tokyo is the capital of Japan, famous for Shibuya crossing.</module>
    <module name="miami">Miami is a coastal city in Florida, famous for beaches.</module>
    <module name="paris">Paris is the capital of France, famous for the Eiffel tower.</module>
  </union>
</schema>`

func mustSchema(t *testing.T, src string) *Schema {
	t.Helper()
	s, err := ParseSchema(src)
	if err != nil {
		t.Fatalf("ParseSchema: %v", err)
	}
	return s
}

func TestParseSchemaBasic(t *testing.T) {
	s := mustSchema(t, citiesSchema)
	if s.Name != "cities" {
		t.Fatalf("name = %q", s.Name)
	}
	// anonymous text + 2 modules + union
	if len(s.Nodes) != 4 {
		t.Fatalf("nodes = %d", len(s.Nodes))
	}
	if _, ok := s.Nodes[0].(*Text); !ok {
		t.Fatalf("node 0 should be text, got %T", s.Nodes[0])
	}
	u, ok := s.Nodes[3].(*Union)
	if !ok {
		t.Fatalf("node 3 should be union, got %T", s.Nodes[3])
	}
	if len(u.Members) != 3 {
		t.Fatalf("union members = %d", len(u.Members))
	}
}

func TestParseSchemaParam(t *testing.T) {
	s := mustSchema(t, citiesSchema)
	m := s.Nodes[2].(*Module)
	if m.Name != "trip-plan" {
		t.Fatalf("module = %q", m.Name)
	}
	var p *Param
	for _, n := range m.Nodes {
		if pp, ok := n.(*Param); ok {
			p = pp
		}
	}
	if p == nil || p.Name != "duration" || p.Len != 3 {
		t.Fatalf("param = %+v", p)
	}
}

func TestParseSchemaErrors(t *testing.T) {
	cases := map[string]string{
		"no schema root":      `<module name="x">hi</module>`,
		"missing name":        `<schema>hi</schema>`,
		"unterminated":        `<schema name="s"><module name="m">text`,
		"bad close order":     `<schema name="s"><module name="m">text</schema></module>`,
		"dup module":          `<schema name="s"><module name="m">a</module><module name="m">b</module></schema>`,
		"dup module in union": `<schema name="s"><module name="m">a</module><union><module name="m">b</module><module name="n">c</module></union></schema>`,
		"reserved name":       `<schema name="s"><module name="union">a</module></schema>`,
		"param no len":        `<schema name="s"><module name="m"><param name="p"/></module></schema>`,
		"param bad len":       `<schema name="s"><module name="m"><param name="p" len="-2"/></module></schema>`,
		"param outside":       `<schema name="s"><param name="p" len="2"/></schema>`,
		"dup param":           `<schema name="s"><module name="m"><param name="p" len="1"/><param name="p" len="2"/></module></schema>`,
		"union with text":     `<schema name="s"><union>hello<module name="m">a</module></union></schema>`,
		"union non-module":    `<schema name="s"><union><param name="p" len="1"/></union></schema>`,
		"empty union":         `<schema name="s"><union></union></schema>`,
		"nested schema":       `<schema name="s"><schema name="t"></schema></schema>`,
		"unknown element":     `<schema name="s"><frobnicate/></schema>`,
		"trailing content":    `<schema name="s">x</schema>more`,
		"scaffold unknown":    `<schema name="s"><module name="m">a</module><scaffold name="sc" modules="m ghost"/></schema>`,
		"dup scaffold":        `<schema name="s"><module name="m">a</module><scaffold name="sc" modules="m"/><scaffold name="sc" modules="m"/></schema>`,
		"unquoted attr":       `<schema name=s>x</schema>`,
		"attr no value":       `<schema name="s"><module name>x</module></schema>`,
	}
	for label, src := range cases {
		if _, err := ParseSchema(src); err == nil {
			t.Errorf("%s: expected error", label)
		}
	}
}

func TestParseSchemaChatTags(t *testing.T) {
	s := mustSchema(t, `<schema name="c">
	  <system>Be helpful.</system>
	  <module name="m"><user>What is up?</user></module>
	</schema>`)
	txt := s.Nodes[0].(*Text)
	if txt.Role != RoleSystem || txt.Content != "Be helpful." {
		t.Fatalf("system text = %+v", txt)
	}
	m := s.Nodes[1].(*Module)
	inner := m.Nodes[0].(*Text)
	if inner.Role != RoleUser {
		t.Fatalf("user role missing: %+v", inner)
	}
}

func TestParseSchemaScaffold(t *testing.T) {
	s := mustSchema(t, `<schema name="c">
	  <module name="a">alpha</module>
	  <module name="b">beta</module>
	  <scaffold name="ab" modules="a b"/>
	</schema>`)
	if len(s.Scaffolds) != 1 || s.Scaffolds[0].Name != "ab" || len(s.Scaffolds[0].Modules) != 2 {
		t.Fatalf("scaffolds = %+v", s.Scaffolds)
	}
}

func TestParseSchemaNestedModules(t *testing.T) {
	s := mustSchema(t, `<schema name="c">
	  <module name="outer">
	    before
	    <module name="inner">nested content</module>
	    after
	  </module>
	</schema>`)
	outer := s.Nodes[0].(*Module)
	if len(outer.Nodes) != 3 {
		t.Fatalf("outer nodes = %d", len(outer.Nodes))
	}
	if _, ok := outer.Nodes[1].(*Module); !ok {
		t.Fatalf("middle node should be module, got %T", outer.Nodes[1])
	}
}

func TestParseSchemaEntities(t *testing.T) {
	s := mustSchema(t, `<schema name="c"><module name="m">a &lt; b &amp; c</module></schema>`)
	m := s.Nodes[0].(*Module)
	txt := m.Nodes[0].(*Text)
	if txt.Content != "a < b & c" {
		t.Fatalf("entities not unescaped: %q", txt.Content)
	}
}

func TestParsePromptBasic(t *testing.T) {
	p, err := ParsePrompt(`<prompt schema="cities">
	  <trip-plan duration="3 days"/>
	  <miami/>
	  Highlight the surf spots.
	</prompt>`)
	if err != nil {
		t.Fatal(err)
	}
	if p.SchemaName != "cities" {
		t.Fatalf("schema = %q", p.SchemaName)
	}
	if len(p.Items) != 3 {
		t.Fatalf("items = %d", len(p.Items))
	}
	imp := p.Items[0].(*Import)
	if imp.Name != "trip-plan" || imp.Args["duration"] != "3 days" {
		t.Fatalf("import = %+v", imp)
	}
	if _, ok := p.Items[2].(*PromptText); !ok {
		t.Fatalf("item 2 should be text, got %T", p.Items[2])
	}
}

func TestParsePromptNestedImports(t *testing.T) {
	p, err := ParsePrompt(`<prompt schema="travel">
	  <travel-plan for="a week"><overseas><tokyo/></overseas></travel-plan>
	  <user>Create a travel plan</user>
	</prompt>`)
	if err != nil {
		t.Fatal(err)
	}
	top := p.Items[0].(*Import)
	if top.Name != "travel-plan" || top.Args["for"] != "a week" {
		t.Fatalf("top import = %+v", top)
	}
	mid := top.Children[0].(*Import)
	if mid.Name != "overseas" || len(mid.Children) != 1 {
		t.Fatalf("mid import = %+v", mid)
	}
	if u := p.Items[1].(*PromptText); u.Role != RoleUser {
		t.Fatalf("user item = %+v", u)
	}
}

func TestParsePromptErrors(t *testing.T) {
	cases := map[string]string{
		"no prompt root":  `<schema name="s">x</schema>`,
		"missing schema":  `<prompt>x</prompt>`,
		"reserved inside": `<prompt schema="s"><module name="m">x</module></prompt>`,
		"unclosed import": `<prompt schema="s"><a>text`,
		"trailing":        `<prompt schema="s">x</prompt>y`,
	}
	for label, src := range cases {
		if _, err := ParsePrompt(src); err == nil {
			t.Errorf("%s: expected error", label)
		}
	}
}

// ---- Layout ----

func compileCities(t *testing.T) (*Layout, *tokenizer.Tokenizer) {
	t.Helper()
	tk := tokenizer.New(tokenizer.WordBase + 4096)
	s := mustSchema(t, citiesSchema)
	ly, err := Compile(s, tk, PlainTemplate())
	if err != nil {
		t.Fatal(err)
	}
	return ly, tk
}

func TestLayoutSequentialStarts(t *testing.T) {
	ly, tk := compileCities(t)
	anon := ly.Modules["_anon0"]
	if anon == nil || !anon.Anonymous || anon.Start != 0 {
		t.Fatalf("anon = %+v", anon)
	}
	wantAnonLen := len(tk.Encode("You are a travel assistant."))
	if anon.Len != wantAnonLen {
		t.Fatalf("anon len = %d want %d", anon.Len, wantAnonLen)
	}
	ci := ly.Modules["city-info"]
	if ci.Start != anon.Start+anon.Len {
		t.Fatalf("city-info start = %d, want %d", ci.Start, anon.Start+anon.Len)
	}
	tp := ly.Modules["trip-plan"]
	if tp.Start != ci.Start+ci.Len {
		t.Fatalf("trip-plan start = %d", tp.Start)
	}
}

func TestLayoutUnionSharedStart(t *testing.T) {
	ly, _ := compileCities(t)
	tok := ly.Modules["tokyo"]
	mia := ly.Modules["miami"]
	par := ly.Modules["paris"]
	if tok.Start != mia.Start || mia.Start != par.Start {
		t.Fatalf("union starts differ: %d %d %d", tok.Start, mia.Start, par.Start)
	}
	if tok.UnionID != mia.UnionID {
		t.Fatal("union ids differ")
	}
	if members := ly.Unions[mia.UnionID]; len(members) != 3 {
		t.Fatalf("union members = %v", members)
	}
	// The schema's total length accounts for the largest member.
	maxLen := tok.Len
	if mia.Len > maxLen {
		maxLen = mia.Len
	}
	if par.Len > maxLen {
		maxLen = par.Len
	}
	if ly.TotalLen != tok.Start+maxLen {
		t.Fatalf("TotalLen = %d, want %d", ly.TotalLen, tok.Start+maxLen)
	}
}

func TestLayoutParamSlot(t *testing.T) {
	ly, tk := compileCities(t)
	tp := ly.Modules["trip-plan"]
	seg := tp.ParamSegment("duration")
	if seg == nil {
		t.Fatal("param segment missing")
	}
	if len(seg.Tokens) != 3 || seg.Tokens[0] != tokenizer.UnkID {
		t.Fatalf("param tokens = %v", seg.Tokens)
	}
	// Slot positions immediately follow the preceding text.
	pre := len(tk.Encode("Plan a trip of duration"))
	if seg.Pos[0] != tp.Start+pre {
		t.Fatalf("param pos = %d, want %d", seg.Pos[0], tp.Start+pre)
	}
	if tp.Param("duration") == nil || tp.Param("ghost") != nil {
		t.Fatal("Param lookup broken")
	}
}

func TestLayoutNonOverlappingRanges(t *testing.T) {
	ly, _ := compileCities(t)
	// No two non-union, non-nested modules may overlap.
	type span struct {
		name    string
		lo, hi  int
		unionID int
		parent  string
	}
	var spans []span
	for name, m := range ly.Modules {
		spans = append(spans, span{name, m.Start, m.Start + m.Len, m.UnionID, m.Parent})
	}
	for i := 0; i < len(spans); i++ {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.unionID >= 0 && a.unionID == b.unionID {
				continue // union members intentionally share positions
			}
			if a.parent == b.name || b.parent == a.name {
				continue // nested inside the other
			}
			if a.lo < b.hi && b.lo < a.hi && a.lo != a.hi && b.lo != b.hi {
				t.Fatalf("modules %s [%d,%d) and %s [%d,%d) overlap",
					a.name, a.lo, a.hi, b.name, b.lo, b.hi)
			}
		}
	}
}

func TestLayoutNestedChildren(t *testing.T) {
	tk := tokenizer.New(tokenizer.WordBase + 4096)
	s := mustSchema(t, `<schema name="c">
	  <module name="outer">
	    intro words
	    <module name="inner">nested content here</module>
	    outro words
	  </module>
	</schema>`)
	ly, err := Compile(s, tk, PlainTemplate())
	if err != nil {
		t.Fatal(err)
	}
	outer := ly.Modules["outer"]
	inner := ly.Modules["inner"]
	if inner.Parent != "outer" {
		t.Fatalf("inner parent = %q", inner.Parent)
	}
	if len(outer.Children) != 1 || outer.Children[0] != "inner" {
		t.Fatalf("outer children = %v", outer.Children)
	}
	// inner sits between outer's two text segments.
	introLen := len(tk.Encode("intro words"))
	if inner.Start != outer.Start+introLen {
		t.Fatalf("inner start = %d", inner.Start)
	}
	// outer spans its children.
	if outer.Len != introLen+inner.Len+len(tk.Encode("outro words")) {
		t.Fatalf("outer len = %d", outer.Len)
	}
	// outer's own tokens exclude inner's.
	if outer.OwnTokens() != introLen+len(tk.Encode("outro words")) {
		t.Fatalf("outer own tokens = %d", outer.OwnTokens())
	}
}

func TestLayoutUnionInsideModule(t *testing.T) {
	tk := tokenizer.New(tokenizer.WordBase + 4096)
	s := mustSchema(t, `<schema name="c">
	  <module name="travel-plan">
	    plan the trip
	    <union>
	      <module name="overseas">fly abroad with a passport ready</module>
	      <module name="domestic">drive locally</module>
	    </union>
	  </module>
	</schema>`)
	ly, err := Compile(s, tk, PlainTemplate())
	if err != nil {
		t.Fatal(err)
	}
	ov := ly.Modules["overseas"]
	dom := ly.Modules["domestic"]
	if ov.Start != dom.Start {
		t.Fatal("union members in module must share start")
	}
	tp := ly.Modules["travel-plan"]
	if len(tp.Children) != 2 {
		t.Fatalf("children = %v", tp.Children)
	}
	if tp.Len != len(tk.Encode("plan the trip"))+ov.Len { // overseas is larger
		t.Fatalf("travel-plan len = %d", tp.Len)
	}
}

func TestNestedUnionDistinctIDs(t *testing.T) {
	// Regression: a union nested inside a member of another union must
	// get its own UnionID (the outer slot is reserved before members are
	// laid out).
	tk := tokenizer.New(tokenizer.WordBase + 4096)
	s := mustSchema(t, `<schema name="c">
	  <union>
	    <module name="overseas">abroad
	      <union>
	        <module name="tokyo">tokyo city</module>
	        <module name="paris">paris city</module>
	      </union>
	    </module>
	    <module name="domestic">local travel by car</module>
	  </union>
	</schema>`)
	ly, err := Compile(s, tk, PlainTemplate())
	if err != nil {
		t.Fatal(err)
	}
	ov := ly.Modules["overseas"]
	tok := ly.Modules["tokyo"]
	par := ly.Modules["paris"]
	dom := ly.Modules["domestic"]
	if ov.UnionID == tok.UnionID {
		t.Fatalf("nested union shares id with outer union: %d", ov.UnionID)
	}
	if tok.UnionID != par.UnionID {
		t.Fatal("siblings of the inner union must share an id")
	}
	if ov.UnionID != dom.UnionID {
		t.Fatal("members of the outer union must share an id")
	}
	if tok.Start != par.Start {
		t.Fatal("inner union members must share a start")
	}
}

func TestLayoutChatTemplateWrapping(t *testing.T) {
	tk := tokenizer.New(tokenizer.WordBase + 4096)
	s := mustSchema(t, `<schema name="c"><system>obey</system></schema>`)
	ly, err := Compile(s, tk, llamaTemplate())
	if err != nil {
		t.Fatal(err)
	}
	anon := ly.Modules["_anon0"]
	toks := anon.Segments[0].Tokens
	if toks[0] != tokenizer.SysOpenID || toks[len(toks)-1] != tokenizer.SysCloseID {
		t.Fatalf("system wrap = %v", toks)
	}
	// Plain template leaves it bare.
	ly2, err := Compile(s, tk, PlainTemplate())
	if err != nil {
		t.Fatal(err)
	}
	if got := ly2.Modules["_anon0"].Segments[0].Tokens; len(got) != 1 {
		t.Fatalf("plain wrap = %v", got)
	}
}

func TestTemplateWrapRoles(t *testing.T) {
	tm := llamaTemplate()
	content := []int{tokenizer.WordBase + 1}
	u := tm.Wrap(RoleUser, content)
	if u[0] != tokenizer.InstOpenID || u[len(u)-1] != tokenizer.InstCloseID {
		t.Fatalf("user wrap = %v", u)
	}
	a := tm.Wrap(RoleAssistant, content)
	if a[len(a)-1] != tokenizer.EosID {
		t.Fatalf("assistant wrap = %v", a)
	}
	if got := tm.Wrap(RoleNone, content); len(got) != 1 {
		t.Fatalf("none wrap = %v", got)
	}
}

func TestTemplateFor(t *testing.T) {
	if TemplateFor("llama-style").Name != "llama" {
		t.Fatal("llama template lookup")
	}
	if TemplateFor("mpt-style").Name != "chatml" {
		t.Fatal("mpt template lookup")
	}
	if TemplateFor("unknown").Name != "plain" {
		t.Fatal("default template lookup")
	}
}

func TestLayoutAnonymousModules(t *testing.T) {
	ly, _ := compileCities(t)
	anons := ly.AnonymousModules()
	if len(anons) != 1 || anons[0] != "_anon0" {
		t.Fatalf("anon modules = %v", anons)
	}
}

func TestLayoutOrderIsDocumentOrder(t *testing.T) {
	ly, _ := compileCities(t)
	want := []string{"_anon0", "city-info", "trip-plan", "tokyo", "miami", "paris"}
	if len(ly.Order) != len(want) {
		t.Fatalf("order = %v", ly.Order)
	}
	for i, n := range want {
		if ly.Order[i] != n {
			t.Fatalf("order[%d] = %q, want %q", i, ly.Order[i], n)
		}
	}
}

func TestLexerUnterminatedTag(t *testing.T) {
	if _, err := ParseSchema(`<schema name="s"><module name="m`); err == nil {
		t.Fatal("expected error for unterminated tag")
	}
}

func TestLexerLineNumbers(t *testing.T) {
	_, err := ParseSchema("<schema name=\"s\">\n\n<bogus/></schema>")
	if err == nil {
		t.Fatal("expected error")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 3 {
		t.Fatalf("error line = %d, want 3", pe.Line)
	}
}

func TestSelfClosingModuleEmpty(t *testing.T) {
	s := mustSchema(t, `<schema name="c"><module name="empty"/></schema>`)
	m := s.Nodes[0].(*Module)
	if m.Name != "empty" || len(m.Nodes) != 0 {
		t.Fatalf("empty module = %+v", m)
	}
}

func TestRoleString(t *testing.T) {
	for r, want := range map[Role]string{RoleNone: "none", RoleSystem: "system", RoleUser: "user", RoleAssistant: "assistant"} {
		if r.String() != want {
			t.Fatalf("Role(%d).String() = %q", r, r.String())
		}
	}
}

func TestParseErrorFormat(t *testing.T) {
	e := errAt(3, 7, "boom %d", 42)
	if !strings.Contains(e.Error(), "3:7") || !strings.Contains(e.Error(), "boom 42") {
		t.Fatalf("error format = %q", e.Error())
	}
}
