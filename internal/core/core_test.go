package core

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/pml"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
)

const coreVocab = tokenizer.WordBase + 1024

func newTestCache(t *testing.T, cfg model.Config, opts ...Option) *Cache {
	t.Helper()
	m, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewCache(m, opts...)
}

func llamaCache(t *testing.T, opts ...Option) *Cache {
	return newTestCache(t, model.LlamaStyle(coreVocab, 77), opts...)
}

const travelSchema = `
<schema name="travel">
  You are a helpful travel planner.
  <module name="trip-plan">
    Plan a trip of duration <param name="duration" len="4"/> at a relaxed pace.
  </module>
  <union>
    <module name="tokyo">Tokyo is the capital of Japan with superb food and temples.</module>
    <module name="miami">Miami is a coastal city in Florida with beaches and surf.</module>
  </union>
</schema>`

func TestRegisterSchemaEncodesAllModules(t *testing.T) {
	c := llamaCache(t)
	ly, err := c.RegisterSchema(travelSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(ly.Order) != 4 { // _anon0, trip-plan, tokyo, miami
		t.Fatalf("order = %v", ly.Order)
	}
	st := c.Stats()
	if st.ModulesEncoded != 4 {
		t.Fatalf("encoded = %d", st.ModulesEncoded)
	}
	if c.Snapshot().PoolBytes == 0 {
		t.Fatal("pool should hold module states")
	}
}

func TestRegisterSchemaTooLong(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 1)
	cfg.MaxSeq = 8
	c := newTestCache(t, cfg)
	if _, err := c.RegisterSchema(travelSchema); err == nil {
		t.Fatal("expected max-seq error")
	}
}

func TestServeBasic(t *testing.T) {
	c := llamaCache(t)
	if _, err := c.RegisterSchema(travelSchema); err != nil {
		t.Fatal(err)
	}
	res, err := c.Serve(context.Background(), `<prompt schema="travel">
	  <trip-plan duration="three days"/>
	  <miami/>
	  Highlight the surf spots.
	</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CachedTokens == 0 || res.NewTokens == 0 {
		t.Fatalf("cached=%d new=%d", res.CachedTokens, res.NewTokens)
	}
	// anon + trip-plan + miami included; tokyo excluded.
	want := []string{"_anon0", "trip-plan", "miami"}
	if len(res.Modules) != len(want) {
		t.Fatalf("modules = %v", res.Modules)
	}
	for i, m := range want {
		if res.Modules[i] != m {
			t.Fatalf("modules = %v", res.Modules)
		}
	}
	// The cache must be far larger than the new text: reuse happened.
	if res.CachedTokens < 3*res.NewTokens {
		t.Fatalf("too little reuse: cached=%d new=%d", res.CachedTokens, res.NewTokens)
	}
	if len(res.Logits) != coreVocab {
		t.Fatalf("logits width %d", len(res.Logits))
	}
}

func TestServeSchemaUnknown(t *testing.T) {
	c := llamaCache(t)
	if _, err := c.Serve(context.Background(), `<prompt schema="ghost">x</prompt>`, ServeOpts{}); err == nil {
		t.Fatal("expected unknown schema error")
	}
}

func TestServeUnknownModule(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	if _, err := c.Serve(context.Background(), `<prompt schema="travel"><atlantis/>x</prompt>`, ServeOpts{}); err == nil {
		t.Fatal("expected unknown module error")
	}
}

func TestServeUnionExclusivity(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	_, err := c.Serve(context.Background(), `<prompt schema="travel"><tokyo/><miami/>go</prompt>`, ServeOpts{})
	if err == nil || !strings.Contains(err.Error(), "union") {
		t.Fatalf("want union error, got %v", err)
	}
}

func TestServeArgTooLong(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	_, err := c.Serve(context.Background(), `<prompt schema="travel">
	  <trip-plan duration="one two three four five six seven"/>ok</prompt>`, ServeOpts{})
	if err == nil || !strings.Contains(err.Error(), "exceeding") {
		t.Fatalf("want length error, got %v", err)
	}
}

func TestServeUnknownParam(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	_, err := c.Serve(context.Background(), `<prompt schema="travel"><trip-plan speed="fast"/>ok</prompt>`, ServeOpts{})
	if err == nil || !strings.Contains(err.Error(), "parameter") {
		t.Fatalf("want param error, got %v", err)
	}
}

func TestServeNoNewTokensRejected(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	if _, err := c.Serve(context.Background(), `<prompt schema="travel"><miami/></prompt>`, ServeOpts{}); err == nil {
		t.Fatal("expected no-new-tokens error")
	}
}

func mustRegister(t *testing.T, c *Cache, src string) {
	t.Helper()
	if _, err := c.RegisterSchema(src); err != nil {
		t.Fatal(err)
	}
}

// serveClose serves each prompt and releases its pins: the promotion
// and eviction churn a real workload causes.
func serveClose(ctx context.Context, c *Cache, prompts ...string) error {
	for _, p := range prompts {
		res, err := c.Serve(ctx, p, ServeOpts{})
		if err != nil {
			return err
		}
		res.Close()
	}
	return nil
}

// TestSingleModuleExactEquivalence is the core correctness theorem: when
// a prompt consists of one module spanning the schema from position 0
// plus a trailing suffix, cached inference is *numerically equivalent* to
// the full-prefill baseline (it degenerates to prefix sharing, §2.2).
func TestSingleModuleExactEquivalence(t *testing.T) {
	schema := `<schema name="doc">
	  <module name="contract">The tenant shall pay rent monthly and keep the garden tidy at all times.</module>
	</schema>`
	prompt := `<prompt schema="doc"><contract/>Summarize the obligations.</prompt>`
	for _, arch := range []string{"llama", "mpt", "falcon", "gpt2"} {
		cfg, err := model.Preset(arch, coreVocab, 5)
		if err != nil {
			t.Fatal(err)
		}
		c := newTestCache(t, cfg)
		mustRegister(t, c, schema)
		cached, err := c.Serve(context.Background(), prompt, ServeOpts{})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		base, err := c.BaselineServe(context.Background(), prompt)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if d := tensor.MaxAbsDiff(cached.Logits, base.Logits); d > 1e-4 {
			t.Fatalf("%s: cached vs baseline logits differ by %v", cfg.Name, d)
		}
		// Greedy generations agree token for token.
		gc, err := c.Generate(context.Background(), cached, model.GenerateOpts{MaxTokens: 8})
		if err != nil {
			t.Fatal(err)
		}
		gb, err := c.Generate(context.Background(), base, model.GenerateOpts{MaxTokens: 8})
		if err != nil {
			t.Fatal(err)
		}
		if len(gc) != len(gb) {
			t.Fatalf("%s: generation lengths differ", cfg.Name)
		}
		for i := range gc {
			if gc[i] != gb[i] {
				t.Fatalf("%s: generations diverge at %d", cfg.Name, i)
			}
		}
	}
}

// TestMultiModuleOutputsComparable: with several independently encoded
// modules, cached inference applies the §3.3 attention-mask approximation;
// outputs should stay close to baseline (high logit cosine similarity)
// though not necessarily identical.
func TestMultiModuleOutputsComparable(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	prompt := `<prompt schema="travel"><trip-plan duration="two weeks"/><tokyo/>What should we eat?</prompt>`
	cached, err := c.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := c.BaselineServe(context.Background(), prompt)
	if err != nil {
		t.Fatal(err)
	}
	cs := tensor.CosineSimilarity(cached.Logits, base.Logits)
	// An untrained model has no inductive bias toward semantic locality,
	// so the §3.3 masking approximation perturbs logits more than it
	// would for a trained LLM. The meaningful claim: cached output stays
	// much closer to its own baseline than to an unrelated prompt's.
	other, err := c.BaselineServe(context.Background(), `<prompt schema="travel"><miami/>Completely different question about surfing gear rentals.</prompt>`)
	if err != nil {
		t.Fatal(err)
	}
	unrelated := tensor.CosineSimilarity(base.Logits, other.Logits)
	if cs < 0.5 {
		t.Fatalf("cached/baseline logit cosine = %v, want >= 0.5", cs)
	}
	if cs <= unrelated {
		t.Fatalf("cached/baseline cosine %v should exceed unrelated-prompt cosine %v", cs, unrelated)
	}
}

// sameBits reports whether two logit vectors are bit-for-bit identical,
// the repo's cached ≡ baseline contract.
func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// TestScaffoldRestoresBaseline: co-encoding all modules as a scaffold
// removes the masking approximation entirely, so a prompt importing every
// scaffold member must match the baseline bit for bit (§3.3 scaffolding).
func TestScaffoldRestoresBaseline(t *testing.T) {
	schema := `<schema name="s">
	  <module name="alpha">The first clause concerns payment terms and schedules.</module>
	  <module name="beta">The second clause depends on the first clause entirely.</module>
	  <scaffold name="both" modules="alpha beta"/>
	</schema>`
	prompt := `<prompt schema="s"><alpha/><beta/>Explain the dependency.</prompt>`
	c := llamaCache(t)
	mustRegister(t, c, schema)

	withScaffold, err := c.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(withScaffold.Scaffolds) != 1 || withScaffold.Scaffolds[0] != "both" {
		t.Fatalf("scaffolds used = %v", withScaffold.Scaffolds)
	}
	base, err := c.BaselineServe(context.Background(), prompt)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(withScaffold.Logits, base.Logits) {
		t.Fatalf("scaffold vs baseline differ by %v", tensor.MaxAbsDiff(withScaffold.Logits, base.Logits))
	}

	// Ablation: disabling the scaffold reintroduces the approximation.
	masked, err := c.Serve(context.Background(), prompt, ServeOpts{DisableScaffolds: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(masked.Scaffolds) != 0 {
		t.Fatal("scaffold should be disabled")
	}
	if d := tensor.MaxAbsDiff(masked.Logits, base.Logits); d < 1e-6 {
		t.Fatal("independent encoding should differ from co-encoding for dependent modules")
	}
}

// TestScaffoldRequiresAllMembers: importing only part of a scaffold keeps
// individual module states.
func TestScaffoldRequiresAllMembers(t *testing.T) {
	schema := `<schema name="s">
	  <module name="alpha">First part of the context text.</module>
	  <module name="beta">Second part of the context text.</module>
	  <scaffold name="both" modules="alpha beta"/>
	</schema>`
	c := llamaCache(t)
	mustRegister(t, c, schema)
	res, err := c.Serve(context.Background(), `<prompt schema="s"><alpha/>go on</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scaffolds) != 0 {
		t.Fatalf("partial import must not use scaffold, got %v", res.Scaffolds)
	}
}

// TestParameterSubstitution: a supplied argument replaces the <unk>
// buffer rows; the served cache must contain the argument tokens at the
// slot positions and no <unk> rows there.
func TestParameterSubstitution(t *testing.T) {
	c := llamaCache(t)
	ly, err := c.RegisterSchema(travelSchema)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Serve(context.Background(), `<prompt schema="travel"><trip-plan duration="five days"/><miami/>Go.</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	seg := ly.Modules["trip-plan"].ParamSegment("duration")
	argLen := len(c.Tokenizer().Encode("five days"))
	// Count rows at slot positions.
	slotRows := 0
	for _, p := range res.KV.Positions() {
		for _, sp := range seg.Pos {
			if p == sp {
				slotRows++
			}
		}
	}
	if slotRows != argLen {
		t.Fatalf("slot rows = %d, want %d (arg tokens only)", slotRows, argLen)
	}
}

// TestUnsuppliedParamKeepsBuffer: without an argument the <unk> buffer
// rows stay (whitespace semantics, §3.3).
func TestUnsuppliedParamKeepsBuffer(t *testing.T) {
	c := llamaCache(t)
	ly, _ := c.RegisterSchema(travelSchema)
	res, err := c.Serve(context.Background(), `<prompt schema="travel"><trip-plan/><miami/>Go.</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	seg := ly.Modules["trip-plan"].ParamSegment("duration")
	slotRows := 0
	for _, p := range res.KV.Positions() {
		for _, sp := range seg.Pos {
			if p == sp {
				slotRows++
			}
		}
	}
	if slotRows != seg.MaxLen {
		t.Fatalf("slot rows = %d, want full buffer %d", slotRows, seg.MaxLen)
	}
}

// TestNewTextPositionAfterPrecedingModule: uncached text between imports
// takes positions right after the preceding module (§3.4).
func TestNewTextPositions(t *testing.T) {
	schema := `<schema name="s">
	  <module name="a">alpha content words here</module>
	  <module name="b">beta content words here too</module>
	</schema>`
	c := llamaCache(t)
	ly, err := c.RegisterSchema(schema)
	if err != nil {
		t.Fatal(err)
	}
	// Import only a; text should take positions right after a — i.e. in
	// the hole left by excluded b ("in place of excluded modules").
	res, err := c.Serve(context.Background(), `<prompt schema="s"><a/>fresh text</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	a := ly.Modules["a"]
	wantStart := a.Start + a.Len
	// The last NewTokens rows are the fresh text.
	firstNew := res.KV.Positions()[res.KV.Len()-res.NewTokens]
	if firstNew != wantStart {
		t.Fatalf("new text starts at %d, want %d", firstNew, wantStart)
	}

	// With both modules imported, the same text must relocate past the
	// global end instead of overlapping b.
	res2, err := c.Serve(context.Background(), `<prompt schema="s"><a/>fresh text<b/></prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b := ly.Modules["b"]
	firstNew2 := res2.KV.Positions()[res2.KV.Len()-res2.NewTokens]
	if firstNew2 < b.Start+b.Len {
		t.Fatalf("text at %d overlaps included module b [%d,%d)", firstNew2, b.Start, b.Start+b.Len)
	}
}

// TestNestedImports: children import inside their parent; importing a
// nested module at top level is rejected.
func TestNestedImports(t *testing.T) {
	schema := `<schema name="s">
	  <module name="outer">
	    framing text
	    <module name="inner">inner details</module>
	  </module>
	</schema>`
	c := llamaCache(t)
	mustRegister(t, c, schema)
	res, err := c.Serve(context.Background(), `<prompt schema="s"><outer><inner/></outer>Continue.</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(res.Modules, "outer") || !slices.Contains(res.Modules, "inner") {
		t.Fatalf("modules = %v", res.Modules)
	}
	if _, err := c.Serve(context.Background(), `<prompt schema="s"><inner/>x</prompt>`, ServeOpts{}); err == nil {
		t.Fatal("top-level import of nested module should fail")
	}
	if _, err := c.Serve(context.Background(), `<prompt schema="s"><outer>loose text</outer>x</prompt>`, ServeOpts{}); err == nil {
		t.Fatal("text inside an import should fail")
	}
}

// TestParentWithoutChild: importing the parent alone excludes the child.
func TestParentWithoutChild(t *testing.T) {
	schema := `<schema name="s">
	  <module name="outer">framing <module name="inner">inner bits</module> closing</module>
	</schema>`
	c := llamaCache(t)
	mustRegister(t, c, schema)
	res, err := c.Serve(context.Background(), `<prompt schema="s"><outer/>Continue.</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(res.Modules, "inner") {
		t.Fatal("child should not be auto-included")
	}
}

// TestEvictionAndReload: a pool too small for all modules evicts LRU
// entries; a later Serve transparently re-encodes and produces the same
// output as an unconstrained cache.
func TestEvictionAndReload(t *testing.T) {
	cfg := model.LlamaStyle(coreVocab, 99)
	// Budget: enough for roughly half the travel schema's states.
	m, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := NewCache(m)
	mustRegister(t, full, travelSchema)
	need := full.Snapshot().PoolBytes

	small := NewCache(m, WithDeviceCapacity(need/2+1))
	mustRegister(t, small, travelSchema)
	if small.Stats().ModulesEvicted == 0 {
		t.Fatal("expected evictions under tight capacity")
	}

	prompt := `<prompt schema="travel"><trip-plan duration="two days"/><tokyo/>Plan it.</prompt>`
	want, err := full.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := small.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want.Logits, got.Logits); d > 1e-4 {
		t.Fatalf("evicting cache changed output by %v", d)
	}
	if small.Stats().ModulesReloaded == 0 {
		t.Fatal("expected re-encodes after eviction")
	}
}

// TestServeDeterministic: serving the same prompt twice yields identical
// logits (cache reuse is exact, not approximate).
func TestServeDeterministic(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	prompt := `<prompt schema="travel"><miami/>Surf?</prompt>`
	a, err := c.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Serve(context.Background(), prompt, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(a.Logits, b.Logits); d != 0 {
		t.Fatalf("repeat serve differs by %v", d)
	}
	if c.Stats().ModulesReused == 0 {
		t.Fatal("second serve should hit the cache")
	}
}

// TestConcatPermutationInvariance: §3.4 claims module concatenation order
// does not matter. Build the cached prefix with modules in reversed order
// and verify the suffix logits match.
func TestConcatPermutationInvariance(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	e := c.schemas["travel"]

	forward := c.Model().NewCache(256)
	reverse := c.Model().NewCache(256)
	names := []string{"_anon0", "trip-plan", "miami"}
	for _, n := range names {
		appendFiltered(forward, c.store.modules["travel/"+n].KV, nil)
	}
	for i := len(names) - 1; i >= 0; i-- {
		appendFiltered(reverse, c.store.modules["travel/"+names[i]].KV, nil)
	}
	suffix := c.Tokenizer().Encode("tell me about the beaches")
	pos := make([]int, len(suffix))
	for i := range pos {
		pos[i] = e.layout.TotalLen + i
	}
	lf, err := c.Model().Prefill(suffix, pos, forward)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := c.Model().Prefill(suffix, pos, reverse)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(lf, lr); d > 1e-4 {
		t.Fatalf("concat order changed logits by %v", d)
	}
}

// TestReRegisterReplacesSchema frees the old states.
func TestReRegisterReplacesSchema(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	used1 := c.Snapshot().PoolBytes
	mustRegister(t, c, travelSchema)
	if c.Snapshot().PoolBytes != used1 {
		t.Fatalf("pool leaked on re-register: %d -> %d", used1, c.Snapshot().PoolBytes)
	}
}

// TestChatTemplateAppliedToPromptText: role-tagged prompt text is wrapped
// in the model's template tokens.
func TestChatTemplateAppliedToPromptText(t *testing.T) {
	c := llamaCache(t) // llama-style → [INST] wrapping
	mustRegister(t, c, travelSchema)
	res, err := c.Serve(context.Background(), `<prompt schema="travel"><miami/><user>plan it</user></prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wantNew := len(pml.TemplateFor("llama-style").Wrap(pml.RoleUser, c.Tokenizer().Encode("plan it")))
	if res.NewTokens != wantNew {
		t.Fatalf("new tokens = %d, want %d (template-wrapped)", res.NewTokens, wantNew)
	}
}
