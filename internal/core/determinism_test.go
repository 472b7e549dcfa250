package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/pml"
)

// multiParamSchema has a module with three parameters — the shape that
// exposed the map-order bug in gatherNewTokens.
const multiParamSchema = `
<schema name="form">
  <module name="letter">
    Dear <param name="name" len="3"/> your order of <param name="item" len="4"/> arrives on <param name="date" len="3"/> thanks.
  </module>
</schema>`

const multiParamPrompt = `<prompt schema="form"><letter name="Ada Lovelace" item="two red kites" date="next tuesday"/>Confirm the delivery.</prompt>`

// TestServeDeterministicMultiParam is the regression test for the
// nondeterministic argument emission: gatherNewTokens used to range over
// the binding map, so a 3-parameter import produced a different
// token/position stream (and therefore different logits) run to run.
// Twenty repeated serves must be byte-identical.
func TestServeDeterministicMultiParam(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, multiParamSchema)

	prompt, err := pml.ParsePrompt(multiParamPrompt)
	if err != nil {
		t.Fatal(err)
	}

	var wantToks, wantPos []int
	var wantKVPos []int
	var wantLogits []float32
	for i := 0; i < 20; i++ {
		// The raw uncached streams, straight from the gatherer.
		c.mu.Lock()
		plan, err := c.planServeLocked(prompt, ServeOpts{})
		c.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		toks, pos, err := c.gatherNewTokens(plan.layout, prompt, plan.bindings, plan.included)
		c.unpinModules(plan.pinned)
		if err != nil {
			t.Fatal(err)
		}

		// The full serve: the KV position stream records the exact
		// emission order of every row, cached and new.
		res, err := c.ServeParsed(context.Background(), prompt, ServeOpts{})
		if err != nil {
			t.Fatal(err)
		}

		if i == 0 {
			wantToks, wantPos = toks, pos
			wantKVPos = append([]int(nil), res.KV.Positions()...)
			wantLogits = res.Logits
			continue
		}
		if !slices.Equal(toks, wantToks) || !slices.Equal(pos, wantPos) {
			t.Fatalf("run %d: new-token stream diverged\n toks %v vs %v\n pos %v vs %v", i, toks, wantToks, pos, wantPos)
		}
		if !slices.Equal(res.KV.Positions(), wantKVPos) {
			t.Fatalf("run %d: KV position stream diverged", i)
		}
		if len(res.Logits) != len(wantLogits) {
			t.Fatalf("run %d: logits width %d vs %d", i, len(res.Logits), len(wantLogits))
		}
		for j := range res.Logits {
			if res.Logits[j] != wantLogits[j] {
				t.Fatalf("run %d: logits[%d] = %v, want %v (not byte-identical)", i, j, res.Logits[j], wantLogits[j])
			}
		}
	}
	// Sanity: all three arguments actually contributed new tokens.
	if len(wantToks) < 6 {
		t.Fatalf("expected several argument tokens, got %d", len(wantToks))
	}
}
