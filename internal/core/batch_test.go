package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/model"
)

func TestServeBatchMatchesIndividualServes(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	prompts := []string{
		`<prompt schema="travel"><trip-plan duration="two days"/><miami/>Plan it.</prompt>`,
		`<prompt schema="travel"><trip-plan duration="one week"/><tokyo/>Plan it.</prompt>`,
		`<prompt schema="travel"><miami/>Just the beaches please.</prompt>`,
	}
	batch, stats, err := c.ServeBatch(context.Background(), prompts, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 || stats.Prompts != 3 {
		t.Fatalf("batch size %d stats %+v", len(batch), stats)
	}
	for i, p := range prompts {
		solo, err := c.Serve(context.Background(), p, ServeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		// Same code path, so bit equality rather than a tolerance.
		for j := range solo.Logits {
			if math.Float32bits(batch[i].Logits[j]) != math.Float32bits(solo.Logits[j]) {
				t.Fatalf("prompt %d: batch vs solo logit %d differ: %v vs %v", i, j, batch[i].Logits[j], solo.Logits[j])
			}
		}
		if batch[i].CachedTokens != solo.CachedTokens {
			t.Fatalf("prompt %d: cached token mismatch", i)
		}
	}
}

func TestServeBatchSharesModules(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	// All prompts share _anon0 and miami.
	var prompts []string
	for i := 0; i < 10; i++ {
		prompts = append(prompts, fmt.Sprintf(
			`<prompt schema="travel"><miami/>Question number %d about surfing.</prompt>`, i))
	}
	_, stats, err := c.ServeBatch(context.Background(), prompts, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SharedModules == 0 {
		t.Fatal("no sharing recorded")
	}
	// 10 prompts × 2 modules logically, 2 modules physically → ~90%.
	if s := stats.Savings(); s < 0.85 {
		t.Fatalf("savings %.2f, want ~0.9 for 10-way sharing", s)
	}
	if stats.PhysicalBytes >= stats.LogicalBytes {
		t.Fatal("physical must be below logical under sharing")
	}
}

func TestServeBatchHalvesPaperScenario(t *testing.T) {
	// §3.4's worked example: prompts of 2K tokens sharing a 1K module →
	// ~50% footprint reduction. Scaled down: a shared module and a
	// per-prompt unique module of equal size.
	schema := `<schema name="b">
	  <module name="shared">` + repeatWords("shared context words", 30) + `</module>
	  <module name="u0">` + repeatWords("unique zero text", 30) + `</module>
	  <module name="u1">` + repeatWords("unique one text", 30) + `</module>
	  <module name="u2">` + repeatWords("unique two text", 30) + `</module>
	</schema>`
	c := llamaCache(t)
	mustRegister(t, c, schema)
	prompts := []string{
		`<prompt schema="b"><shared/><u0/>go</prompt>`,
		`<prompt schema="b"><shared/><u1/>go</prompt>`,
		`<prompt schema="b"><shared/><u2/>go</prompt>`,
	}
	_, stats, err := c.ServeBatch(context.Background(), prompts, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Logical: 3×(shared+unique); physical: shared + 3 uniques →
	// savings ≈ 1/3 for equal sizes (plus the tiny anon-free schema).
	if s := stats.Savings(); s < 0.25 || s > 0.45 {
		t.Fatalf("savings %.2f, want ~0.33", s)
	}
}

func repeatWords(s string, n int) string {
	out := s
	for i := 0; i < n; i++ {
		out += " " + s
	}
	return out
}

func TestServeBatchErrors(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	if _, _, err := c.ServeBatch(context.Background(), nil, ServeOpts{}); err == nil {
		t.Fatal("empty batch should error")
	}
	_, _, err := c.ServeBatch(context.Background(), []string{`<prompt schema="travel"><ghost/>x</prompt>`}, ServeOpts{})
	if err == nil {
		t.Fatal("bad prompt should error")
	}
	_, _, err = c.ServeBatch(context.Background(), []string{`<prompt schema="travel"><tokyo/><miami/>x</prompt>`}, ServeOpts{})
	if err == nil {
		t.Fatal("union clash should error in batch too")
	}
}

// TestBatchResultsGenerateLikeSolo: a batch member is an ordinary serve
// result, so decoding from it matches decoding from a solo serve.
func TestBatchResultsGenerateLikeSolo(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	prompts := []string{
		`<prompt schema="travel"><miami/>Ask one.</prompt>`,
		`<prompt schema="travel"><tokyo/>Ask two.</prompt>`,
	}
	batch, _, err := c.ServeBatch(context.Background(), prompts, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range prompts {
		defer batch[i].Close()
		gen, err := c.Generate(context.Background(), batch[i], model.GenerateOpts{MaxTokens: 5})
		if err != nil {
			t.Fatal(err)
		}
		solo, err := c.Serve(context.Background(), p, ServeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		defer solo.Close()
		soloGen, err := c.Generate(context.Background(), solo, model.GenerateOpts{MaxTokens: 5})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(gen) != fmt.Sprint(soloGen) {
			t.Fatalf("prompt %d: batch generation %v != solo %v", i, gen, soloGen)
		}
	}
}

// TestServeBatchLedger: batch members hold ordinary module pins, so once
// every result is closed — or the batch failed and closed them itself —
// no module stays pinned and the pool holds exactly the resident modules.
func TestServeBatchLedger(t *testing.T) {
	c := llamaCache(t)
	mustRegister(t, c, travelSchema)
	ctx := context.Background()
	good := []string{
		`<prompt schema="travel"><trip-plan duration="two days"/><miami/>Plan it.</prompt>`,
		`<prompt schema="travel"><miami/>Just the beaches please.</prompt>`,
		`<prompt schema="travel"><tokyo/>Temples first.</prompt>`,
	}
	assertLedger := func(when string) {
		t.Helper()
		c.mu.Lock()
		defer c.mu.Unlock()
		var resident int64
		for sname, e := range c.schemas {
			for name, em := range e.modules {
				if em.pins != 0 {
					t.Errorf("%s: module %s/%s has %d pins", when, sname, name, em.pins)
				}
				if em.state == stateResident {
					resident += em.Bytes()
				}
			}
			for _, es := range e.scaffolds {
				resident += es.KV.Bytes(4)
			}
		}
		if used := c.pool.Used(); used != resident {
			t.Errorf("%s: pool holds %d bytes, resident modules sum to %d", when, used, resident)
		}
	}

	batch, _, err := c.ServeBatch(ctx, good, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pinned := 0
	c.mu.Lock()
	for _, em := range c.schemas["travel"].modules {
		pinned += em.pins
	}
	c.mu.Unlock()
	if pinned == 0 {
		t.Fatal("open batch results hold no pins")
	}
	for _, res := range batch {
		res.Close()
	}
	assertLedger("after closed batch")

	// Fails on its third prompt (union clash) after two members served.
	bad := append(append([]string{}, good[:2]...), `<prompt schema="travel"><tokyo/><miami/>x</prompt>`)
	if _, _, err := c.ServeBatch(ctx, bad, ServeOpts{BatchWorkers: 1}); !errors.Is(err, ErrBadPrompt) {
		t.Fatalf("failing batch returned %v, want ErrBadPrompt", err)
	}
	assertLedger("after failed batch")
}
