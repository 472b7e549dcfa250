// Quickstart: register a PML schema, serve a prompt with cached attention
// states through the promptcache API, and compare against the
// full-prefill baseline.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/model"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

const schema = `
<schema name="assistant">
  <system>You are a concise assistant. Answer from the provided context.</system>
  <module name="company-facts">
    The company was founded in the harbor district. The founder of the
    company is laurel. The motto of the company is indigo tides. The
    company ships cedar furniture to three markets.
  </module>
  <module name="returns-policy">
    Returns are accepted within thirty days with a receipt. Refunds are
    issued to the original payment method within one week.
  </module>
</schema>`

const prompt = `
<prompt schema="assistant">
  <company-facts/>
  <user>What is the motto of the company?</user>
</prompt>`

func main() {
	ctx := context.Background()

	// 1. Build a model (seeded weights; any architecture family works).
	m, err := model.New(model.LlamaStyle(tokenizer.WordBase+4096, 42))
	if err != nil {
		log.Fatal(err)
	}

	// 2. Wrap it in a prompt-cache client and register the schema.
	//    Registration precomputes attention states for every module (§3.3).
	client := promptcache.New(m)
	info, err := client.RegisterSchema(schema)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schema %q registered: %d modules, %d position IDs\n",
		info.Name, len(info.Modules), info.Positions)

	// 3. Serve the prompt with attention reuse: cached modules are spliced
	//    in, only new text is computed (§3.4). PrefillOnly isolates TTFT.
	t0 := time.Now()
	res, err := client.Infer(ctx, promptcache.Request{Prompt: prompt, PrefillOnly: true})
	if err != nil {
		log.Fatal(err)
	}
	cachedTTFT := time.Since(t0)
	fmt.Printf("cached serve:   %4d reused + %2d new tokens, TTFT %v\n",
		res.CachedTokens, res.NewTokens, cachedTTFT)

	// 4. The baseline recomputes everything.
	t0 = time.Now()
	base, err := client.Infer(ctx, promptcache.Request{Prompt: prompt, Baseline: true, PrefillOnly: true})
	if err != nil {
		log.Fatal(err)
	}
	baseTTFT := time.Since(t0)
	fmt.Printf("baseline serve: %4d tokens recomputed, TTFT %v (%.1fx slower)\n",
		base.NewTokens, baseTTFT, float64(baseTTFT)/float64(cachedTTFT))

	// 5. Generate from both. With more than one independently encoded
	//    module (here: the anonymous system message plus company-facts),
	//    Prompt Cache applies the paper's §3.3 attention-mask
	//    approximation, so outputs may differ slightly; declare the
	//    modules as a <scaffold> to make them match exactly.
	cached, err := client.Infer(ctx, promptcache.Request{Prompt: prompt, Gen: promptcache.GenConfig{MaxTokens: 16}})
	if err != nil {
		log.Fatal(err)
	}
	baseline, err := client.Infer(ctx, promptcache.Request{Prompt: prompt, Baseline: true, Gen: promptcache.GenConfig{MaxTokens: 16}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cached   output: %s\n", cached.Text)
	fmt.Printf("baseline output: %s\n", baseline.Text)
}
