// Codegen reproduces the Figure-6 scenario: each source file of a game
// project is a prompt module, and prompts "import" whichever files the
// request needs, paying prefill cost only for the request itself.
//
//	go run ./examples/codegen
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/bench"
	"repro/internal/model"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

func main() {
	ctx := context.Background()
	m, err := model.New(model.LlamaStyle(tokenizer.WordBase+4096, 7))
	if err != nil {
		log.Fatal(err)
	}
	client := promptcache.New(m)
	if _, err := client.RegisterSchema(bench.CodeGenSchema); err != nil {
		log.Fatal(err)
	}

	requests := []struct {
		label, prompt string
	}{
		{"entry point (map+player+game)", bench.CodeGenPrompt},
		{"persistence (game+database)", `
<prompt schema="game-codegen">
  <game-py/><database-py/>
  <user>Add save and load commands to the game loop.</user>
</prompt>`},
		{"unit movement (unit+map)", `
<prompt schema="game-codegen">
  <unit-py/><map-py/>
  <user>Write a helper that moves a unit along map neighbors.</user>
</prompt>`},
	}

	for _, r := range requests {
		t0 := time.Now()
		resp, err := client.Infer(ctx, promptcache.Request{Prompt: r.prompt, Gen: promptcache.GenConfig{MaxTokens: 20}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-32s reused %3d tokens, computed %2d, total %v\n",
			r.label, resp.CachedTokens, resp.NewTokens, time.Since(t0))
		fmt.Printf("  -> %s\n", resp.Text)
	}
	st := client.Snapshot()
	fmt.Printf("\ncache: %d modules encoded once, %d reuses across requests\n",
		st.ModulesEncoded, st.ModulesReused)
}
