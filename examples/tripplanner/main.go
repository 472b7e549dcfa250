// Tripplanner reproduces the Figure-8 scenario: a parameterized
// travel-plan module (trip duration) with nested destination unions,
// reconfigured at runtime while reusing cached states.
//
//	go run ./examples/tripplanner
package main

import (
	"context"
	"errors"
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
	m, err := model.New(model.LlamaStyle(tokenizer.WordBase+4096, 21))
	if err != nil {
		log.Fatal(err)
	}
	client := promptcache.New(m)
	if _, err := client.RegisterSchema(bench.TripPlanSchema); err != nil {
		log.Fatal(err)
	}

	trips := []struct {
		label, prompt string
	}{
		{"a week in Tokyo", bench.TripPlanPrompt},
		{"three days in Paris", `
<prompt schema="travel-planner">
  <travel-plan for="three days"><overseas><paris/></overseas></travel-plan>
  <user>Create a travel plan</user>
</prompt>`},
		{"a weekend in the mountains", `
<prompt schema="travel-planner">
  <travel-plan for="a weekend"><domestic><mountains/></domestic></travel-plan>
  <user>Create a travel plan</user>
</prompt>`},
	}
	for _, tr := range trips {
		t0 := time.Now()
		resp, err := client.Infer(ctx, promptcache.Request{Prompt: tr.prompt, Gen: promptcache.GenConfig{MaxTokens: 18}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s reused %3d + computed %2d tokens, total %v\n  -> %s\n",
			tr.label, resp.CachedTokens, resp.NewTokens, time.Since(t0), resp.Text)
	}

	// Oversized arguments are rejected against the parameter's len, with a
	// typed error the caller can branch on.
	_, err = client.Infer(ctx, promptcache.Request{Prompt: `<prompt schema="travel-planner">
	  <travel-plan for="an extremely long duration that cannot possibly fit the parameter buffer"/>
	  <user>plan</user></prompt>`})
	fmt.Printf("\noversized argument fails as expected (ErrArgTooLong=%v): %v\n",
		errors.Is(err, promptcache.ErrArgTooLong), err)
}
