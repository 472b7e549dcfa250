// Streaming demonstrates token-by-token generation with Prompt Cache:
// the time-to-first-token the paper optimizes is exactly the delay before
// the first streamed token arrives. The example serves the same prompt
// with and without attention reuse through one Infer call each, using
// the request's Stream sink for per-token delivery.
//
//	go run ./examples/streaming
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
	m, err := model.New(model.LlamaStyle(tokenizer.WordBase+4096, 55))
	if err != nil {
		log.Fatal(err)
	}
	client := promptcache.New(m)
	// A sizeable document so prefill dominates TTFT.
	if _, err := client.RegisterSchema(bench.EngineSchema("news", 512, 7)); err != nil {
		log.Fatal(err)
	}
	prompt := `<prompt schema="news"><doc/><user>Summarize the document.</user></prompt>`

	stream := func(label string, baseline bool) {
		start := time.Now()
		first := time.Duration(0)
		_, err := client.Infer(ctx, promptcache.Request{
			Prompt:   prompt,
			Baseline: baseline,
			Stream: func(text string) bool {
				if first == 0 {
					first = time.Since(start)
					fmt.Printf("%-22s TTFT %8.1f ms | ", label, first.Seconds()*1e3)
				}
				fmt.Printf("%s ", text)
				return true
			},
			Gen: promptcache.GenConfig{MaxTokens: 8, Sampler: &promptcache.RepetitionPenalty{Penalty: 1.5, Window: 16}},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	stream("baseline (no reuse)", true)
	stream("prompt cache", false)
}
