// Batchserver demonstrates §3.4's batch optimization on the real engine:
// a burst of prompts importing the same documents is served as one
// InferBatch call: every prompt is an ordinary cached serve, so prompts
// importing the same document view its one resident copy of attention
// states instead of holding their own.
//
//	go run ./examples/batchserver
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/longbench"
	"repro/internal/model"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

func main() {
	m, err := model.New(model.LlamaStyle(tokenizer.WordBase+4096, 66))
	if err != nil {
		log.Fatal(err)
	}
	client := promptcache.New(m)

	// A multi-doc QA workload whose samples draw from a shared pool.
	d, _ := longbench.ByName("HotpotQA")
	w := longbench.Generate(d, longbench.GenConfig{
		Seed: 9, PoolDocs: 3, DocsPerSample: 2, NumSamples: 8, DocSentences: 8,
	})
	if _, err := client.RegisterSchema(w.Schema); err != nil {
		log.Fatal(err)
	}
	prompts := make([]string, len(w.Samples))
	for i, s := range w.Samples {
		prompts[i] = s.Prompt
	}

	resp, err := client.InferBatch(context.Background(), promptcache.BatchRequest{
		Prompts: prompts,
		Gen:     promptcache.GenConfig{MaxTokens: 10},
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range resp.Results {
		fmt.Printf("prompt %d: docs %v, %3d reused + %2d new -> %s\n",
			i, w.Samples[i].Docs, r.CachedTokens, r.NewTokens, r.Text)
	}
	stats := resp.Stats
	fmt.Printf("\nbatch of %d: %d module references shared\n", stats.Prompts, stats.SharedModules)
	fmt.Printf("logical KV bytes %8d (if every prompt duplicated modules)\n", stats.LogicalBytes)
	fmt.Printf("physical KV bytes %7d (each module viewed in place)\n", stats.PhysicalBytes)
	fmt.Printf("memory saved: %.0f%% — the §3.4 batch effect\n", 100*stats.Savings())
}
