package repro

// One benchmark per table and figure in the paper's evaluation (§5).
// Analytic experiments (Figs. 3–5, Table 2, §5.4) regenerate the paper's
// numbers through the calibrated hardware model; engine experiments
// (Table 1, Figs. 6–8, the TTFT benches) run the real Go inference
// engine, so their ns/op directly exhibit the paper's baseline-vs-cached
// shape on this machine.
//
// Run: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/model"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

// report runs a bench-package experiment once per iteration, discarding
// the rendered output.
func report(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := bench.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		rep.Print(io.Discard)
	}
}

// BenchmarkFig3GPULatency regenerates Figure 3 (GPU TTFT, 8 datasets × 3
// GPUs × 3 configurations).
func BenchmarkFig3GPULatency(b *testing.B) { report(b, "fig3") }

// BenchmarkFig4CPULatency regenerates Figure 4 (CPU TTFT, 8 datasets × 2
// CPUs).
func BenchmarkFig4CPULatency(b *testing.B) { report(b, "fig4") }

// BenchmarkFig5CacheAdvantage regenerates Figure 5 (quadratic baseline vs
// linear memcpy across sequence lengths).
func BenchmarkFig5CacheAdvantage(b *testing.B) { report(b, "fig5") }

// BenchmarkTable2MemoryOverhead regenerates Table 2 (MB per cached token
// for eight published models).
func BenchmarkTable2MemoryOverhead(b *testing.B) { report(b, "table2") }

// BenchmarkSec54ModelSize regenerates §5.4's model-size and end-to-end
// analysis.
func BenchmarkSec54ModelSize(b *testing.B) { report(b, "sec54") }

// BenchmarkTable1Accuracy regenerates a reduced Table 1 grid (real
// engine inference: 8 datasets × 4 architectures, cached vs baseline).
func BenchmarkTable1Accuracy(b *testing.B) { report(b, "table1-quick") }

// useCaseBench measures real engine serving for a §5.6 use case, cached
// vs baseline: the cached/baseline ns/op ratio is the figure's claim.
func useCaseBench(b *testing.B, schema, prompt string) {
	m, err := model.New(model.LlamaStyle(tokenizer.WordBase+2048, 555))
	if err != nil {
		b.Fatal(err)
	}
	client := promptcache.New(m)
	if _, err := client.RegisterSchema(schema); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := client.Infer(ctx, promptcache.Request{Prompt: prompt, Baseline: true, PrefillOnly: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := client.Infer(ctx, promptcache.Request{Prompt: prompt, PrefillOnly: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig6CodeGen measures the Figure-6 code-generation scenario on
// the real engine.
func BenchmarkFig6CodeGen(b *testing.B) {
	useCaseBench(b, bench.CodeGenSchema, bench.CodeGenPrompt)
}

// BenchmarkFig7Personalization measures the Figure-7 personalization
// scenario on the real engine.
func BenchmarkFig7Personalization(b *testing.B) {
	useCaseBench(b, bench.PersonalizationSchema, bench.PersonalizationPrompt)
}

// BenchmarkFig8Parameterized measures the Figure-8 parameterized-prompt
// scenario on the real engine.
func BenchmarkFig8Parameterized(b *testing.B) {
	useCaseBench(b, bench.TripPlanSchema, bench.TripPlanPrompt)
}

// BenchmarkServeCachedPrefix is the zero-copy headline: TTFT of serving
// a tiny user suffix over a cached prefix of 512/2K/8K tokens, cached
// (segment views, no per-request copy of module rows) vs baseline (full
// prefill). Run with -benchmem: cached B/op and allocs/op are
// independent of prefix length — the serve allocates for its suffix
// only — while cached time grows just with the suffix's linear attention
// span and the baseline grows quadratically.
func BenchmarkServeCachedPrefix(b *testing.B) {
	cfg := model.LlamaStyle(tokenizer.WordBase+2048, 1234)
	cfg.MaxSeq = 10240 // room for the 8K prefix plus suffix and decode
	m, err := model.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	client := promptcache.New(m)
	ctx := context.Background()
	for _, n := range []int{512, 2048, 8192} {
		name := fmt.Sprintf("prefix-%d", n)
		// One-time module encoding (≈18s at 8K on one CPU): the cost the
		// paper trades for per-request reuse; excluded from timed loops.
		if _, err := client.RegisterSchema(bench.EngineSchema(name, n, uint64(n))); err != nil {
			b.Fatal(err)
		}
		prompt := fmt.Sprintf("<prompt schema=%q><doc/><user>summarize the document</user></prompt>", name)
		b.Run(fmt.Sprintf("cached-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := client.Infer(ctx, promptcache.Request{Prompt: prompt, PrefillOnly: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("baseline-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := client.Infer(ctx, promptcache.Request{Prompt: prompt, Baseline: true, PrefillOnly: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeParallel measures cached-serve throughput through one
// client at increasing worker counts. Before the lock refactor every
// prefill serialized on the cache mutex and workers-8 matched workers-1;
// the speedup now visible is the payoff of prefilling outside the lock.
func BenchmarkServeParallel(b *testing.B) {
	m, err := model.New(model.LlamaStyle(tokenizer.WordBase+2048, 999))
	if err != nil {
		b.Fatal(err)
	}
	client := promptcache.New(m)
	if _, err := client.RegisterSchema(bench.EngineSchema("par", 256, 3)); err != nil {
		b.Fatal(err)
	}
	prompt := `<prompt schema="par"><doc/><user>summarize the document</user></prompt>`
	ctx := context.Background()
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			work := make(chan struct{})
			fail := make(chan error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range work {
						if _, err := client.Infer(ctx, promptcache.Request{Prompt: prompt, PrefillOnly: true}); err != nil {
							select {
							case fail <- err:
							default:
							}
						}
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work <- struct{}{}
			}
			close(work)
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-fail:
				b.Fatal(err)
			default:
			}
		})
	}
}

// BenchmarkSchemaEncoding measures prompt-module encoding cost (§3.3),
// the one-time price a schema registration pays.
func BenchmarkSchemaEncoding(b *testing.B) {
	m, err := model.New(model.LlamaStyle(tokenizer.WordBase+2048, 888))
	if err != nil {
		b.Fatal(err)
	}
	schema := bench.EngineSchema("enc", 256, 99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client := promptcache.New(m)
		if _, err := client.RegisterSchema(schema); err != nil {
			b.Fatal(err)
		}
	}
}
