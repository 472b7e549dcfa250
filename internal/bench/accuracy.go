package bench

import (
	"context"
	"fmt"

	"repro/internal/longbench"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

// AccuracyConfig scales the Table-1 run. Defaults keep the full 4-model ×
// 8-dataset grid at engine-friendly document sizes.
type AccuracyConfig struct {
	Seed         uint64
	Samples      int // prompts per dataset (default 4)
	DocSentences int // sentences per document (default 9)
	MaxNewTokens int // generation length (default 20)
}

func (c *AccuracyConfig) defaults() {
	if c.Samples <= 0 {
		c.Samples = 4
	}
	if c.DocSentences <= 0 {
		c.DocSentences = 9
	}
	if c.MaxNewTokens <= 0 {
		c.MaxNewTokens = 20
	}
}

// table1Vocab sizes the engine vocabulary for accuracy runs.
const table1Vocab = tokenizer.WordBase + 2048

// table1Models returns the four architecture stand-ins of Table 1, in
// paper column order: Llama2 7B, Llama2 13B, MPT 7B, Falcon 7B.
func table1Models(seed uint64) []model.Config {
	return []model.Config{
		model.LlamaStyle(table1Vocab, seed),
		model.LlamaStyleLarge(table1Vocab, seed+1),
		model.MPTStyle(table1Vocab, seed+2),
		model.FalconStyle(table1Vocab, seed+3),
	}
}

// scoreFor applies the dataset's Table-1 metric.
func scoreFor(d longbench.Dataset, prediction, reference string) float64 {
	switch d.Metric {
	case "Rouge L":
		return metrics.RougeL(prediction, reference)
	case "Acc":
		return metrics.Contains(prediction, reference)
	case "EditSim":
		return metrics.EditSim(prediction, reference)
	default:
		return metrics.F1(prediction, reference)
	}
}

// Table1Appendix runs the accuracy comparison over the full 21-dataset
// LongBench roster (the appendix scope) with one architecture, at
// engine-friendly document sizes.
func Table1Appendix(cfg AccuracyConfig) (*Report, error) {
	cfg.defaults()
	rep := &Report{
		ID:     "table1-all21",
		Title:  "Appendix accuracy: all 21 LongBench datasets (llama-style)",
		Header: []string{"Dataset", "Category", "Metric", "Baseline", "Cached", "LogitCos"},
	}
	m, err := model.New(model.LlamaStyle(table1Vocab, cfg.Seed+500))
	if err != nil {
		return nil, err
	}
	client := promptcache.New(m)
	ctx := context.Background()
	for _, d := range longbench.All21() {
		w := longbench.Generate(d, longbench.GenConfig{
			Seed: cfg.Seed, NumSamples: cfg.Samples,
			PoolDocs: 3, DocsPerSample: 2, DocSentences: cfg.DocSentences,
		})
		if _, err := client.RegisterSchema(w.Schema); err != nil {
			return nil, fmt.Errorf("appendix %s: %w", d.Name, err)
		}
		var baseScores, cachedScores, cosines []float64
		for _, s := range w.Samples {
			cres, err := client.Infer(ctx, promptcache.Request{Prompt: s.Prompt, Gen: promptcache.GenConfig{MaxTokens: cfg.MaxNewTokens}})
			if err != nil {
				return nil, err
			}
			bres, err := client.Infer(ctx, promptcache.Request{Prompt: s.Prompt, Baseline: true, Gen: promptcache.GenConfig{MaxTokens: cfg.MaxNewTokens}})
			if err != nil {
				return nil, err
			}
			cachedScores = append(cachedScores, scoreFor(d, cres.Text, s.Reference))
			baseScores = append(baseScores, scoreFor(d, bres.Text, s.Reference))
			cosines = append(cosines, tensor.CosineSimilarity(cres.Logits, bres.Logits))
		}
		rep.Rows = append(rep.Rows, []string{
			d.Name, d.Category.String(), d.Metric,
			f3(metrics.Mean(baseScores)), f3(metrics.Mean(cachedScores)), f3(metrics.Mean(cosines)),
		})
	}
	return rep, nil
}

// Table1 regenerates Table 1 (§5.3): for each of the eight LongBench
// datasets and four transformer architectures, score greedy generations
// with and without Prompt Cache against the workload references. A
// fidelity column (token overlap between the cached and baseline
// generations of the *same* model) directly quantifies the §3.3 masking
// approximation, which is the table's real claim.
func Table1(cfg AccuracyConfig) (*Report, error) {
	cfg.defaults()
	rep := &Report{
		ID:     "table1",
		Title:  "Accuracy on LongBench (baseline vs Prompt Cache, greedy sampling)",
		Header: []string{"Dataset", "Metric", "Model", "Baseline", "Cached", "LogitCos", "GenOverlap"},
		Notes: []string{
			"Models are seeded architecture stand-ins (see DESIGN.md): absolute reference scores need trained weights and sit near zero for both columns; the paired Baseline≈Cached equality is the reproduced claim.",
			"LogitCos = cosine of first-token logits cached-vs-baseline (the direct §3.3 masking measurement); GenOverlap = token overlap of the greedy generations, which amplifies any divergence.",
		},
	}
	for _, mcfg := range table1Models(cfg.Seed + 100) {
		m, err := model.New(mcfg)
		if err != nil {
			return nil, err
		}
		client := promptcache.New(m)
		ctx := context.Background()
		for _, d := range longbench.Figure8() {
			w := longbench.Generate(d, longbench.GenConfig{
				Seed:          cfg.Seed,
				NumSamples:    cfg.Samples,
				PoolDocs:      4,
				DocsPerSample: 2,
				DocSentences:  cfg.DocSentences,
			})
			if _, err := client.RegisterSchema(w.Schema); err != nil {
				return nil, fmt.Errorf("table1 %s/%s: %w", mcfg.Name, d.Name, err)
			}
			var baseScores, cachedScores, fidelities, cosines []float64
			for _, s := range w.Samples {
				cres, err := client.Infer(ctx, promptcache.Request{Prompt: s.Prompt, Gen: promptcache.GenConfig{MaxTokens: cfg.MaxNewTokens}})
				if err != nil {
					return nil, fmt.Errorf("table1 serve %s/%s: %w", mcfg.Name, d.Name, err)
				}
				bres, err := client.Infer(ctx, promptcache.Request{Prompt: s.Prompt, Baseline: true, Gen: promptcache.GenConfig{MaxTokens: cfg.MaxNewTokens}})
				if err != nil {
					return nil, err
				}
				cachedScores = append(cachedScores, scoreFor(d, cres.Text, s.Reference))
				baseScores = append(baseScores, scoreFor(d, bres.Text, s.Reference))
				fidelities = append(fidelities, metrics.TokenOverlap(cres.Tokens, bres.Tokens))
				cosines = append(cosines, tensor.CosineSimilarity(cres.Logits, bres.Logits))
			}
			rep.Rows = append(rep.Rows, []string{
				d.Name, d.Metric, mcfg.Name,
				f3(metrics.Mean(baseScores)),
				f3(metrics.Mean(cachedScores)),
				f3(metrics.Mean(cosines)),
				f3(metrics.Mean(fidelities)),
			})
		}
	}
	return rep, nil
}
