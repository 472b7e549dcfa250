package bench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/hw"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

// AblationScaffold quantifies the §3.3 attention-masking approximation and
// its scaffolding antidote: logit distance and generation overlap versus
// the full-attention baseline, with modules encoded independently versus
// co-encoded as a scaffold.
func AblationScaffold() (*Report, error) {
	schema := `<schema name="ablation">
	  <module name="clause-a">The first clause sets the payment schedule to monthly installments of fixed size.</module>
	  <module name="clause-b">The second clause voids the first clause whenever payments lapse for two periods.</module>
	  <scaffold name="pair" modules="clause-a clause-b"/>
	</schema>`
	prompt := `<prompt schema="ablation"><clause-a/><clause-b/><user>Explain how the clauses interact.</user></prompt>`

	rep := &Report{
		ID:     "ablation-scaffold",
		Title:  "Masking effect vs scaffolding (§3.3 ablation)",
		Header: []string{"Model", "Encoding", "LogitCosine", "GenOverlap"},
		Notes: []string{
			"Co-encoded scaffolds share the attention span and must match the baseline exactly (cosine 1.0).",
		},
	}
	for _, cfg := range []model.Config{
		model.LlamaStyle(tokenizer.WordBase+2048, 31),
		model.MPTStyle(tokenizer.WordBase+2048, 32),
	} {
		m, err := model.New(cfg)
		if err != nil {
			return nil, err
		}
		client := promptcache.New(m)
		if _, err := client.RegisterSchema(schema); err != nil {
			return nil, err
		}
		ctx := context.Background()
		base, err := client.Infer(ctx, promptcache.Request{Prompt: prompt, Baseline: true, MaxTokens: 16})
		if err != nil {
			return nil, err
		}
		for _, mode := range []struct {
			label    string
			disabled bool
		}{{"scaffold", false}, {"independent", true}} {
			res, err := client.Infer(ctx, promptcache.Request{
				Prompt: prompt, DisableScaffolds: mode.disabled, MaxTokens: 16,
			})
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{
				cfg.Name, mode.label,
				f3(tensor.CosineSimilarity(res.Logits, base.Logits)),
				f3(metrics.TokenOverlap(res.Tokens, base.Tokens)),
			})
		}
	}
	return rep, nil
}

// AblationMasking measures how the §3.3 attention-mask approximation
// grows with module granularity: the same ~160-token context split into
// 1, 2, 4 or 8 independently encoded modules, compared against the
// full-attention baseline. One module is exact; more modules mask more
// cross-attention.
func AblationMasking() (*Report, error) {
	words := []string{"harbor", "archive", "council", "garden", "bridge",
		"records", "railway", "festival", "market", "castle"}
	const totalWords = 160
	rep := &Report{
		ID:     "ablation-masking",
		Title:  "Masking severity vs module granularity (same context, more modules)",
		Header: []string{"Modules", "LogitCosine vs baseline"},
		Notes: []string{
			"1 module degenerates to prefix sharing (exact); finer splits mask more cross-module attention.",
		},
	}
	m, err := model.New(model.LlamaStyle(tokenizer.WordBase+2048, 929))
	if err != nil {
		return nil, err
	}
	r := rng.New(929)
	body := make([]string, totalWords)
	for i := range body {
		body[i] = rng.Choice(r, words)
	}
	prevCos := 2.0
	for _, parts := range []int{1, 2, 4, 8} {
		client := promptcache.New(m)
		var sb strings.Builder
		fmt.Fprintf(&sb, `<schema name="mask%d">`, parts)
		per := totalWords / parts
		var imports strings.Builder
		for p := 0; p < parts; p++ {
			fmt.Fprintf(&sb, `<module name="part%d">%s</module>`, p,
				strings.Join(body[p*per:(p+1)*per], " "))
			fmt.Fprintf(&imports, "<part%d/>", p)
		}
		sb.WriteString(`</schema>`)
		if _, err := client.RegisterSchema(sb.String()); err != nil {
			return nil, err
		}
		prompt := fmt.Sprintf(`<prompt schema="mask%d">%s summarize everything</prompt>`, parts, imports.String())
		ctx := context.Background()
		cres, err := client.Infer(ctx, promptcache.Request{Prompt: prompt, PrefillOnly: true})
		if err != nil {
			return nil, err
		}
		bres, err := client.Infer(ctx, promptcache.Request{Prompt: prompt, Baseline: true, PrefillOnly: true})
		if err != nil {
			return nil, err
		}
		cos := tensor.CosineSimilarity(cres.Logits, bres.Logits)
		rep.Rows = append(rep.Rows, []string{fmt.Sprintf("%d", parts), f3(cos)})
		_ = prevCos
		prevCos = cos
	}
	return rep, nil
}

// AblationPagedSharing reproduces the §3.4/§5.4 batch-memory argument:
// 100 requests sharing a 1K-token module out of 2K-token prompts halve
// the KV footprint when every request views the module's one copy. The
// accounting is core.BatchStats': logical bytes sum every reference,
// physical bytes count each distinct buffer once.
func AblationPagedSharing() *Report {
	const (
		requests     = 100
		moduleTokens = 1000
		uniqueTokens = 1000
	)
	perToken := hw.Llama7B().BytesPerToken()
	logical := requests * (moduleTokens + uniqueTokens) * perToken
	phys := (moduleTokens + requests*uniqueTokens) * perToken
	rep := &Report{
		ID:     "ablation-paged",
		Title:  "Batch memory with shared prompt modules (100 × 2K-token prompts, 1K shared)",
		Header: []string{"Accounting", "GiB"},
		Notes: []string{
			"Paper §3.4: sharing the 1K module halves the batch KV footprint.",
		},
	}
	gib := func(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<30)) }
	rep.Rows = append(rep.Rows,
		[]string{"Without sharing (logical)", gib(logical)},
		[]string{"With paged sharing (physical)", gib(phys)},
		[]string{"Savings", fmt.Sprintf("%.0f%%", 100*(1-float64(phys)/float64(logical)))},
	)
	return rep
}

// AblationConcat measures the buffered concatenation operator (§4.2)
// against naive concat-into-fresh-buffers, in bytes allocated to
// assemble a 32-module prompt.
func AblationConcat() *Report {
	const (
		modules = 32
		tokens  = 64
		nLayers = 4
		kvDim   = 64
	)
	parts := make([]*kvcache.Cache, modules)
	for i := range parts {
		kv := kvcache.New(nLayers, kvDim, tokens)
		row := make([]float32, kvDim)
		for t := 0; t < tokens; t++ {
			for l := 0; l < nLayers; l++ {
				kv.AppendToken(l, row, row)
			}
			kv.AppendPos(i*tokens + t)
		}
		parts[i] = kv
	}
	// Naive: each append creates a fresh exact-size buffer (PyTorch cat
	// semantics) — total allocation is quadratic in module count.
	naive := 0
	acc := kvcache.New(nLayers, kvDim, 0)
	for _, p := range parts {
		fresh := kvcache.New(nLayers, kvDim, acc.Len()+p.Len())
		fresh.AppendCache(acc)
		fresh.AppendCache(p)
		naive += fresh.Len() * nLayers * kvDim * 2 * 4
		acc = fresh
	}
	// Buffered: one pre-sized buffer (kvcache.Concat).
	buffered := modules * tokens * nLayers * kvDim * 2 * 4
	rep := &Report{
		ID:     "ablation-concat",
		Title:  "Buffered vs naive concatenation (32 modules × 64 tokens)",
		Header: []string{"Strategy", "Bytes allocated", "Relative"},
	}
	rep.Rows = append(rep.Rows,
		[]string{"Naive (fresh tensor per concat)", fmt.Sprintf("%d", naive), fmt.Sprintf("%.1fx", float64(naive)/float64(buffered))},
		[]string{"Buffered (§4.2)", fmt.Sprintf("%d", buffered), "1.0x"},
	)
	return rep
}
