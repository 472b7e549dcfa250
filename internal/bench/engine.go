package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/serving"
	"repro/internal/tokenizer"
	"repro/promptcache"
)

// EngineSchema builds a schema whose single document module is roughly
// docTokens tokens long, for measured engine-scale latency runs.
func EngineSchema(name string, docTokens int, seed uint64) string {
	r := rng.New(seed)
	words := make([]string, docTokens)
	pool := []string{"harbor", "archive", "council", "garden", "bridge",
		"records", "visitors", "seasonal", "trade", "history", "detail",
		"lantern", "market", "castle", "railway", "festival"}
	for i := range words {
		words[i] = rng.Choice(r, pool)
	}
	return fmt.Sprintf("<schema name=%q><module name=\"doc\">%s</module></schema>",
		name, strings.Join(words, " "))
}

// EngineLatency measures real (wall-clock) TTFT on the Go engine itself —
// no analytic model — reproducing Fig. 5's shape at engine scale:
// baseline prefill grows quadratically with the cached document's length
// while cached serving cost stays nearly flat (only the suffix is
// computed), so the advantage widens with sequence length.
func EngineLatency() (*Report, error) {
	m, err := model.New(model.LlamaStyle(tokenizer.WordBase+2048, 123))
	if err != nil {
		return nil, err
	}
	client := promptcache.New(m)
	ctx := context.Background()
	rep := &Report{
		ID:     "engine",
		Title:  "Measured TTFT on the Go engine (llama-style test model)",
		Header: []string{"DocTokens", "Baseline (ms)", "Cached (ms)", "Advantage"},
		Notes: []string{
			"Wall-clock medians of 3 runs on this machine; shape (quadratic vs flat) is the reproduced claim.",
		},
	}
	for _, n := range []int{128, 256, 512, 1024} {
		name := fmt.Sprintf("engine-%d", n)
		if _, err := client.RegisterSchema(EngineSchema(name, n, uint64(n))); err != nil {
			return nil, err
		}
		prompt := fmt.Sprintf("<prompt schema=%q><doc/><user>summarize the document</user></prompt>", name)
		baseMs, err := medianServe(3, func() error {
			_, e := client.Infer(ctx, promptcache.Request{Prompt: prompt, Baseline: true, PrefillOnly: true})
			return e
		})
		if err != nil {
			return nil, err
		}
		cachedMs, err := medianServe(3, func() error {
			_, e := client.Infer(ctx, promptcache.Request{Prompt: prompt, PrefillOnly: true})
			return e
		})
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", n), fmt.Sprintf("%.2f", baseMs),
			fmt.Sprintf("%.2f", cachedMs), f1x(baseMs / cachedMs),
		})
	}
	return rep, nil
}

// EngineServing bridges the serving simulator and the real engine: a
// Zipf trace over a 12-module schema replayed with actual inference,
// comparing an unconstrained module cache against a tiered one (tight
// primary pool + host pool) and against no reuse at all. Every TTFT is
// wall-clock measured, not modelled.
func EngineServing() (*Report, error) {
	m, err := model.New(model.LlamaStyle(tokenizer.WordBase+2048, 321))
	if err != nil {
		return nil, err
	}
	// One schema whose modules form the universe.
	const nMods = 12
	var sb strings.Builder
	sb.WriteString(`<schema name="esrv">`)
	specs := make([]serving.ModuleSpec, nMods)
	r := rng.New(321)
	for i := 0; i < nMods; i++ {
		tokens := 40 + r.Intn(120)
		specs[i] = serving.ModuleSpec{Name: fmt.Sprintf("m%d", i), Tokens: tokens}
		words := make([]string, tokens)
		pool := []string{"harbor", "archive", "council", "garden", "bridge", "records", "railway", "festival"}
		for w := range words {
			words[w] = rng.Choice(r, pool)
		}
		fmt.Fprintf(&sb, `<module name=%q>%s</module>`, specs[i].Name, strings.Join(words, " "))
	}
	sb.WriteString(`</schema>`)
	schema := sb.String()

	trace, err := serving.GenerateTrace(serving.Config{
		Modules: specs, Requests: 40, ModulesPerRequest: 2, SuffixTokens: 8, ZipfS: 1.1, Seed: 11,
	})
	if err != nil {
		return nil, err
	}
	promptFor := func(req serving.Request) string {
		var b strings.Builder
		fmt.Fprintf(&b, `<prompt schema="esrv">`)
		for _, name := range req.Modules {
			fmt.Fprintf(&b, "<%s/>", name)
		}
		b.WriteString(`<user>answer briefly from the documents</user></prompt>`)
		return b.String()
	}

	run := func(c *promptcache.Client, baseline bool) (float64, error) {
		ctx := context.Background()
		var total time.Duration
		for _, req := range trace {
			p := promptFor(req)
			t0 := time.Now()
			_, err = c.Infer(ctx, promptcache.Request{Prompt: p, Baseline: baseline, PrefillOnly: true})
			if err != nil {
				return 0, err
			}
			total += time.Since(t0)
		}
		return total.Seconds() * 1e3 / float64(len(trace)), nil
	}

	unconstrained := promptcache.New(m)
	if _, err := unconstrained.RegisterSchema(schema); err != nil {
		return nil, err
	}
	need := unconstrained.Engine().PoolUsed()
	tiered := promptcache.New(m,
		core.WithPool(memory.NewPool(memory.Device{Name: "hbm", Kind: memory.HBM, Capacity: need/3 + 1})),
		core.WithHostPool(memory.NewPool(memory.Device{Name: "dram", Kind: memory.DRAM})),
	)
	if _, err := tiered.RegisterSchema(schema); err != nil {
		return nil, err
	}

	baseMs, err := run(unconstrained, true)
	if err != nil {
		return nil, err
	}
	fullMs, err := run(unconstrained, false)
	if err != nil {
		return nil, err
	}
	tieredMs, err := run(tiered, false)
	if err != nil {
		return nil, err
	}
	st := tiered.Snapshot()
	rep := &Report{
		ID:     "engine-serving",
		Title:  "Measured trace replay on the Go engine (40 Zipf requests, 12 modules)",
		Header: []string{"Configuration", "Mean TTFT (ms)", "Speedup"},
		Notes: []string{
			fmt.Sprintf("tiered cache (1/3 capacity): %d demotions, %d promotions, %d re-encodes",
				st.Tiers.ModulesDemoted, st.Tiers.ModulesPromoted, st.ModulesReloaded),
		},
	}
	rep.Rows = append(rep.Rows,
		[]string{"No reuse (baseline)", fmt.Sprintf("%.2f", baseMs), "1.0x"},
		[]string{"Prompt Cache, unconstrained", fmt.Sprintf("%.2f", fullMs), f1x(baseMs / fullMs)},
		[]string{"Prompt Cache, tiered (1/3 HBM)", fmt.Sprintf("%.2f", tieredMs), f1x(baseMs / tieredMs)},
	)
	return rep, nil
}

func medianServe(runs int, f func() error) (float64, error) {
	times := make([]float64, 0, runs)
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds()*1e3)
	}
	// insertion sort; runs is tiny
	for i := 1; i < len(times); i++ {
		for j := i; j > 0 && times[j] < times[j-1]; j-- {
			times[j], times[j-1] = times[j-1], times[j]
		}
	}
	return times[len(times)/2], nil
}
