package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/evict"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/tensor"
)

// specDraftOpts is the draft configuration the speculation tests share:
// MinHits 1 lets a single training pass qualify transitions, so a second
// pass over the same prompts actually speculates.
func specDraftOpts() DraftOpts { return DraftOpts{MinHits: 1} }

// TestSpeculationGoldenSpecVsSolo is the bit-identity contract of
// speculative decoding, in the style of TestSchedulerGoldenFused: a
// speculating cache must produce, per request, exactly the token and
// logit streams of a solo non-speculative run — on a cold draft (pass 1,
// where "never worse" means "identical"), and on a warmed draft (pass 2,
// where drafts are actually proposed and accepted). Heterogeneous
// samplers (greedy, temperature, top-k), concurrent mid-run joins,
// RoPE and ALiBi, both tensor backends. The never-proposes case sets a
// draft threshold no transition can meet: the speculating scheduler must
// then take the plain fused path on every step, at exactly one token per
// lane-step.
func TestSpeculationGoldenSpecVsSolo(t *testing.T) {
	archs := []struct {
		name  string
		cfg   model.Config
		spec  tensor.Backend
		draft DraftOpts
	}{
		{"llama", model.LlamaStyle(coreVocab, 77), tensor.NewBackend(1), specDraftOpts()},
		{"llama-parallel", model.LlamaStyle(coreVocab, 77), tensor.NewBackend(4), specDraftOpts()},
		{"mpt-alibi", model.MPTStyle(coreVocab, 77), tensor.NewBackend(1), specDraftOpts()},
		{"mpt-alibi-parallel", model.MPTStyle(coreVocab, 77), tensor.NewBackend(4), specDraftOpts()},
		{"llama-never-proposes", model.LlamaStyle(coreVocab, 77), tensor.NewBackend(1), DraftOpts{MinHits: 1 << 30}},
	}
	for _, arch := range archs {
		t.Run(arch.name, func(t *testing.T) {
			ctx := context.Background()
			solo := newTestCache(t, arch.cfg)
			solo.Model().SetBackend(tensor.NewBackend(1))
			spec := newTestCache(t, arch.cfg,
				WithDecodeScheduler(4),
				WithSpeculation(arch.draft),
				WithBackend(arch.spec))
			reqs := goldenRequests()
			for _, c := range []*Cache{solo, spec} {
				mustRegister(t, c, travelSchema)
				mustRegister(t, c, multiParamSchema)
				for _, rq := range reqs {
					res, err := c.Serve(ctx, rq.prompt, ServeOpts{})
					if err != nil {
						t.Fatal(err)
					}
					res.Close()
				}
			}

			want := make([]goldenRun, len(reqs))
			for i, rq := range reqs {
				want[i] = runGolden(ctx, solo, rq)
				if want[i].err != nil {
					t.Fatalf("solo %d: %v", i, want[i].err)
				}
			}

			// Two concurrent passes over the same requests: pass 0 runs on a
			// cold draft (and trains it as lanes retire), pass 1 on a warm
			// one. Both must be stream-identical to solo.
			for pass := 0; pass < 2; pass++ {
				got := make([]goldenRun, len(reqs))
				var wg sync.WaitGroup
				for i, rq := range reqs {
					wg.Add(1)
					go func(i int, rq goldenReq) {
						defer wg.Done()
						got[i] = runGolden(ctx, spec, rq)
					}(i, rq)
				}
				wg.Wait()
				for i := range reqs {
					if got[i].err != nil {
						t.Fatalf("pass %d req %d: %v", pass, i, got[i].err)
					}
					if len(got[i].toks) != len(want[i].toks) {
						t.Fatalf("pass %d req %d: spec %d tokens, solo %d", pass, i, len(got[i].toks), len(want[i].toks))
					}
					for j := range got[i].toks {
						if got[i].toks[j] != want[i].toks[j] {
							t.Fatalf("pass %d req %d token %d: spec %d, solo %d", pass, i, j, got[i].toks[j], want[i].toks[j])
						}
					}
					if len(got[i].logits) != len(want[i].logits) {
						t.Fatalf("pass %d req %d: spec sampled %d times, solo %d", pass, i, len(got[i].logits), len(want[i].logits))
					}
					for j := range got[i].logits {
						if d := tensor.MaxAbsDiff(got[i].logits[j], want[i].logits[j]); d != 0 {
							t.Fatalf("pass %d req %d step %d: spec logits diverge from solo by %v", pass, i, j, d)
						}
					}
				}
			}

			st := spec.SpecStats()
			if !st.Enabled || st.Observed == 0 {
				t.Fatalf("draft source never trained: %+v", st)
			}
			ss := spec.SchedStats()
			if arch.draft.MinHits > 1 {
				if got := acceptedPerStep(ss); st.DraftProposed != 0 || got != 1 {
					t.Fatalf("unqualified draft proposed %d tokens, AcceptedPerStep = %v, want 0 and exactly 1", st.DraftProposed, got)
				}
				return
			}
			if st.SpecSteps == 0 || st.DraftProposed == 0 || st.DraftAccepted == 0 {
				t.Fatalf("warmed pass never speculated: %+v", st)
			}
			if got := acceptedPerStep(ss); got <= 1 {
				t.Fatalf("AcceptedPerStep = %v with %d tokens / %d steps", got, ss.TokensDecoded, ss.Steps)
			}
		})
	}
}

// acceptedPerStep is the mean tokens a lane produces per fused step it
// joins: exactly 1 without speculation, above 1 when drafts land.
func acceptedPerStep(s SchedStats) float64 {
	var laneSteps int64
	for i, n := range s.BatchHist {
		laneSteps += n * int64(i+1)
	}
	if laneSteps == 0 {
		return 0
	}
	return float64(s.TokensDecoded) / float64(laneSteps)
}

// TestSpeculationOptOut: a request carrying SpecOff must decode through
// the flat (non-speculative) path even on a warmed cache — SpecSteps
// stays put — and still produce the solo-identical stream.
func TestSpeculationOptOut(t *testing.T) {
	ctx := context.Background()
	c := llamaCache(t, WithDecodeScheduler(4), WithSpeculation(specDraftOpts()))
	mustRegister(t, c, travelSchema)
	prompt := `<prompt schema="travel"><miami/>Plan a beach day.</prompt>`
	run := func(policy model.SpecPolicy) []int {
		res, err := c.Serve(ctx, prompt, ServeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		ids, err := c.Generate(ctx, res, model.GenerateOpts{
			MaxTokens: 20, StopToken: -1,
			Speculation: model.SpecOpts{Policy: policy},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	// Train: two speculating runs (the first observes, the second accepts).
	want := run(model.SpecAuto)
	onWarm := run(model.SpecAuto)
	if c.SpecStats().SpecSteps == 0 {
		t.Fatalf("warm run never speculated: %+v", c.SpecStats())
	}
	before := c.SpecStats().SpecSteps
	optedOut := run(model.SpecOff)
	if after := c.SpecStats().SpecSteps; after != before {
		t.Fatalf("SpecOff request still speculated: %d -> %d spec steps", before, after)
	}
	for _, got := range [][]int{onWarm, optedOut} {
		if len(got) != len(want) {
			t.Fatalf("stream lengths diverge: %d vs %d", len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("token %d diverges: %d vs %d", j, got[j], want[j])
			}
		}
	}
}

// TestSpeculationCancelMidRun: cancelling one lane mid-decode on a
// warmed, speculating cache retires exactly that lane while a concurrent
// lane keeps decoding to its full solo-identical reply — speculation's
// KV truncation must not disturb cancellation bookkeeping or siblings.
func TestSpeculationCancelMidRun(t *testing.T) {
	c := llamaCache(t, WithDecodeScheduler(4), WithSpeculation(specDraftOpts()))
	mustRegister(t, c, travelSchema)
	ctx := context.Background()
	survivor := goldenReq{
		`<prompt schema="travel"><tokyo/>Keep going.</prompt>`, 24,
		func() model.Sampler { return model.GreedySampler{} },
	}
	// Warm the draft on the survivor's own stream so the surviving lane
	// really speculates while its sibling is being cancelled.
	want := runGolden(ctx, c, survivor)
	if want.err != nil {
		t.Fatal(want.err)
	}
	if again := runGolden(ctx, c, survivor); again.err != nil {
		t.Fatal(again.err)
	}

	cancelCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	resA, err := c.Serve(ctx, `<prompt schema="travel"><miami/>Cancelled one.</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer resA.Close()
	aDone := make(chan goldenRun, 1)
	go func() {
		emitted := 0
		ids, err := c.GenerateStream(cancelCtx, resA, model.GenerateOpts{MaxTokens: 500, StopToken: -1}, func(string) bool {
			emitted++
			if emitted == 3 {
				cancel()
			}
			return true
		})
		aDone <- goldenRun{toks: ids, err: err}
	}()

	gotB := runGolden(ctx, c, survivor)
	if gotB.err != nil {
		t.Fatal(gotB.err)
	}
	a := <-aDone
	if !errors.Is(a.err, context.Canceled) {
		t.Fatalf("cancelled lane error = %v, want context.Canceled", a.err)
	}
	if len(gotB.toks) != len(want.toks) {
		t.Fatalf("survivor decoded %d tokens, want %d", len(gotB.toks), len(want.toks))
	}
	for j := range gotB.toks {
		if gotB.toks[j] != want.toks[j] {
			t.Fatalf("survivor token %d: %d != %d", j, gotB.toks[j], want.toks[j])
		}
	}
	if st := c.SchedStats(); st.LanesCancelled == 0 {
		t.Fatalf("cancellation not recorded: %+v", st)
	}
}

// TestSpeculationChurnHammer mixes speculative decode with every
// mutating cache entry point — Serve+Generate loops (training and then
// speculating), promotion churn, schema registration, eviction
// under a tiny device pool with a host tier — and exists mainly for the
// race detector over the draft table and the widened verify step.
func TestSpeculationChurnHammer(t *testing.T) {
	c := llamaCache(t,
		WithDecodeScheduler(4),
		WithSpeculation(specDraftOpts()),
		WithPool(memory.NewPool(memory.Device{Name: "hbm", Kind: memory.HBM, Capacity: 96 << 10})),
		WithHostPool(memory.NewPool(memory.Device{Name: "host", Kind: memory.DRAM})),
		WithEvictionPolicy(evict.NewLRU()),
	)
	mustRegister(t, c, travelSchema)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(3)
		go func(w int) {
			defer wg.Done()
			prompts := []string{
				`<prompt schema="travel"><miami/>Go.</prompt>`,
				`<prompt schema="travel"><tokyo/>Go.</prompt>`,
				`<prompt schema="travel"><trip-plan duration="two days"/><miami/>Go.</prompt>`,
			}
			for i := 0; i < 6; i++ {
				res, err := c.Serve(ctx, prompts[(w+i)%len(prompts)], ServeOpts{})
				if err != nil {
					errs <- err
					return
				}
				if _, err := c.Generate(ctx, res, model.GenerateOpts{MaxTokens: 5, StopToken: -1}); err != nil {
					res.Close()
					errs <- err
					return
				}
				res.Close()
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if err := serveClose(ctx, c, `<prompt schema="travel"><miami/>x</prompt>`, `<prompt schema="travel"><tokyo/>x</prompt>`); err != nil {
					errs <- err
					return
				}
				c.SpecStats()
			}
		}()
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				src := fmt.Sprintf(`<schema name="churn%d_%d"><module name="m">churn content %d %d plus padding words</module></schema>`, w, i, w, i)
				if _, err := c.RegisterSchema(src); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.SchedStats()
	if st.ActiveLanes != 0 || st.QueueDepth != 0 {
		t.Fatalf("scheduler not drained: %+v", st)
	}
	if st.LanesJoined != st.LanesRetired {
		t.Fatalf("lane leak: joined %d retired %d", st.LanesJoined, st.LanesRetired)
	}
	if sp := c.SpecStats(); !sp.Enabled || sp.Observed == 0 {
		t.Fatalf("draft source never observed under churn: %+v", sp)
	}
}

// TestSpeculationSchemaDropForgets: replacing a schema must clear the
// draft classes its serving traffic trained, the same hygiene the miner
// applies, so the re-registered schema starts from a cold predictor.
func TestSpeculationSchemaDropForgets(t *testing.T) {
	ctx := context.Background()
	c := llamaCache(t, WithDecodeScheduler(2), WithSpeculation(specDraftOpts()))
	mustRegister(t, c, travelSchema)
	prompt := `<prompt schema="travel"><miami/>Plan a beach day.</prompt>`
	for i := 0; i < 2; i++ {
		res, err := c.Serve(ctx, prompt, ServeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Generate(ctx, res, model.GenerateOpts{MaxTokens: 8, StopToken: -1}); err != nil {
			t.Fatal(err)
		}
		res.Close()
	}
	if st := c.SpecStats(); st.Classes == 0 || st.Contexts == 0 {
		t.Fatalf("draft never trained: %+v", st)
	}
	mustRegister(t, c, travelSchema) // replacement drops the old entry
	if st := c.SpecStats(); st.Classes != 0 || st.Contexts != 0 {
		t.Fatalf("replaced schema's draft classes survive: %+v", st)
	}
}
