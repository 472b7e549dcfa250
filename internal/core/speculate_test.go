package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/mining"
	"repro/internal/model"
	"repro/internal/tensor"
)

// specDraft is the draft configuration the speculation tests share:
// MinHits 1 lets a single training pass qualify transitions, so a second
// pass over the same prompts actually speculates.
func specDraft() mining.DraftConfig { return mining.DraftConfig{MinHits: 1} }

// TestSpeculationGoldenSpecVsSolo is the bit-identity contract of
// speculative decoding, in the style of TestSchedulerGoldenFused: a
// speculating cache, on either decode driver, must produce per request
// exactly the token and logit streams of plain decode over Model.Decode
// — on a cold draft (pass 1, where "never worse" means "identical"), and
// on a warmed draft (pass 2, where drafts are actually proposed and
// accepted). Heterogeneous samplers (greedy, temperature, top-k),
// concurrent requests, RoPE and ALiBi, one and four workers. The
// never-proposes case sets a draft threshold no transition can meet: the
// speculating loop must then take the plain path on every step, at
// exactly one token per lane-step.
func TestSpeculationGoldenSpecVsSolo(t *testing.T) {
	archs := []struct {
		name  string
		cfg   model.Config
		spec  tensor.Backend
		draft mining.DraftConfig
	}{
		{"llama", model.LlamaStyle(coreVocab, 77), tensor.NewBackend(1), specDraft()},
		{"llama-parallel", model.LlamaStyle(coreVocab, 77), tensor.NewBackend(4), specDraft()},
		{"mpt-alibi", model.MPTStyle(coreVocab, 77), tensor.NewBackend(1), specDraft()},
		{"mpt-alibi-parallel", model.MPTStyle(coreVocab, 77), tensor.NewBackend(4), specDraft()},
		{"llama-never-proposes", model.LlamaStyle(coreVocab, 77), tensor.NewBackend(1), mining.DraftConfig{MinHits: 1 << 30}},
	}
	for _, arch := range archs {
		t.Run(arch.name, func(t *testing.T) {
			want := goldenWant(t, arch.cfg)
			for _, drv := range decodeDrivers {
				t.Run(drv.name, func(t *testing.T) {
					spec := goldenCache(t, arch.cfg,
						append([]Option{withDraft(arch.draft), WithBackend(arch.spec)}, drv.opts...)...)
					// Pass 0 runs on a cold draft (and trains it as lanes
					// retire), pass 1 on a warm one.
					for pass := 0; pass < 2; pass++ {
						checkGolden(t, spec, want, fmt.Sprintf("pass %d", pass))
					}

					st := spec.Snapshot().Speculation
					if st == nil || !st.Enabled || st.Observed == 0 {
						t.Fatalf("draft source never trained: %+v", st)
					}
					ss := spec.SchedStats()
					if arch.draft.MinHits > 1 {
						if st.DraftProposed != 0 || st.SpecSteps != 0 {
							t.Fatalf("unqualified draft proposed %d tokens over %d steps, want none", st.DraftProposed, st.SpecSteps)
						}
						if got := acceptedPerStep(ss); spec.SchedEnabled() && got != 1 {
							t.Fatalf("AcceptedPerStep = %v without proposals, want exactly 1", got)
						}
						return
					}
					if st.SpecSteps == 0 || st.DraftProposed == 0 || st.DraftAccepted == 0 {
						t.Fatalf("warmed pass never speculated: %+v", st)
					}
					if got := acceptedPerStep(ss); spec.SchedEnabled() && got <= 1 {
						t.Fatalf("AcceptedPerStep = %v with %d tokens / %d steps", got, ss.TokensDecoded, ss.Steps)
					}
				})
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

// TestSpeculationOptOut: a request carrying Off must decode through
// the flat (non-speculative) path even on a warmed cache — SpecSteps
// stays put — and still produce the identical stream.
func TestSpeculationOptOut(t *testing.T) {
	ctx := context.Background()
	c := llamaCache(t, WithDecodeScheduler(4), withDraft(specDraft()))
	mustRegister(t, c, travelSchema)
	prompt := `<prompt schema="travel"><miami/>Plan a beach day.</prompt>`
	run := func(off bool) []int {
		res, err := c.Serve(ctx, prompt, ServeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		ids, err := c.Generate(ctx, res, model.GenerateOpts{
			MaxTokens: 20, StopToken: -1,
			Speculation: model.SpecOpts{Off: off},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	// Train: two speculating runs (the first observes, the second accepts).
	want := run(false)
	onWarm := run(false)
	if c.Snapshot().Speculation.SpecSteps == 0 {
		t.Fatalf("warm run never speculated: %+v", c.Snapshot().Speculation)
	}
	before := c.Snapshot().Speculation.SpecSteps
	optedOut := run(true)
	if after := c.Snapshot().Speculation.SpecSteps; after != before {
		t.Fatalf("Off request still speculated: %d -> %d spec steps", before, after)
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
// lane keeps decoding to its full, undisturbed reply — speculation's
// KV truncation must not disturb cancellation bookkeeping or siblings.
func TestSpeculationCancelMidRun(t *testing.T) {
	c := llamaCache(t, WithDecodeScheduler(4), withDraft(specDraft()))
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
		withDraft(specDraft()),
		WithDeviceCapacity(96<<10),
		WithHostTier(0),
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
				c.Snapshot()
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
	if sp := c.Snapshot().Speculation; sp == nil || sp.Observed == 0 {
		t.Fatalf("draft source never observed under churn: %+v", sp)
	}
}

// TestSpeculationSchemaDropForgets: replacing a schema must clear the
// draft classes its serving traffic trained, so the re-registered schema
// starts from a cold predictor.
func TestSpeculationSchemaDropForgets(t *testing.T) {
	ctx := context.Background()
	c := llamaCache(t, WithDecodeScheduler(2), withDraft(specDraft()))
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
	if st := c.Snapshot().Speculation; st.Classes == 0 || st.Contexts == 0 {
		t.Fatalf("draft never trained: %+v", st)
	}
	mustRegister(t, c, travelSchema) // replacement drops the old entry
	if st := c.Snapshot().Speculation; st.Classes != 0 || st.Contexts != 0 {
		t.Fatalf("replaced schema's draft classes survive: %+v", st)
	}
}

// TestSpeculationWithoutScheduler: speculation runs on either decode
// driver, so WithSpeculation alone builds the draft — a serve computes
// its serving class for draft lookups, and the stats document carries
// the speculation block — whatever the option order, and the scheduler
// block appears only with WithDecodeScheduler.
func TestSpeculationWithoutScheduler(t *testing.T) {
	for _, c := range []*Cache{
		llamaCache(t, withDraft(specDraft())),
		llamaCache(t, withDraft(specDraft()), WithDecodeScheduler(2)),
		llamaCache(t, WithDecodeScheduler(2), withDraft(specDraft())),
	} {
		mustRegister(t, c, travelSchema)
		res, err := c.Serve(context.Background(), `<prompt schema="travel"><miami/>Surf?</prompt>`, ServeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
		if c.sched.draft == nil {
			t.Fatal("WithSpeculation built no draft source")
		}
		snap := c.Snapshot()
		if sp := snap.Speculation; sp == nil || !sp.Enabled {
			t.Fatalf("speculation block %+v", sp)
		}
		if (snap.Scheduler != nil) != c.SchedEnabled() {
			t.Fatalf("scheduler %v: scheduler block %+v", c.SchedEnabled(), snap.Scheduler)
		}
		if res.class == "" {
			t.Fatal("speculating serve computed no serving class")
		}
	}
}

// TestDraftWidth: a request without its own MaxDraft drafts as wide as the
// draft source's MaxDraft — here 6, above the draft package's default
// of 4 — and a request's own MaxDraft still caps its step.
func TestDraftWidth(t *testing.T) {
	c := llamaCache(t, withDraft(mining.DraftConfig{MinHits: 1, MaxDraft: 6}))
	// A warmed, deterministic draft: one observed stream whose every
	// context has exactly one successor.
	stream := []int{101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112}
	c.sched.draft.Observe("", stream)
	for _, tc := range []struct{ perRequest, want int }{{0, 6}, {2, 2}, {9, 6}} {
		opts := model.GenerateOpts{MaxTokens: 64, Speculation: model.SpecOpts{MaxDraft: tc.perRequest}}
		opts.Defaults()
		ln := &schedLane{opts: opts, specOn: true, next: stream[0], out: stream[:1]}
		c.sched.propose(ln)
		if got := len(ln.spec) - 1; got != tc.want {
			t.Fatalf("per-request MaxDraft %d: step proposes %d drafts %v, want %d", tc.perRequest, got, ln.spec[1:], tc.want)
		}
		for j, tok := range ln.spec {
			if tok != stream[j] {
				t.Fatalf("per-request MaxDraft %d: step tokens %v, want a prefix of %v", tc.perRequest, ln.spec, stream)
			}
		}
	}
}
