package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/evict"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// recordingSampler snapshots the logits of every Sample call before
// delegating, so tests can compare fused and solo logit streams bit for
// bit, not just the sampled tokens.
type recordingSampler struct {
	inner  model.Sampler
	logits [][]float32
}

func (r *recordingSampler) Sample(l []float32) int {
	r.logits = append(r.logits, append([]float32(nil), l...))
	return r.inner.Sample(l)
}

// goldenReq is one heterogeneous request of the golden fused-vs-solo
// comparison: its own schema/prompt, its own sampler family, its own
// reply length (so lanes retire at different steps).
type goldenReq struct {
	prompt    string
	maxTokens int
	sampler   func() model.Sampler
}

func goldenRequests() []goldenReq {
	greedy := func() model.Sampler { return model.GreedySampler{} }
	temp := func(seed uint64) func() model.Sampler {
		return func() model.Sampler { return &model.TemperatureSampler{Temperature: 0.8, RNG: rng.New(seed)} }
	}
	topk := func(seed uint64) func() model.Sampler {
		return func() model.Sampler { return &model.TopKSampler{K: 12, Temperature: 0.9, RNG: rng.New(seed)} }
	}
	return []goldenReq{
		{`<prompt schema="travel"><miami/>Plan a beach day.</prompt>`, 24, greedy},
		{`<prompt schema="travel"><trip-plan duration="two days"/><tokyo/>Plan it.</prompt>`, 9, temp(5)},
		{`<prompt schema="form"><letter name="Ada Lovelace" item="two red kites" date="next tuesday"/>Confirm the delivery.</prompt>`, 17, topk(21)},
		{`<prompt schema="travel"><trip-plan duration="one week"/>Give an outline.</prompt>`, 31, temp(11)},
		{`<prompt schema="form"><letter name="Alan Turing" item="one blue boat" date="this friday"/>Confirm it.</prompt>`, 6, greedy},
		{`<prompt schema="travel"><tokyo/>List three temples to visit.</prompt>`, 40, topk(77)},
	}
}

type goldenRun struct {
	toks   []int
	logits [][]float32
	err    error
}

// runGolden serves and decodes one request on c, recording every logits
// vector its sampler saw. StopToken -1 keeps untrained-model EOS argmax
// from shortening replies, so retirement happens exactly at maxTokens.
func runGolden(ctx context.Context, c *Cache, rq goldenReq) goldenRun {
	res, err := c.Serve(ctx, rq.prompt, ServeOpts{})
	if err != nil {
		return goldenRun{err: err}
	}
	defer res.Close()
	rec := &recordingSampler{inner: rq.sampler()}
	ids, err := c.Generate(ctx, res, model.GenerateOpts{MaxTokens: rq.maxTokens, Sampler: rec, StopToken: -1})
	return goldenRun{toks: ids, logits: rec.logits, err: err}
}

// TestSchedulerGoldenFused is the bit-identity contract of continuous
// batching: a fused batch of heterogeneous requests — different schemas,
// samplers, reply lengths, joining and retiring mid-run, through a batch
// bound smaller than the request count so admission also churns — must
// produce, per request, exactly the token and logit streams of a solo
// run. Covered on RoPE and on ALiBi (whose position gaps between modules
// exercise the §4.2 "white space" path during decode attention).
func TestSchedulerGoldenFused(t *testing.T) {
	// The worker dimension makes this also the cross-worker golden: the
	// solo reference always runs one worker, while the fused cache runs
	// the count under test — so a 4-worker pass proves scheduler fusion
	// AND kernel parallelism together reproduce the sequential
	// one-worker streams bit for bit.
	archs := []struct {
		name  string
		cfg   model.Config
		fused tensor.Backend
	}{
		{"llama", model.LlamaStyle(coreVocab, 77), tensor.NewBackend(1)},
		{"llama-parallel", model.LlamaStyle(coreVocab, 77), tensor.NewBackend(4)},
		{"mpt-alibi", model.MPTStyle(coreVocab, 77), tensor.NewBackend(1)},
		{"mpt-alibi-parallel", model.MPTStyle(coreVocab, 77), tensor.NewBackend(4)},
	}
	for _, arch := range archs {
		t.Run(arch.name, func(t *testing.T) {
			ctx := context.Background()
			solo := newTestCache(t, arch.cfg)
			solo.Model().SetBackend(tensor.NewBackend(1))
			fused := newTestCache(t, arch.cfg, WithDecodeScheduler(4), WithBackend(arch.fused))
			reqs := goldenRequests()
			for _, c := range []*Cache{solo, fused} {
				mustRegister(t, c, travelSchema)
				mustRegister(t, c, multiParamSchema)
				// Warm the learned vocabulary in a fixed order on both
				// caches, so concurrent serving later cannot perturb word-id
				// assignment between them.
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

			got := make([]goldenRun, len(reqs))
			var wg sync.WaitGroup
			for i, rq := range reqs {
				wg.Add(1)
				go func(i int, rq goldenReq) {
					defer wg.Done()
					got[i] = runGolden(ctx, fused, rq)
				}(i, rq)
			}
			wg.Wait()

			for i := range reqs {
				if got[i].err != nil {
					t.Fatalf("fused %d: %v", i, got[i].err)
				}
				if len(got[i].toks) != len(want[i].toks) {
					t.Fatalf("req %d: fused %d tokens, solo %d", i, len(got[i].toks), len(want[i].toks))
				}
				for j := range got[i].toks {
					if got[i].toks[j] != want[i].toks[j] {
						t.Fatalf("req %d token %d: fused %d, solo %d", i, j, got[i].toks[j], want[i].toks[j])
					}
				}
				if len(got[i].logits) != len(want[i].logits) {
					t.Fatalf("req %d: fused sampled %d times, solo %d", i, len(got[i].logits), len(want[i].logits))
				}
				for j := range got[i].logits {
					if d := tensor.MaxAbsDiff(got[i].logits[j], want[i].logits[j]); d != 0 {
						t.Fatalf("req %d step %d: fused logits diverge from solo by %v", i, j, d)
					}
				}
			}

			st := fused.SchedStats()
			if !st.Enabled || st.MaxBatch != 4 {
				t.Fatalf("scheduler stats: %+v", st)
			}
			if st.LanesJoined < int64(len(reqs)) || st.LanesRetired != st.LanesJoined {
				t.Fatalf("joined %d retired %d, want %d lifecycle-balanced", st.LanesJoined, st.LanesRetired, len(reqs))
			}
			if st.TokensDecoded == 0 || st.Steps == 0 {
				t.Fatalf("no fused work recorded: %+v", st)
			}
		})
	}
}

// TestSchedulerFusesLanes proves two concurrent generations actually
// share fused steps (the batch-size histogram moves past 1): request A's
// stream callback gates until B is visible to the scheduler, so the join
// is deterministic, not a timing accident.
func TestSchedulerFusesLanes(t *testing.T) {
	c := llamaCache(t, WithDecodeScheduler(4))
	mustRegister(t, c, travelSchema)
	ctx := context.Background()
	resA, err := c.Serve(ctx, `<prompt schema="travel"><miami/>First.</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer resA.Close()
	resB, err := c.Serve(ctx, `<prompt schema="travel"><tokyo/>Second.</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer resB.Close()

	startB := make(chan struct{})
	bDone := make(chan error, 1)
	go func() {
		<-startB
		_, err := c.Generate(ctx, resB, model.GenerateOpts{MaxTokens: 8, StopToken: -1})
		bDone <- err
	}()

	gated := false
	_, err = c.GenerateStream(ctx, resA, model.GenerateOpts{MaxTokens: 40, StopToken: -1}, func(string) bool {
		if !gated {
			gated = true
			close(startB)
			// Wait (bounded) until B is enqueued or admitted; the run loop
			// is parked in this callback, so B cannot be missed afterwards.
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				st := c.SchedStats()
				if st.QueueDepth+st.ActiveLanes >= 2 {
					return true
				}
				time.Sleep(time.Millisecond)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-bDone; err != nil {
		t.Fatal(err)
	}
	st := c.SchedStats()
	var fusedSteps int64
	for i, n := range st.BatchHist {
		if i >= 1 {
			fusedSteps += n
		}
	}
	if fusedSteps == 0 {
		t.Fatalf("no fused steps recorded: hist=%v", st.BatchHist)
	}
}

// TestSchedulerCancelEvictsLane: cancelling one request's context must
// retire exactly that lane (with the context error) while a concurrent
// lane keeps decoding to its full solo-identical reply.
func TestSchedulerCancelEvictsLane(t *testing.T) {
	c := llamaCache(t, WithDecodeScheduler(4))
	mustRegister(t, c, travelSchema)
	ctx := context.Background()

	// Expected survivor output, decoded through the same scheduler while
	// idle (fused ≡ solo, so a quiet pass is a valid reference).
	wantB := runGolden(ctx, c, goldenReq{
		`<prompt schema="travel"><tokyo/>Keep going.</prompt>`, 24,
		func() model.Sampler { return model.GreedySampler{} },
	})
	if wantB.err != nil {
		t.Fatal(wantB.err)
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

	gotB := runGolden(ctx, c, goldenReq{
		`<prompt schema="travel"><tokyo/>Keep going.</prompt>`, 24,
		func() model.Sampler { return model.GreedySampler{} },
	})
	if gotB.err != nil {
		t.Fatal(gotB.err)
	}
	a := <-aDone
	if !errors.Is(a.err, context.Canceled) {
		t.Fatalf("cancelled lane error = %v, want context.Canceled", a.err)
	}
	if len(a.toks) >= 500 || len(a.toks) < 3 {
		t.Fatalf("cancelled lane decoded %d tokens, want a handful", len(a.toks))
	}
	if len(gotB.toks) != len(wantB.toks) {
		t.Fatalf("survivor decoded %d tokens, want %d", len(gotB.toks), len(wantB.toks))
	}
	for j := range gotB.toks {
		if gotB.toks[j] != wantB.toks[j] {
			t.Fatalf("survivor token %d: %d != %d", j, gotB.toks[j], wantB.toks[j])
		}
	}
	if st := c.SchedStats(); st.LanesCancelled == 0 {
		t.Fatalf("cancellation not recorded: %+v", st)
	}
}

// TestSchedulerChurnHammer mixes scheduler decode with every mutating
// cache entry point — Serve+Generate loops, promotion churn,
// schema registration, eviction under a deliberately tiny device pool
// with a host tier — and exists mainly for the race detector.
func TestSchedulerChurnHammer(t *testing.T) {
	c := llamaCache(t,
		WithDecodeScheduler(4),
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
				c.SchedStats()
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
}

// TestSchedulerCancelQueuedLane: a request cancelled while still waiting
// in the admission queue (batch full) must retire promptly — the sweep
// at the top of each iteration — not wait for a batch slot to free.
func TestSchedulerCancelQueuedLane(t *testing.T) {
	c := llamaCache(t, WithDecodeScheduler(1)) // one slot: B must queue behind A
	mustRegister(t, c, travelSchema)
	ctx := context.Background()
	resA, err := c.Serve(ctx, `<prompt schema="travel"><miami/>Long one.</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer resA.Close()
	resB, err := c.Serve(ctx, `<prompt schema="travel"><tokyo/>Queued one.</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer resB.Close()

	aStarted := make(chan struct{})
	var once sync.Once
	var stopA atomic.Bool
	aDone := make(chan error, 1)
	go func() {
		_, err := c.GenerateStream(ctx, resA, model.GenerateOpts{MaxTokens: 100000, StopToken: -1}, func(string) bool {
			once.Do(func() { close(aStarted) })
			return !stopA.Load()
		})
		aDone <- err
	}()
	<-aStarted

	bCtx, cancelB := context.WithCancel(ctx)
	bDone := make(chan error, 1)
	go func() {
		_, err := c.Generate(bCtx, resB, model.GenerateOpts{MaxTokens: 100000, StopToken: -1})
		bDone <- err
	}()
	// Let B reach the queue behind A's full batch, then cancel it.
	deadline := time.Now().Add(10 * time.Second)
	for c.SchedStats().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("B never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancelB()
	select {
	case err := <-bDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued lane error = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled queued lane did not retire while the batch stayed full")
	}
	stopA.Store(true)
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
}
