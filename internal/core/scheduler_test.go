package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// recordingSampler snapshots the logits of every Sample call before
// delegating, so tests can compare logit streams bit for bit, not just
// the sampled tokens.
type recordingSampler struct {
	inner  model.Sampler
	logits [][]float32
}

func (r *recordingSampler) Sample(l []float32) int {
	r.logits = append(r.logits, append([]float32(nil), l...))
	return r.inner.Sample(l)
}

// goldenReq is one heterogeneous request of the golden comparisons: its
// own schema/prompt, its own sampler family, its own reply length (so
// lanes retire at different steps).
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

// decodeDrivers are the decode loop's two drivers as cache options:
// inline on each Generate caller, and the fused run loop.
var decodeDrivers = []struct {
	name string
	opts []Option
}{
	{"inline", nil},
	{"fused", []Option{WithDecodeScheduler(4)}},
}

// decodeRef is the goldens' reference decode, independent of the lane
// state machine under test: plain KV-cache decode over Model.Decode and
// the request's sampler, each token at the next position after the
// cache's maximum.
func decodeRef(m *model.Model, kv kvcache.KV, logits []float32, opts model.GenerateOpts) ([]int, error) {
	opts.Defaults()
	var out []int
	pos := kv.MaxPos()
	for len(out) < opts.MaxTokens {
		next := opts.Sampler.Sample(logits)
		if next == opts.StopToken {
			break
		}
		out = append(out, next)
		if pos++; pos >= m.Cfg.MaxSeq {
			break
		}
		var err error
		if logits, err = m.Decode(next, pos, kv); err != nil {
			return out, err
		}
	}
	return out, nil
}

// goldenOpts are a golden request's decode options around its recording
// sampler. StopToken -1 keeps untrained-model EOS argmax from shortening
// replies, so retirement happens exactly at maxTokens.
func goldenOpts(rq goldenReq, rec *recordingSampler) model.GenerateOpts {
	return model.GenerateOpts{MaxTokens: rq.maxTokens, Sampler: rec, StopToken: -1}
}

// runGolden serves and decodes one request on c, recording every logits
// vector its sampler saw.
func runGolden(ctx context.Context, c *Cache, rq goldenReq) goldenRun {
	res, err := c.Serve(ctx, rq.prompt, ServeOpts{})
	if err != nil {
		return goldenRun{err: err}
	}
	defer res.Close()
	rec := &recordingSampler{inner: rq.sampler()}
	ids, err := c.Generate(ctx, res, goldenOpts(rq, rec))
	return goldenRun{toks: ids, logits: rec.logits, err: err}
}

// goldenCache builds a cache for the golden comparisons: both schemas
// registered, and the learned vocabulary warmed in a fixed order, so
// concurrent serving later cannot perturb word-id assignment between the
// reference and the checked cache.
func goldenCache(t *testing.T, cfg model.Config, opts ...Option) *Cache {
	t.Helper()
	c := newTestCache(t, cfg, opts...)
	mustRegister(t, c, travelSchema)
	mustRegister(t, c, multiParamSchema)
	for _, rq := range goldenRequests() {
		res, err := c.Serve(context.Background(), rq.prompt, ServeOpts{})
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
	}
	return c
}

// goldenWant is the reference side of a golden: every golden request
// served on a one-worker cache and decoded by decodeRef.
func goldenWant(t *testing.T, cfg model.Config) []goldenRun {
	t.Helper()
	ctx := context.Background()
	c := goldenCache(t, cfg, WithBackend(tensor.NewBackend(1)))
	reqs := goldenRequests()
	want := make([]goldenRun, len(reqs))
	for i, rq := range reqs {
		res, err := c.Serve(ctx, rq.prompt, ServeOpts{})
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		rec := &recordingSampler{inner: rq.sampler()}
		ids, err := decodeRef(c.Model(), res.KV, res.Logits, goldenOpts(rq, rec))
		res.Close()
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		want[i] = goldenRun{toks: ids, logits: rec.logits}
	}
	return want
}

// checkGolden decodes every golden request concurrently on c and fails
// unless each one's token and logit streams equal want bit for bit.
func checkGolden(t *testing.T, c *Cache, want []goldenRun, label string) {
	t.Helper()
	ctx := context.Background()
	reqs := goldenRequests()
	got := make([]goldenRun, len(reqs))
	var wg sync.WaitGroup
	for i, rq := range reqs {
		wg.Add(1)
		go func(i int, rq goldenReq) {
			defer wg.Done()
			got[i] = runGolden(ctx, c, rq)
		}(i, rq)
	}
	wg.Wait()
	for i := range reqs {
		if got[i].err != nil {
			t.Fatalf("%s req %d: %v", label, i, got[i].err)
		}
		if len(got[i].toks) != len(want[i].toks) {
			t.Fatalf("%s req %d: %d tokens, reference %d", label, i, len(got[i].toks), len(want[i].toks))
		}
		for j := range got[i].toks {
			if got[i].toks[j] != want[i].toks[j] {
				t.Fatalf("%s req %d token %d: %d, reference %d", label, i, j, got[i].toks[j], want[i].toks[j])
			}
		}
		if len(got[i].logits) != len(want[i].logits) {
			t.Fatalf("%s req %d: sampled %d times, reference %d", label, i, len(got[i].logits), len(want[i].logits))
		}
		for j := range got[i].logits {
			if d := tensor.MaxAbsDiff(got[i].logits[j], want[i].logits[j]); d != 0 {
				t.Fatalf("%s req %d step %d: logits diverge from the reference by %v", label, i, j, d)
			}
		}
	}
}

// TestSchedulerGoldenFused is the bit-identity contract of the decode
// loop: heterogeneous requests — different schemas, samplers, reply
// lengths — decoded concurrently on either driver must produce, per
// request, exactly the token and logit streams of plain decode over
// Model.Decode. On the fused driver they join and retire mid-run through
// a batch bound smaller than the request count, so admission also
// churns. Covered on RoPE and on ALiBi (whose position gaps between
// modules exercise the §4.2 "white space" path during decode attention).
func TestSchedulerGoldenFused(t *testing.T) {
	// The worker dimension makes this also the cross-worker golden: the
	// reference always runs one worker, while the checked cache runs the
	// count under test — so a 4-worker pass proves the decode loop AND
	// kernel parallelism together reproduce the sequential one-worker
	// streams bit for bit.
	archs := []struct {
		name    string
		cfg     model.Config
		checked tensor.Backend
	}{
		{"llama", model.LlamaStyle(coreVocab, 77), tensor.NewBackend(1)},
		{"llama-parallel", model.LlamaStyle(coreVocab, 77), tensor.NewBackend(4)},
		{"mpt-alibi", model.MPTStyle(coreVocab, 77), tensor.NewBackend(1)},
		{"mpt-alibi-parallel", model.MPTStyle(coreVocab, 77), tensor.NewBackend(4)},
	}
	for _, arch := range archs {
		t.Run(arch.name, func(t *testing.T) {
			want := goldenWant(t, arch.cfg)
			for _, drv := range decodeDrivers {
				t.Run(drv.name, func(t *testing.T) {
					c := goldenCache(t, arch.cfg, append([]Option{WithBackend(arch.checked)}, drv.opts...)...)
					checkGolden(t, c, want, drv.name)
					if c.Snapshot().Speculation != nil {
						t.Fatal("speculation block without WithSpeculation")
					}
					if !c.SchedEnabled() {
						return
					}
					st := c.SchedStats()
					n := int64(len(want))
					if st.MaxBatch != 4 {
						t.Fatalf("scheduler stats: %+v", st)
					}
					if st.LanesJoined < n || st.LanesRetired != st.LanesJoined {
						t.Fatalf("joined %d retired %d, want %d lifecycle-balanced", st.LanesJoined, st.LanesRetired, n)
					}
					if st.TokensDecoded == 0 || st.Steps == 0 {
						t.Fatalf("no fused work recorded: %+v", st)
					}
				})
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
// lane keeps decoding to its full, undisturbed reply.
func TestSchedulerCancelEvictsLane(t *testing.T) {
	c := llamaCache(t, WithDecodeScheduler(4))
	mustRegister(t, c, travelSchema)
	ctx := context.Background()

	// Expected survivor output, decoded through the same scheduler while
	// idle (fused output equals plain decode, so a quiet pass is a valid
	// reference).
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

// TestGenerateRespectsMaxTokens: on either driver, a reply ends at
// MaxTokens or at the stop token, whichever comes first, and its tokens
// take consecutive positions after the served cache's maximum.
func TestGenerateRespectsMaxTokens(t *testing.T) {
	ctx := context.Background()
	prompt := `<prompt schema="travel"><miami/>Plan a beach day.</prompt>`
	for _, drv := range decodeDrivers {
		t.Run(drv.name, func(t *testing.T) {
			c := llamaCache(t, drv.opts...)
			mustRegister(t, c, travelSchema)
			generate := func(opts model.GenerateOpts) ([]int, []int) {
				res, err := c.Serve(ctx, prompt, ServeOpts{})
				if err != nil {
					t.Fatal(err)
				}
				defer res.Close()
				served, maxPos := res.KV.Len(), res.KV.MaxPos()
				ids, err := c.Generate(ctx, res, opts)
				if err != nil {
					t.Fatal(err)
				}
				for j, p := range res.KV.Positions()[served:] {
					if p != maxPos+1+j {
						t.Fatalf("decoded token %d at position %d, want %d", j, p, maxPos+1+j)
					}
				}
				return ids, res.KV.Positions()[served:]
			}
			ids, poss := generate(model.GenerateOpts{MaxTokens: 5, StopToken: -1})
			if len(ids) != 5 || len(poss) != 5 {
				t.Fatalf("MaxTokens 5: %d tokens, %d appended", len(ids), len(poss))
			}
			// Stopping at the third token's id ends the reply before it.
			stopped, _ := generate(model.GenerateOpts{MaxTokens: 5, StopToken: ids[2]})
			want := slices.Index(ids, ids[2])
			if !slices.Equal(stopped, ids[:want]) {
				t.Fatalf("stop token %d: reply %v, want %v", ids[2], stopped, ids[:want])
			}
		})
	}
}

// TestGenerateStream: on either driver, a streamed reply emits exactly
// the tokens the plain reply returns, in order, and an emit refusal ends
// the reply at the refused token.
func TestGenerateStream(t *testing.T) {
	ctx := context.Background()
	prompt := `<prompt schema="travel"><tokyo/>Keep going.</prompt>`
	for _, drv := range decodeDrivers {
		t.Run(drv.name, func(t *testing.T) {
			c := llamaCache(t, drv.opts...)
			mustRegister(t, c, travelSchema)
			stream := func(opts model.GenerateOpts, emit func(string) bool) []int {
				res, err := c.Serve(ctx, prompt, ServeOpts{})
				if err != nil {
					t.Fatal(err)
				}
				defer res.Close()
				ids, err := c.GenerateStream(ctx, res, opts, emit)
				if err != nil {
					t.Fatal(err)
				}
				return ids
			}
			opts := model.GenerateOpts{MaxTokens: 8, StopToken: -1}
			plain := stream(opts, nil)
			var texts []string
			streamed := stream(opts, func(s string) bool { texts = append(texts, s); return true })
			if !slices.Equal(streamed, plain) || len(texts) != len(plain) {
				t.Fatalf("streamed %v (%d emits), plain %v", streamed, len(texts), plain)
			}
			for j, id := range plain {
				if texts[j] != c.Tokenizer().Decode([]int{id}) {
					t.Fatalf("emit %d = %q, want the text of token %d", j, texts[j], id)
				}
			}
			n := 0
			refused := stream(opts, func(string) bool { n++; return n < 2 })
			if !slices.Equal(refused, plain[:2]) {
				t.Fatalf("emit refused at the second token: reply %v, want %v", refused, plain[:2])
			}
		})
	}
}

// TestInlineDriverYields: the inline driver yields its core after every
// step, as the run loop does. On one P, a goroutine made runnable just
// before an inline GenerateStream must have run by the third token;
// without the yield it waits for the preemption tick, long after this
// short reply ends.
func TestInlineDriverYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	c := llamaCache(t, WithBackend(tensor.NewBackend(1)))
	mustRegister(t, c, travelSchema)
	res, err := c.Serve(ctx, `<prompt schema="travel"><tokyo/>Keep going.</prompt>`, ServeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	var ran atomic.Bool
	go func() { ran.Store(true) }()
	tokens, sawRun := 0, 0
	if _, err := c.GenerateStream(ctx, res, model.GenerateOpts{MaxTokens: 8, StopToken: -1}, func(string) bool {
		tokens++
		if sawRun == 0 && ran.Load() {
			sawRun = tokens
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if sawRun == 0 || sawRun > 3 {
		t.Fatalf("a runnable goroutine first ran at token %d of %d, want by token 3", sawRun, tokens)
	}
}

// TestGenerateEmptyCacheRejected: a result with nothing to continue from,
// or logits of the wrong width, is a bad prompt on either driver, and no
// lane is left behind.
func TestGenerateEmptyCacheRejected(t *testing.T) {
	for _, drv := range decodeDrivers {
		t.Run(drv.name, func(t *testing.T) {
			c := llamaCache(t, drv.opts...)
			m := c.Model()
			cases := map[string]*ServeResult{
				"empty cache":  {KV: m.NewCache(0), Logits: make([]float32, m.Cfg.VocabSize)},
				"logits width": {KV: prefilled(t, m), Logits: make([]float32, m.Cfg.VocabSize-1)},
			}
			for name, res := range cases {
				if _, err := c.Generate(context.Background(), res, model.GenerateOpts{}); !errors.Is(err, ErrBadPrompt) {
					t.Fatalf("%s: err = %v, want ErrBadPrompt", name, err)
				}
			}
			if st := c.sched.Stats(); st.LanesJoined != 0 || st.ActiveLanes != 0 {
				t.Fatalf("rejected requests joined the decode loop: %+v", st)
			}
		})
	}
}

// prefilled is a one-token cache of m.
func prefilled(t *testing.T, m *model.Model) kvcache.KV {
	t.Helper()
	kv := m.NewCache(1)
	if _, err := m.Prefill([]int{1}, []int{0}, kv); err != nil {
		t.Fatal(err)
	}
	return kv
}
