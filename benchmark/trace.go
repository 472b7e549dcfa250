package main

import (
	"context"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/pml"
	"repro/promptcache"
)

// The traced run decomposes requests into the repository's layers from
// outside: it re-composes Client.Infer by hand and records a span around
// each call into a package's public functions. Work that happens inside
// one of those calls (the prefill inside Cache.ServeParsed, the model
// steps inside Cache.GenerateStream) cannot be seen from outside, so it
// is repeated afterwards on the same shapes and data and recorded as an
// "equivalent" child span; a layer's self time is its span minus its
// children. Spans inside the program are ROADMAP item 1 and must keep
// these names.

// span is one timed interval. Times are nanoseconds since the trace
// began; Parent is the causing span's ID, -1 for a request.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"` // generated request index
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	// Equivalent marks a child measured after the request on the same
	// shapes; it is laid at its parent's start and only its length means
	// anything.
	Equivalent bool `json:"equivalent,omitempty"`
	// Marks are instants inside the span: one per emitted token.
	Marks []int64 `json:"marks_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(name string, parent, request int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Request: request, Name: name, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = t.now() }

func (t *tracer) mark(id int) { t.spans[id].Marks = append(t.spans[id].Marks, t.now()) }

// equivalent records work of length d, measured elsewhere, as a child
// of parent.
func (t *tracer) equivalent(name string, parent int, d time.Duration) {
	p := t.spans[parent]
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Request: p.Request, Name: name,
		Start: p.Start, End: p.Start + int64(d), Equivalent: true})
}

// Span names. A request's children are the calls Client.Infer makes; the
// grandchildren are equivalent work.
const (
	spanRequest  = "request"
	spanParse    = "pml.parse"
	spanAdmit    = "core.admit"
	spanServe    = "core.serve"
	spanGenerate = "core.generate"
	spanEncode   = "tokenizer.encode"
	spanPrefill  = "model.prefill"
	spanDecode   = "model.decode_step"
	spanVerify   = "model.verify_step"
)

// tracedInfer is Client.Infer re-composed by hand (promptcache.go:
// admit → serve → generate → release), with a span around each call.
// It returns the serve's length and whether the serve had to resolve a
// module from a lower tier, for core.tier_resolve_ms.
func (t *tracer) tracedInfer(ctx context.Context, cache *core.Cache, q request) (served time.Duration, resolved bool, err error) {
	m := cache.Model()
	req := t.begin(spanRequest, -1, q.Index)
	defer func() {
		if t.spans[req].End == 0 {
			t.end(req) // error paths
		}
	}()

	sp := t.begin(spanParse, req, q.Index)
	parsed, err := pml.ParsePrompt(q.Prompt)
	t.end(sp)
	if err != nil {
		return 0, false, err
	}

	const class = core.SLOInteractive
	sp = t.begin(spanAdmit, req, q.Index)
	actx, cancel := cache.AdmissionContext(ctx, class)
	defer cancel()
	err = cache.Admit(actx, class)
	t.end(sp)
	if err != nil {
		return 0, false, err
	}
	actx = core.WithSLOClass(actx, class)

	tiersBefore := cache.Stats()
	serve := t.begin(spanServe, req, q.Index)
	res, err := cache.ServeParsed(actx, parsed, core.ServeOpts{})
	t.end(serve)
	served = time.Duration(t.spans[serve].End - t.spans[serve].Start)
	if err != nil {
		cache.AdmitRelease(class)
		return served, false, err
	}
	defer res.Close()
	tiersAfter := cache.Stats()
	resolved = tiersAfter.ModulesPromoted != tiersBefore.ModulesPromoted ||
		tiersAfter.DiskHits != tiersBefore.DiskHits ||
		tiersAfter.ModulesReloaded != tiersBefore.ModulesReloaded
	servedLen := res.KV.Len()
	cachedLen := servedLen - res.NewTokens
	newPos := slices.Clone(res.KV.Positions()[cachedLen:servedLen])

	schedBefore := cache.SchedStats()
	gen := t.begin(spanGenerate, req, q.Index)
	ids, err := cache.GenerateStream(actx, res, model.GenerateOpts{MaxTokens: q.MaxTokens, StopToken: -1},
		func(string) bool { t.mark(gen); return true })
	t.end(gen)
	cache.AdmitRelease(class)
	t.end(req)
	if err != nil {
		return served, resolved, err
	}
	if len(ids) != q.MaxTokens {
		return served, resolved, fmt.Errorf("request %d: got %d tokens, want exactly %d", q.Index, len(ids), q.MaxTokens)
	}
	schedAfter := cache.SchedStats()

	// Equivalent work, after the request and outside its wall time: the
	// model steps GenerateStream ran, then the prefill and tokenization
	// ServeParsed ran, repeated on this request's own KV.
	steps := int(schedAfter.Steps - schedBefore.Steps)
	proposed := int(schedAfter.DraftProposed - schedBefore.DraftProposed)
	name, d, err := replayDecode(m, res.KV, servedLen, ids, steps, proposed)
	if err != nil {
		return served, resolved, err
	}
	t.equivalent(name, gen, d)

	if seq, ok := res.KV.(*kvcache.Seq); !ok || cachedLen >= seq.ViewLen() {
		res.KV.Truncate(cachedLen)
		toks := make([]int, len(newPos))
		for i := range toks {
			toks[i] = ids[i%len(ids)] // any valid ids: the cost does not depend on them
		}
		t0 := time.Now()
		if _, err := m.PrefillCtx(ctx, toks, newPos, res.KV); err != nil {
			return served, resolved, err
		}
		t.equivalent(spanPrefill, serve, time.Since(t0))
	}
	tok := cache.Tokenizer()
	t0 := time.Now()
	for _, it := range parsed.Items {
		if txt, ok := it.(*pml.PromptText); ok {
			tok.Encode(txt.Content)
		}
	}
	t.equivalent(spanEncode, serve, time.Since(t0))
	return served, resolved, nil
}

// replayDecode repeats the model steps of one generation on its own KV,
// truncated back to the served prompt, and returns the span name and
// their total time. Without speculation that is exactly the n-1
// single-position steps that produced ids. With it (proposed > 0) the
// scheduler ran `steps` widened verify steps; the replay runs as many,
// at the mean observed width, advancing through the same context
// lengths.
func replayDecode(m *model.Model, kv kvcache.KV, servedLen int, ids []int, steps, proposed int) (string, time.Duration, error) {
	kv.Truncate(servedLen)
	lane := m.NewDecodeLane()
	defer lane.Close()
	lanes, kvs := []*model.DecodeLane{lane}, []kvcache.KV{kv}
	pos := kv.MaxPos() + 1
	n := len(ids) - 1 // the last token is sampled but never fed back
	if proposed == 0 || steps == 0 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := m.DecodeStepBatch(lanes, ids[i:i+1], []int{pos + i}, kvs); err != nil {
				return "", 0, err
			}
			if err := lane.Err(); err != nil {
				return "", 0, err
			}
		}
		return spanDecode, time.Since(t0), nil
	}
	// Wide enough for the mean draft, and for n tokens in `steps` steps.
	width := max(1+(proposed+steps/2)/steps, (n+steps-1)/steps)
	toks, poss := make([]int, width), make([]int, width)
	var total time.Duration
	done := 0
	for s := 0; s < steps && done < n; s++ {
		for j := range toks {
			toks[j] = ids[min(done+j, len(ids)-1)]
			poss[j] = pos + done + j
		}
		t0 := time.Now()
		if err := m.DecodeStepBatchMulti(lanes, [][]int{toks}, [][]int{poss}, kvs); err != nil {
			return "", 0, err
		}
		total += time.Since(t0)
		if err := lane.Err(); err != nil {
			return "", 0, err
		}
		accepted := (n - done + steps - s - 1) / (steps - s) // spread the rest evenly
		done += accepted
		kv.Truncate(servedLen + done)
	}
	return spanVerify, total, nil
}

// inProcess is a client configured like the workload's server, set up
// in this process for the traced passes.
func inProcess(wl *workloadSpec, gen *generator, workDir string) (*promptcache.Client, func(), error) {
	diskDir, cleanup := "", func() {}
	if wl.tiers {
		dir, err := os.MkdirTemp(workDir, "disk-")
		if err != nil {
			return nil, nil, err
		}
		// Best effort: the directory is scratch under the work dir.
		diskDir, cleanup = dir, func() { _ = os.RemoveAll(dir) }
	}
	client, err := newClient(wl, diskDir)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	if err := loadInProcess(client, gen); err != nil {
		cleanup()
		return nil, nil, err
	}
	return client, cleanup, nil
}

// inferOnce is the untraced counterpart of tracedInfer: Client.Infer as
// shipped, observed only through its stream callback.
func inferOnce(ctx context.Context, client *promptcache.Client, q request) (ttft, total time.Duration, err error) {
	if q.Class == classRegister {
		t0 := time.Now()
		_, err := client.RegisterSchema(q.PML)
		return 0, time.Since(t0), err
	}
	t0 := time.Now()
	var first time.Time
	_, err = client.Infer(ctx, promptcache.Request{
		Prompt: q.Prompt,
		Gen:    promptcache.GenConfig{MaxTokens: q.MaxTokens, StopToken: -1},
		Stream: func(string) bool {
			if first.IsZero() {
				first = time.Now()
			}
			return true
		},
	})
	return first.Sub(t0), time.Since(t0), err
}

// layerReport is the outcome of a traced run.
type layerReport struct {
	Workload string
	Metrics  map[string]metric
	Runner   runner
	ledger
	spans []span
}

func (r *layerReport) put(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// runTraced is the traced run of one workload: the traced requests
// three times — untraced in process, traced in process, and over HTTP —
// each against a freshly set-up, identically configured client, then a
// short concurrent window over HTTP for the counters that only mean
// something under concurrency, then the workload-independent model and
// kernel timings.
func runTraced(ctx context.Context, wl *workloadSpec, seed uint64, pl plan, lx *lexicon, workDir string) (*layerReport, error) {
	gen := newGenerator(seed, wl, lx)
	rep := &layerReport{Workload: wl.name, Metrics: map[string]metric{}}
	from, to := wl.warmup, wl.warmup+pl.traced // the first operations after the warm-up
	put := rep.put

	// Pass 1: untraced, in process.
	client, cleanup, err := inProcess(wl, gen, workDir)
	if err != nil {
		return nil, err
	}
	var plainTTFT, plainTotal []float64
	err = func() error {
		defer cleanup()
		for i := 0; i < to; i++ {
			q := gen.request(i)
			ttft, total, err := inferOnce(ctx, client, q)
			if err != nil {
				return fmt.Errorf("untraced pass: request %d: %w", i, err)
			}
			if i >= from && q.Class != classRegister {
				plainTTFT = append(plainTTFT, ms(ttft))
				plainTotal = append(plainTotal, ms(total))
			}
		}
		return nil
	}()
	if err != nil {
		return nil, err
	}

	// Pass 2: traced, in process.
	client, cleanup, err = inProcess(wl, gen, workDir)
	if err != nil {
		return nil, err
	}
	tr := &tracer{t0: time.Now()}
	var resolvedServe, residentServe []float64
	err = func() error {
		defer cleanup()
		cache := client.Engine()
		for i := 0; i < to; i++ {
			q := gen.request(i)
			if i < from || q.Class == classRegister {
				if _, _, err := inferOnce(ctx, client, q); err != nil {
					return fmt.Errorf("traced pass: request %d: %w", i, err)
				}
				continue
			}
			served, resolved, err := tr.tracedInfer(ctx, cache, q)
			if err != nil {
				return fmt.Errorf("traced pass: request %d: %w", i, err)
			}
			if resolved {
				resolvedServe = append(resolvedServe, ms(served))
			} else {
				residentServe = append(residentServe, ms(served))
			}
		}
		return nil
	}()
	if err != nil {
		return nil, err
	}
	rep.spans = tr.spans
	spanMetrics(rep, tr.spans)
	put("trace.overhead_ms", spanMedian(tr.spans, spanRequest)-median(plainTotal), "ms")
	resolve := 0.0
	if len(resolvedServe) > 0 && len(residentServe) > 0 {
		resolve = median(resolvedServe) - median(residentServe)
	}
	put("core.tier_resolve_ms", resolve, "ms")

	// Pass 3: the same requests over HTTP, one at a time, then the
	// concurrent window.
	s, warm, _, err := setUp(ctx, wl, gen, workDir)
	if err != nil {
		return nil, err
	}
	defer func() { _ = s.close() }() // best effort on error paths; the success path checks below
	rep.count("warm-up", warm)
	var httpTTFT []float64
	var sequential []result
	for i := from; i < to; i++ {
		r := s.do(ctx, gen.request(i), time.Now(), false)
		sequential = append(sequential, r)
		if r.err == nil && r.req.Class != classRegister {
			httpTTFT = append(httpTTFT, ms(r.first.Sub(r.start)))
		}
	}
	rep.count("http-sequential", sequential)
	put("server.overhead_ms", median(httpTTFT)-median(plainTTFT), "ms")

	w, err := s.window(ctx, gen, to, pl.window/2)
	if err != nil {
		return nil, err
	}
	rep.count("window", w.all())
	checkLedger(&rep.ledger, wl, w.after)
	counterMetrics(rep, w)
	rep.Runner = runnerOf(seed, w.after)
	if err := s.close(); err != nil {
		return nil, err
	}

	if err := layerTimings(ctx, rep, wl); err != nil {
		return nil, err
	}
	return rep, nil
}

// spanMedian is the median length in ms of the spans with a name.
func spanMedian(spans []span, name string) float64 {
	var v []float64
	for _, sp := range spans {
		if sp.Name == name {
			v = append(v, ms(time.Duration(sp.End-sp.Start)))
		}
	}
	return median(v)
}

// spanMetrics derives the per-request layer timings and each layer's
// self-time share of the request from the recorded spans.
func spanMetrics(rep *layerReport, spans []span) {
	put := rep.put
	children := make(map[int]int64) // span ID -> time covered by its children
	for _, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] += sp.End - sp.Start
		}
	}
	self := make(map[string]int64)
	var requests int64
	var serveSelf, schedWait []float64
	for _, sp := range spans {
		own := max(sp.End-sp.Start-children[sp.ID], 0)
		self[sp.Name] += own
		switch sp.Name {
		case spanRequest:
			requests += sp.End - sp.Start
		case spanServe:
			serveSelf = append(serveSelf, ms(time.Duration(own)))
		case spanGenerate:
			if len(sp.Marks) > 0 {
				schedWait = append(schedWait, ms(time.Duration(sp.Marks[0]-sp.Start)))
			}
		}
	}
	put("pml.parse_us", 1000*spanMedian(spans, spanParse), "us")
	put("tokenizer.encode_us", 1000*spanMedian(spans, spanEncode), "us")
	put("core.admit_wait_ms", spanMedian(spans, spanAdmit), "ms")
	put("core.serve_self_ms", median(serveSelf), "ms")
	put("core.sched_wait_ms", median(schedWait), "ms")
	// The decode share is one name whichever step the workload uses.
	self[spanDecode] += self[spanVerify]
	for _, name := range []string{spanRequest, spanParse, spanAdmit, spanServe, spanGenerate, spanEncode, spanPrefill, spanDecode} {
		put("share."+name, float64(self[name])/float64(max(requests, 1)), "share")
	}
}

// counterMetrics reports the counters of the concurrent window from
// /v1/stats deltas.
func counterMetrics(rep *layerReport, w windowed) {
	put := rep.put
	d := func(a, b int) float64 { return float64(a - b) }
	before, after := w.before, w.after
	// Imports and prompt tokens are counted on the client side (the
	// generator's import count, the done event's token counts), so the
	// shares do not depend on how the engine counts a hit.
	imports, cached, fresh := 0, 0, 0
	for _, r := range w.all() {
		if r.err == nil {
			imports += r.req.Imports
			cached += r.cached
			fresh += r.fresh
		}
	}
	tiersA, tiersB := after.Tiers, before.Tiers
	resolved := d(tiersA.ModulesPromoted, tiersB.ModulesPromoted) + d(tiersA.DiskHits, tiersB.DiskHits) +
		d(after.ModulesReloaded, before.ModulesReloaded)
	put("core.tier_hit_share", 1-resolved/float64(max(imports, 1)), "share")
	put("core.modules_demoted", d(tiersA.ModulesDemoted, tiersB.ModulesDemoted), "count")
	put("core.modules_promoted", d(tiersA.ModulesPromoted, tiersB.ModulesPromoted), "count")
	put("core.modules_spilled", d(tiersA.ModulesSpilled, tiersB.ModulesSpilled), "count")
	put("core.modules_reloaded", d(after.ModulesReloaded, before.ModulesReloaded), "count")
	put("core.disk_hits", d(tiersA.DiskHits, tiersB.DiskHits), "count")
	put("core.disk_retries", d(tiersA.DiskRetries, tiersB.DiskRetries), "count")
	put("core.tier_account_errors", float64(tiersA.TierAccountErrors), "count")

	put("core.cached_token_share", float64(cached)/float64(max(cached+fresh, 1)), "share")

	admitted, shed := 0.0, 0.0
	if a, b := after.Admission, before.Admission; a != nil && b != nil {
		admitted = float64(a.Interactive.Admitted + a.Batch.Admitted - b.Interactive.Admitted - b.Batch.Admitted)
		shed = float64(a.Interactive.Shed + a.Batch.Shed - b.Interactive.Shed - b.Batch.Shed)
	}
	put("core.admitted", admitted, "count")
	put("core.shed", shed, "count")

	batch, perStep := 0.0, 0.0
	if a, b := after.Scheduler, before.Scheduler; a != nil && b != nil {
		var steps, laneSteps int64
		for i := range a.BatchHist {
			n := a.BatchHist[i]
			if i < len(b.BatchHist) {
				n -= b.BatchHist[i]
			}
			steps += n
			laneSteps += n * int64(i+1)
		}
		if steps > 0 {
			batch = float64(laneSteps) / float64(steps)
			perStep = float64(a.TokensDecoded-b.TokensDecoded) / float64(laneSteps)
		}
	}
	put("core.sched_mean_batch", batch, "lanes")
	put("core.spec_accepted_per_step", perStep, "tok/step")
}
