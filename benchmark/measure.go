package main

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/model"
	"repro/promptcache"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseCount is the attempted/succeeded/failed ledger of one phase of a
// run (warm-up, replay, the window, or one open-loop rate).
type phaseCount struct {
	Phase                        string
	Attempted, Succeeded, Failed int
}

// ledger counts what a run attempted, phase by phase, and collects the
// reasons its outputs were not correct.
type ledger struct {
	Phases   []phaseCount
	Problems []string
}

func (l *ledger) attempted() (attempted, failed int) {
	for _, p := range l.Phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return attempted, failed
}

// correct reports whether nothing failed and no check found a problem.
func (l *ledger) correct() bool {
	_, failed := l.attempted()
	return failed == 0 && len(l.Problems) == 0
}

func (l *ledger) problemf(format string, args ...any) {
	l.Problems = append(l.Problems, fmt.Sprintf(format, args...))
}

// count books a phase's results; the first few failures are kept as
// problems.
func (l *ledger) count(phase string, results []result) {
	pc := phaseCount{Phase: phase, Attempted: len(results)}
	for _, res := range results {
		if res.err != nil {
			pc.Failed++
			if pc.Failed <= 3 {
				l.problemf("%s: request %d (%s): %v", phase, res.req.Index, res.req.Class, res.err)
			}
		}
	}
	pc.Succeeded = pc.Attempted - pc.Failed
	l.Phases = append(l.Phases, pc)
}

// runReport is everything one timed run of one workload produced.
type runReport struct {
	Workload string
	// Metrics holds everything measured: the end-to-end metrics
	// BENCHMARK.json declares, and diagnostics beside them.
	Metrics map[string]metric
	Samples map[string]int // sample count behind each latency metric
	Runner  runner
	ledger
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// setUp builds a stack and warms it: model build + server start + schema
// registration (module encoding) + warm-up traffic. The whole of it is
// setup_s, so work moved out of the request path into set-up shows.
func setUp(ctx context.Context, wl *workloadSpec, gen *generator, workDir string) (*stack, []result, time.Duration, error) {
	t0 := time.Now()
	s, err := newStack(ctx, wl, gen, workDir)
	if err != nil {
		return nil, nil, 0, err
	}
	warm := s.closedLoop(ctx, gen, 0, wl.warmup, time.Time{}, false)
	return s, warm, time.Since(t0), nil
}

// reference serves requests through a fresh client with every
// optimisation off — scalar backend, no scheduler, no tiers, no
// speculation, no admission — and returns each reply's token texts.
func reference(ctx context.Context, gen *generator, reqs []request) ([][]string, error) {
	m, err := model.New(model.LlamaStyle(vocabSize, modelSeed))
	if err != nil {
		return nil, err
	}
	ref := promptcache.New(m, promptcache.MustBackend("scalar"))
	if err := loadInProcess(ref, gen); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	out := make([][]string, len(reqs))
	for i, q := range reqs {
		_, err := ref.Infer(ctx, promptcache.Request{
			Prompt: q.Prompt,
			Gen:    promptcache.GenConfig{MaxTokens: q.MaxTokens, StopToken: -1},
			Stream: func(text string) bool { out[i] = append(out[i], onTheWire(text)); return true },
		})
		if err != nil {
			return nil, fmt.Errorf("reference: request %d: %w", q.Index, err)
		}
	}
	return out, nil
}

// loadInProcess gives a client in this process what set-up gives the
// server over HTTP: the lexicon, then the workload's schemas.
func loadInProcess(client *promptcache.Client, gen *generator) error {
	tok := client.Engine().Tokenizer()
	for _, w := range gen.lx.words {
		tok.Encode(w)
	}
	for _, src := range gen.schemas() {
		if _, err := client.RegisterSchema(src); err != nil {
			return err
		}
	}
	return nil
}

// onTheWire is a token's text as an HTTP client sees it. A high
// byte-fallback token decodes to a lone byte, which is not valid UTF-8,
// and the server's JSON encoder sends U+FFFD in its place; the reference
// text gets the same substitution so that both sides are compared as
// observed. (High byte tokens are thereby indistinguishable from each
// other — the one blind spot of comparing text instead of ids.)
func onTheWire(text string) string { return strings.ToValidUTF8(text, "\uFFFD") }

// replayRequestsOf returns the first n streaming requests of a workload.
func replayRequestsOf(gen *generator, n int) []request {
	var reqs []request
	for i := 0; len(reqs) < n; i++ {
		if q := gen.request(i); q.Class != classRegister {
			reqs = append(reqs, q)
		}
	}
	return reqs
}

// checkReplay is the correctness gate before the window: the HTTP
// stream of each replayed request must equal the reference client's,
// token for token.
func checkReplay(ctx context.Context, s *stack, gen *generator, rep *ledger) error {
	reqs := replayRequestsOf(gen, replayRequests)
	want, err := reference(ctx, gen, reqs)
	if err != nil {
		return err
	}
	results := make([]result, len(reqs))
	for i, q := range reqs {
		results[i] = s.do(ctx, q, time.Now(), true)
		if results[i].err == nil && !slices.Equal(results[i].text, want[i]) {
			results[i].err = fmt.Errorf("output mismatch: got %q, reference %q", results[i].text, want[i])
		}
	}
	rep.count("replay", results)
	return nil
}

// runTimed is one timed (untraced) run of a workload: pl.setups
// set-ups, the correctness replay against the last one, then the
// measured window.
func runTimed(ctx context.Context, wl *workloadSpec, seed uint64, pl plan, lx *lexicon, workDir string) (*runReport, error) {
	gen := newGenerator(seed, wl, lx)
	rep := &runReport{Workload: wl.name, Metrics: map[string]metric{}, Samples: map[string]int{}}

	var (
		s      *stack
		setups []float64
	)
	for i := 0; i < pl.setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		var (
			warm []result
			took time.Duration
			err  error
		)
		if s, warm, took, err = setUp(ctx, wl, gen, workDir); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i == pl.setups-1 {
			rep.count("warm-up", warm)
		}
	}
	defer func() { _ = s.close() }() // best effort on error paths; the success path checks below
	rep.Metrics["setup_s"] = metric{median(setups), "s"}

	if err := checkReplay(ctx, s, gen, &rep.ledger); err != nil {
		return nil, err
	}

	w, err := s.window(ctx, gen, wl.warmup, pl.window)
	if err != nil {
		return nil, err
	}
	summarize(rep, wl, w)
	checkLedger(&rep.ledger, wl, w.after)
	rep.Metrics["pool_bytes"] = metric{float64(w.after.PoolBytes), "bytes"}
	rep.Runner = runnerOf(seed, w.after)
	if err := s.close(); err != nil {
		return nil, err
	}
	rep.Metrics["heap_peak_mb"] = metric{s.serverHeapMB, "MB"}
	return rep, nil
}

// windowed is one measured window: what the clients saw, and /v1/stats
// on either side of it.
type windowed struct {
	start         time.Time
	closed        []result // the closed loop's operations
	open          []result // the open loop's, when the workload has rates
	openStats     openStats
	before, after promptcache.Snapshot
}

func (w *windowed) all() []result { return append(slices.Clone(w.closed), w.open...) }

// window drives the workload for d, from operation `from` on. A
// workload without rates spends all of d in the closed loop. One with
// rates spends the first half there — the closed loop is where its
// latency and throughput metrics come from, because on a small machine
// open-loop percentiles of a ten-second window do not repeat from run to
// run — and the second half in the open loop, split evenly over its
// fixed rates, which is where SLO attainment comes from.
func (s *stack) window(ctx context.Context, gen *generator, from int, d time.Duration) (w windowed, err error) {
	if w.before, err = s.snapshot(ctx); err != nil {
		return w, err
	}
	closed := d
	if len(gen.wl.rates) > 0 {
		closed = d / 2
	}
	w.start = time.Now()
	w.closed = s.closedLoop(ctx, gen, from, 0, w.start.Add(closed), false)
	if rates := gen.wl.rates; len(rates) > 0 {
		w.open, w.openStats = s.openLoop(ctx, gen, from+len(w.closed), (d-closed)/time.Duration(len(rates)))
	}
	w.after, err = s.snapshot(ctx)
	return w, err
}

// summarize turns a window into the end-to-end metrics and diagnostics.
func summarize(rep *runReport, wl *workloadSpec, w windowed) {
	var (
		ttft, tpot, register []float64
		tokens, completed    int
		end                  = w.start
	)
	for _, r := range w.closed {
		if r.err != nil {
			continue
		}
		completed++
		if r.last.After(end) {
			end = r.last
		}
		if r.req.Class == classRegister {
			register = append(register, ms(r.last.Sub(r.start)))
			continue
		}
		tokens += r.n
		ttft = append(ttft, ms(r.first.Sub(r.start)))
		if r.n > 1 {
			tpot = append(tpot, ms(r.last.Sub(r.first))/float64(r.n-1))
		}
	}
	sort.Float64s(ttft)
	sort.Float64s(tpot)
	sort.Float64s(register)
	elapsed := end.Sub(w.start).Seconds()

	rep.Metrics["ttft_p50_ms"] = metric{quantile(ttft, 0.50), "ms"}
	rep.Metrics["ttft_p90_ms"] = metric{quantile(ttft, 0.90), "ms"}
	rep.Metrics["tpot_p50_ms"] = metric{quantile(tpot, 0.50), "ms"}
	rep.Metrics["out_tok_s"] = metric{float64(tokens) / elapsed, "tok/s"}
	rep.Metrics["req_s"] = metric{float64(completed) / elapsed, "req/s"}
	rep.Samples["ttft_p50_ms"], rep.Samples["ttft_p90_ms"] = len(ttft), len(ttft)
	rep.Samples["tpot_p50_ms"] = len(tpot)

	rep.Metrics["ttft_p99_ms"] = metric{quantile(ttft, 0.99), "ms"}
	rep.Samples["ttft_p99_ms"] = len(ttft)
	rep.Metrics["window_s"] = metric{elapsed, "s"}
	if len(register) > 0 {
		rep.Metrics["register_p50_ms"] = metric{quantile(register, 0.50), "ms"}
		rep.Samples["register_p50_ms"] = len(register)
	}
	rep.count("window", w.closed)

	if len(wl.rates) == 0 {
		rep.Metrics["slo_attainment"] = metric{attainment(w.closed), "share"}
	} else {
		summarizeOpen(rep, wl, w)
	}
	attempted, failed := rep.attempted()
	rep.Metrics["fail_share"] = metric{float64(failed) / float64(max(attempted, 1)), "share"}
}

// summarizeOpen reports the open loop: per fixed rate, TTFT from the due
// time and the share of requests sent that met both latency limits; and
// over all rates, slo_attainment, the highest rate within the SLO, and
// how late the generator ran.
func summarizeOpen(rep *runReport, wl *workloadSpec, w windowed) {
	maxRate := 0
	for p, rate := range wl.rates {
		var phase []result
		var ttft []float64
		for _, r := range w.open {
			if r.phase != p {
				continue
			}
			phase = append(phase, r)
			if r.err == nil {
				ttft = append(ttft, ms(r.first.Sub(r.start)))
			}
		}
		sort.Float64s(ttft)
		rep.count(fmt.Sprintf("open@%drps", rate), phase)
		att := attainment(phase)
		rep.Metrics[fmt.Sprintf("ttft_p50_ms@%drps", rate)] = metric{quantile(ttft, 0.5), "ms"}
		rep.Metrics[fmt.Sprintf("ttft_p90_ms@%drps", rate)] = metric{quantile(ttft, 0.9), "ms"}
		rep.Samples[fmt.Sprintf("ttft_p50_ms@%drps", rate)], rep.Samples[fmt.Sprintf("ttft_p90_ms@%drps", rate)] = len(ttft), len(ttft)
		rep.Metrics[fmt.Sprintf("slo_attainment@%drps", rate)] = metric{att, "share"}
		rep.Metrics[fmt.Sprintf("backlog_end@%drps", rate)] = metric{float64(w.openStats.backlog[p]), "count"}
		// A backlog deeper than two requests per connection at the end of
		// a phase is a queue that arrivals outrun.
		if att >= sloTarget && w.openStats.backlog[p] <= 2*clientCount() {
			maxRate = max(maxRate, rate)
		}
	}
	rep.Metrics["slo_attainment"] = metric{attainment(w.open), "share"}
	rep.Metrics["max_rate_in_slo_rps"] = metric{float64(maxRate), "req/s"}
	lag := make([]float64, len(w.openStats.lag))
	for i, d := range w.openStats.lag {
		lag[i] = ms(d)
	}
	sort.Float64s(lag)
	rep.Metrics["generator_lag_p99_ms"] = metric{quantile(lag, 0.99), "ms"}
}

// attainment is the share of requests sent that met both latency
// limits; a failed or refused request misses.
func attainment(results []result) float64 {
	sent, met := 0, 0
	for _, r := range results {
		if r.req.Class == classRegister {
			continue
		}
		sent++
		if r.err != nil || ms(r.first.Sub(r.start)) > ttftLimitMs {
			continue
		}
		if r.n > 1 && ms(r.last.Sub(r.first))/float64(r.n-1) > gapLimitMs {
			continue
		}
		met++
	}
	if sent == 0 {
		return 0
	}
	return float64(met) / float64(sent)
}

// checkLedger asserts the engine's books after the window: no tier
// accounting error, and every admitted request completed.
func checkLedger(rep *ledger, wl *workloadSpec, after promptcache.Snapshot) {
	if n := after.Tiers.TierAccountErrors; n != 0 {
		rep.problemf("ledger: tier_account_errors = %d", n)
	}
	if wl.admission {
		a := after.Admission
		switch {
		case a == nil:
			rep.problemf("ledger: admission block missing from /v1/stats")
		case a.Interactive.Admitted != a.Interactive.Completed || a.Batch.Admitted != a.Batch.Completed:
			rep.problemf("ledger: admitted %d+%d != completed %d+%d",
				a.Interactive.Admitted, a.Batch.Admitted, a.Interactive.Completed, a.Batch.Completed)
		}
	}
}
