package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/kvcache"
	"repro/internal/mining"
	"repro/internal/model"
)

// DefaultMaxDecodeBatch is the fused-step width the decode scheduler uses
// when WithDecodeScheduler is given a non-positive bound.
const DefaultMaxDecodeBatch = 8

// SchedStats is the stats document's scheduler block: instantaneous
// queue/lane gauges, lifetime lane and step counters, and the
// batch-size histogram that shows whether traffic actually fuses.
type SchedStats struct {
	// MaxBatch is the fused-step width bound.
	MaxBatch int `json:"max_batch"`
	// QueueDepth is the number of requests waiting to join the batch.
	QueueDepth int `json:"queue_depth"`
	// ActiveLanes is the number of sequences currently decoding fused.
	ActiveLanes int `json:"active_lanes"`
	// LanesJoined / LanesRetired / LanesCancelled count lane lifecycle
	// events; Cancelled is the subset of Retired evicted by their context.
	LanesJoined    int64 `json:"lanes_joined"`
	LanesRetired   int64 `json:"lanes_retired"`
	LanesCancelled int64 `json:"lanes_cancelled"`
	// Steps counts fused model steps executed; TokensDecoded counts
	// tokens produced across all lanes (one per lane per step sampled).
	Steps         int64 `json:"fused_steps"`
	TokensDecoded int64 `json:"tokens_decoded"`
	// BatchHist[i] counts fused steps that ran with i+1 lanes; its tail
	// filling up is continuous batching working.
	BatchHist []int64 `json:"batch_hist"`
	// TokensPerSec is the decode-phase throughput: tokens produced per
	// second of fused-step wall time (DecodeNs). Zero before any step.
	TokensPerSec float64 `json:"tokens_per_sec"`
	// DecodeNs is total wall time spent inside fused model steps.
	DecodeNs int64 `json:"-"`
	// SpecSteps counts steps, on either driver, that verified at least
	// one draft token; DraftProposed and DraftAccepted count draft tokens
	// verified and accepted across all lanes. Accepted drafts are tokens
	// produced without a step of their own — the speculation win. The
	// document carries them in the speculation block.
	SpecSteps, DraftProposed, DraftAccepted int64 `json:"-"`
}

// schedLane is one request's sequence inside the lane state machine: its
// KV state, sampler and stop conditions, the emit sink for streaming, and
// the model-side DecodeLane holding its scratch.
type schedLane struct {
	ctx    context.Context
	kv     kvcache.KV
	logits []float32 // next-token logits (serve result, then lane scratch)
	opts   model.GenerateOpts
	emit   func(tok int) bool // nil for non-streaming requests
	class  SLOClass           // admission priority while queued

	dl   *model.DecodeLane
	pos  int
	next int // token sampled this iteration, fed to the next step
	out  []int
	err  error
	done chan struct{} // closed at retirement; nil on the inline driver

	// speculation state: specOn resolves the request's policy against
	// the engine's draft source; specClass keys draft lookups (the serve's
	// serving class, possibly empty); spec and specPos are the step's
	// token/position runs — spec[0] is the sampled token, the rest draft
	// proposals; ready marks a lane whose pre-step sequence already ran
	// inside settle, so the next iteration steps it without re-sampling.
	specOn    bool
	specClass string
	spec      []int
	specPos   []int
	ready     bool
}

// Scheduler is the engine's one decode loop: a per-lane state machine
// (advance, draft proposal, one model step, settle, retire) with two
// drivers. With WithDecodeScheduler a background run loop fuses
// concurrent generations into shared model steps (continuous batching):
// requests join mid-flight after their prefill, each iteration samples
// every active lane with its own sampler, retires lanes whose stop
// condition fired (stop token, MaxTokens, context cancellation, emit
// refusal), admits waiting lanes up to MaxBatch, and then executes ONE
// fused model step for all survivors — so N concurrent generations cost
// one layer walk per token, not N. Without it, Generate drives the same
// state machine inline on the caller's goroutine as a batch of one: no
// goroutine, no handoff.
//
// Determinism: a lane's arithmetic runs on its own scratch in one-lane
// order inside the fused step, and sampling uses the request's own sampler
// state, so a request's token and logit streams are bit-identical on
// either driver, alone or fused with any mix of neighbors joining and
// retiring around it.
//
// With a draft source (WithSpeculation) the step speculates on either
// driver: each lane proposes up to draftBudget tokens from its class's
// n-gram table, one widened verify step scores all proposed positions,
// and settle accepts exactly the prefix plain decode would have sampled,
// truncating the rest — several tokens per step when the draft is right,
// the same bit-identical stream always. Retiring lanes feed their
// accepted tokens back into the draft source, which is how it trains.
//
// The run loop starts on demand and exits when no lanes are active or
// waiting, so an idle scheduler costs nothing and needs no Close.
type Scheduler struct {
	m *model.Model
	// fused selects the driver: the background run loop
	// (WithDecodeScheduler), or inline on each Generate caller.
	fused    bool
	maxBatch int
	// draft, when non-nil, is the n-gram draft source speculative decode
	// proposes from (WithSpeculation). It synchronizes itself; the run
	// loop calls it without holding mu.
	draft *mining.Draft

	mu sync.Mutex
	// pending holds queued lanes per SLO class: the admission sweep
	// drains interactive before batch, FIFO within a class — so batch
	// backfill never starves a user-facing lane of a slot, and
	// all-interactive traffic (the default) keeps the original order.
	pending [numSLOClasses][]*schedLane
	active  int // lanes inside the run loop (gauge; loop owns the slice)
	running bool

	joined, retired, cancelled int64
	steps, tokens              int64
	decodeNs                   int64
	hist                       []int64

	specSteps, draftProposed, draftAccepted int64
}

// stepArgs is one driver's per-step argument headers and the lanes a step
// retires, reused across steps so a step allocates nothing.
type stepArgs struct {
	lanes      []*model.DecodeLane
	kvs        []kvcache.KV
	toks, poss [][]int
	done       []*schedLane
}

// newScheduler builds the decode loop over m: fused with the given step
// width (non-positive means DefaultMaxDecodeBatch), or inline.
func newScheduler(m *model.Model, fused bool, maxBatch int) *Scheduler {
	if !fused {
		maxBatch = 1
	} else if maxBatch <= 0 {
		maxBatch = DefaultMaxDecodeBatch
	}
	return &Scheduler{m: m, fused: fused, maxBatch: maxBatch, hist: make([]int64, maxBatch)}
}

// pendingLocked sums queued lanes across SLO classes. Callers hold s.mu.
func (s *Scheduler) pendingLocked() int {
	n := 0
	for cl := range s.pending {
		n += len(s.pending[cl])
	}
	return n
}

// Stats returns a snapshot of scheduler activity.
func (s *Scheduler) Stats() SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SchedStats{
		MaxBatch:       s.maxBatch,
		QueueDepth:     s.pendingLocked(),
		ActiveLanes:    s.active,
		LanesJoined:    s.joined,
		LanesRetired:   s.retired,
		LanesCancelled: s.cancelled,
		Steps:          s.steps,
		TokensDecoded:  s.tokens,
		BatchHist:      append([]int64(nil), s.hist...),
		DecodeNs:       s.decodeNs,
		SpecSteps:      s.specSteps,
		DraftProposed:  s.draftProposed,
		DraftAccepted:  s.draftAccepted,
	}
	if st.DecodeNs > 0 {
		st.TokensPerSec = float64(st.TokensDecoded) / (float64(st.DecodeNs) / 1e9)
	}
	return st
}

// Generate decodes one sequence from a prefilled cache and its final
// prefill logits, returning the generated ids (stop token excluded). New
// tokens take consecutive positions after the cache's maximum position
// ID: decode runs as it would under a plain KV cache (§3.4, "prompt
// modules are not employed beyond the initial token"). Cancelling ctx
// aborts between steps with ctx.Err() and the tokens produced so far;
// emit, when non-nil, receives each token as it is sampled and stops
// decoding by returning false.
//
// The fused driver queues the lane for the run loop and blocks until it
// retires; while the lane is live the run loop is the one goroutine
// appending to kv. The inline driver runs the lane here. Either way the
// caller keeps ownership of kv after return. class is the serve's
// serving-class key, which scopes draft-source lookups; the empty string
// is a valid (shared) class.
func (s *Scheduler) Generate(ctx context.Context, class string, kv kvcache.KV, lastLogits []float32, opts model.GenerateOpts, emit func(tok int) bool) ([]int, error) {
	opts.Defaults()
	if kv.Len() == 0 {
		return nil, fmt.Errorf("%w: Generate on an empty cache", ErrBadPrompt)
	}
	if len(lastLogits) != s.m.Cfg.VocabSize {
		return nil, fmt.Errorf("%w: logits width %d != vocab %d", ErrBadPrompt, len(lastLogits), s.m.Cfg.VocabSize)
	}
	ln := &schedLane{
		ctx:       ctx,
		kv:        kv,
		logits:    lastLogits,
		opts:      opts,
		emit:      emit,
		class:     SLOFromContext(ctx),
		pos:       kv.MaxPos(),
		specOn:    s.draft != nil && !opts.Speculation.Off,
		specClass: class,
	}
	s.mu.Lock()
	s.joined++
	if !s.fused {
		s.active++
		s.mu.Unlock()
		s.inline(ln)
		return ln.out, ln.err
	}
	ln.done = make(chan struct{})
	s.pending[ln.class] = append(s.pending[ln.class], ln)
	if !s.running {
		s.running = true
		go s.run()
	}
	s.mu.Unlock()
	// The run loop checks ln.ctx every iteration — active lanes in their
	// sample phase, queued lanes in the admission sweep — so cancellation
	// closes done within one fused step; no second wakeup path is needed,
	// and no goroutine may touch the lane after done closes.
	<-ln.done
	return ln.out, ln.err
}

// inline is the inline driver: it runs one lane through iterate, the body
// the run loop runs, on the caller's goroutine until the lane retires.
func (s *Scheduler) inline(ln *schedLane) {
	ln.dl = s.m.NewDecodeLane()
	var args stepArgs
	for active := []*schedLane{ln}; len(active) > 0; {
		active = s.iterate(&args, active)
		// Yield per step as the run loop does: the caller's goroutine
		// holds its core for the whole reply otherwise, and a stream's
		// token writer waits for the preemption tick.
		runtime.Gosched()
	}
}

// run is the fused driver's loop. It owns every admitted lane outright —
// samplers, KV tails, scratch — and takes s.mu only for admission and
// stats, never across model work or emit callbacks.
func (s *Scheduler) run() {
	var active, expired []*schedLane
	var args stepArgs
	for {
		// Admission: sweep cancelled waiters (a queued request whose
		// client vanished must not wait for a batch slot to learn it),
		// then pull survivors into free slots. Joining is cheap (a
		// DecodeLane from the scratch pool), so requests join the very
		// next iteration after their prefill finishes.
		expired = expired[:0]
		s.mu.Lock()
		for cl := range s.pending {
			live := s.pending[cl][:0]
			for _, ln := range s.pending[cl] {
				if ln.ctx.Err() != nil {
					expired = append(expired, ln)
					continue
				}
				live = append(live, ln)
			}
			s.pending[cl] = live
		}
		// Fill free slots interactive-first: batch lanes join only when
		// no interactive lane is waiting (FIFO within each class).
		for cl := range s.pending {
			for len(active) < s.maxBatch && len(s.pending[cl]) > 0 {
				ln := s.pending[cl][0]
				s.pending[cl] = s.pending[cl][1:]
				ln.dl = s.m.NewDecodeLane()
				active = append(active, ln)
				s.active++
			}
		}
		if len(active) == 0 {
			// len(pending) is 0 too (admission above drained it), so the
			// loop parks by exiting; the next Generate restarts it.
			s.running = false
		}
		s.mu.Unlock()
		for _, ln := range expired {
			s.retire(ln, ln.ctx.Err())
		}
		if len(active) == 0 {
			return
		}
		active = s.iterate(&args, active)
		// The loop never blocks between steps, so without a yield it
		// keeps a core to itself until preemption. Each step's tokens
		// go out on other goroutines (stream writes, new requests'
		// prefills), which then queue for the remaining cores.
		runtime.Gosched()
	}
}

// iterate is one pass of the lane state machine over active, the body
// both drivers run. Sample-and-retire phase: per lane, the pre-step
// sequence (MaxTokens, ctx, sample, stop token, emit, MaxSeq). Only a
// lane's first iteration runs it here: after that the lane is ready —
// settle already ran the sequence against the previous step's logits.
// Each surviving lane then proposes its drafts, and all of them run ONE
// model step, which settles them. It returns active filtered in place to
// the lanes still decoding.
func (s *Scheduler) iterate(args *stepArgs, active []*schedLane) []*schedLane {
	keep := active[:0]
	for _, ln := range active {
		if ln.ready {
			ln.ready = false
		} else if stop, err := s.advance(ln); stop {
			s.retire(ln, err)
			continue
		}
		s.propose(ln)
		keep = append(keep, ln)
	}
	if len(keep) == 0 {
		return keep
	}
	return s.step(args, keep)
}

// propose sets a lane's step tokens: its sampled token, then whatever the
// draft source proposes within draftBudget when the lane speculates.
func (s *Scheduler) propose(ln *schedLane) {
	ln.spec = append(ln.spec[:0], ln.next)
	if ln.specOn {
		if budget := s.draftBudget(ln); budget > 0 {
			ln.spec = append(ln.spec, s.draft.Propose(ln.specClass, ln.out, budget)...)
		}
	}
}

// step runs one model step for every lane in active — each lane's
// sampled token plus whatever draft tokens it proposed, so a batch with no
// drafts anywhere is a plain k = 1 step — then settles every lane. It
// returns active filtered in place to the lanes that survived.
func (s *Scheduler) step(args *stepArgs, active []*schedLane) []*schedLane {
	args.lanes, args.kvs = args.lanes[:0], args.kvs[:0]
	args.toks, args.poss = args.toks[:0], args.poss[:0]
	for _, ln := range active {
		ln.specPos = ln.specPos[:0]
		for j := range ln.spec {
			ln.specPos = append(ln.specPos, ln.pos+j)
		}
		args.lanes = append(args.lanes, ln.dl)
		args.kvs = append(args.kvs, ln.kv)
		args.toks = append(args.toks, ln.spec)
		args.poss = append(args.poss, ln.specPos)
	}

	start := time.Now()
	err := s.m.DecodeStepBatchMulti(args.lanes, args.toks, args.poss, args.kvs)
	elapsed := time.Since(start)
	if err != nil {
		// Malformed batch call: a scheduler bug, not a lane's fault.
		// Fail every lane rather than decode from corrupt state.
		for _, ln := range active {
			s.retire(ln, err)
		}
		return active[:0]
	}

	// Every stepped lane fed one sampled token; accepted drafts are the
	// tokens produced without a step of their own.
	var proposed, accepted int64
	keep, done := active[:0], args.done[:0]
	for _, ln := range active {
		if ln.err = ln.dl.Err(); ln.err != nil {
			// The failed lane appended nothing; a step of its own would
			// fail the same way with the same error.
			done = append(done, ln)
			continue
		}
		proposed += int64(len(ln.spec) - 1)
		a, stop := s.settle(ln)
		accepted += int64(a)
		if stop {
			done = append(done, ln)
		} else {
			keep = append(keep, ln)
		}
	}

	s.mu.Lock()
	s.steps++
	if proposed > 0 {
		s.specSteps++
	}
	s.tokens += int64(len(args.lanes)) + accepted
	s.hist[len(args.lanes)-1]++
	s.decodeNs += elapsed.Nanoseconds()
	s.draftProposed += proposed
	s.draftAccepted += accepted
	s.mu.Unlock()
	// Retire only once the step is counted: retiring hands a lane's
	// stream back to its Generate caller, whose next stats read must
	// already see the step that produced it.
	for _, ln := range done {
		s.retire(ln, ln.err)
	}
	clear(done)
	args.done = done[:0]
	return keep
}

// settle replays the post-step sequence over a lane's step logits:
// position j's logits feed the exact advance() a k = 1 step would be
// followed by, and the draft token at j+1 is accepted only when the
// lane's own sampler picked precisely it. On divergence — or any
// retirement — the speculative tail rows are truncated away, so the
// lane's KV, sampler state, token stream and emitted output are
// bit-identical to never having speculated. A surviving lane leaves
// settle step-ready: its next token is sampled and emitted, awaiting the
// next step. With no drafts (k = 1) that is one advance and nothing to
// truncate. A lane that stops instead carries its outcome in ln.err for
// the caller to retire.
func (s *Scheduler) settle(ln *schedLane) (accepted int, stop bool) {
	n := len(ln.spec)
	base := ln.kv.Len() - n
	for j := 0; ; j++ {
		ln.logits = ln.dl.LogitsAt(j)
		if stop, ln.err = s.advance(ln); stop {
			ln.kv.Truncate(base + j + 1)
			return accepted, true
		}
		if j+1 < n && ln.next == ln.spec[j+1] {
			accepted++
			continue
		}
		ln.kv.Truncate(base + j + 1)
		ln.ready = true
		return accepted, false
	}
}

// draftBudget bounds a lane's draft width: the remaining position
// headroom, the remaining token budget (a draft past MaxTokens can never
// be accepted) and the request's MaxDraft when it sets one. Propose caps
// the width at the draft source's MaxDraft, so a request without its
// own bound drafts as wide as the engine allows.
func (s *Scheduler) draftBudget(ln *schedLane) int {
	b := min(s.m.Cfg.MaxSeq-1-ln.pos, ln.opts.MaxTokens-len(ln.out))
	if d := ln.opts.Speculation.MaxDraft; d > 0 {
		b = min(b, d)
	}
	return max(b, 0)
}

// advance runs one lane's pre-step phase — sample, stop, emit — and
// reports whether the lane retires instead of stepping.
func (s *Scheduler) advance(ln *schedLane) (stop bool, err error) {
	if len(ln.out) >= ln.opts.MaxTokens {
		return true, nil
	}
	if cerr := ln.ctx.Err(); cerr != nil {
		return true, cerr
	}
	next := ln.opts.Sampler.Sample(ln.logits)
	if next == ln.opts.StopToken {
		return true, nil
	}
	ln.out = append(ln.out, next)
	if ln.emit != nil && !ln.emit(next) {
		return true, nil
	}
	ln.pos++
	if ln.pos >= s.m.Cfg.MaxSeq {
		return true, nil
	}
	ln.next = next
	return false, nil
}

// retire removes a lane from its driver: release its scratch, record the
// outcome, give back its slot in the active gauge, and wake its Generate
// caller. Lanes cancelled while still queued retire without ever having
// acquired a DecodeLane, and so without a slot. After done closes the
// scheduler never touches the lane or its KV again.
func (s *Scheduler) retire(ln *schedLane, err error) {
	ln.err = err
	admitted := ln.dl != nil
	if admitted {
		ln.dl.Close()
	}
	if s.draft != nil && len(ln.out) >= 2 {
		// Feed the accepted stream to the draft source — only tokens
		// decode actually produced, never rejected proposals, so the
		// predictor cannot reinforce its own mistakes. Streams train the
		// draft even when the request itself declined speculation.
		s.draft.Observe(ln.specClass, ln.out)
	}
	s.mu.Lock()
	s.retired++
	if admitted {
		// In the same section as retired++, so a stats read that sees
		// this lane retired also sees its slot free.
		s.active--
	}
	if err != nil && ln.ctx.Err() != nil {
		s.cancelled++
	}
	s.mu.Unlock()
	if ln.done != nil {
		close(ln.done)
	}
}
