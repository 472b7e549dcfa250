package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/kvcache"
	"repro/internal/mining"
	"repro/internal/model"
)

// DefaultMaxDecodeBatch is the fused-step width the decode scheduler uses
// when WithDecodeScheduler is given a non-positive bound.
const DefaultMaxDecodeBatch = 8

// SchedStats is a snapshot of decode-scheduler activity, the
// observability surface behind /v1/stats: instantaneous queue/lane
// gauges, lifetime lane and step counters, and the batch-size histogram
// that shows whether traffic actually fuses.
type SchedStats struct {
	// Enabled reports whether the cache runs a decode scheduler at all.
	Enabled bool
	// MaxBatch is the fused-step width bound.
	MaxBatch int
	// QueueDepth is the number of requests waiting to join the batch.
	QueueDepth int
	// ActiveLanes is the number of sequences currently decoding fused.
	ActiveLanes int
	// LanesJoined / LanesRetired / LanesCancelled count lane lifecycle
	// events; Cancelled is the subset of Retired evicted by their context.
	LanesJoined, LanesRetired, LanesCancelled int64
	// Steps counts fused model steps executed; TokensDecoded counts
	// tokens produced across all lanes (one per lane per step sampled).
	Steps, TokensDecoded int64
	// BatchHist[i] counts fused steps that ran with i+1 lanes; its tail
	// filling up is continuous batching working.
	BatchHist []int64
	// DecodeNs is total wall time spent inside fused model steps.
	DecodeNs int64
	// SpecSteps counts fused steps that verified at least one draft
	// token; DraftProposed and DraftAccepted count draft tokens verified
	// and accepted across all lanes. Accepted drafts are tokens produced
	// without their own fused step — the speculation win.
	SpecSteps, DraftProposed, DraftAccepted int64
}

// TokensPerSec is the decode-phase throughput: tokens produced per second
// of fused-step wall time. Zero before any step runs.
func (s SchedStats) TokensPerSec() float64 {
	if s.DecodeNs == 0 {
		return 0
	}
	return float64(s.TokensDecoded) / (float64(s.DecodeNs) / 1e9)
}

// schedLane is one request's sequence inside the scheduler: its KV state,
// sampler and stop conditions, the emit sink for streaming, and the
// model-side DecodeLane holding its scratch.
type schedLane struct {
	ctx    context.Context
	kv     kvcache.KV
	logits []float32 // next-token logits (serve result, then lane scratch)
	opts   model.GenerateOpts
	emit   func(tok int) bool // nil for non-streaming requests
	class  SLOClass           // admission priority while queued

	dl   *model.DecodeLane
	pos  int
	next int // token sampled this iteration, fed to the fused step
	out  []int
	err  error
	done chan struct{}

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

// Scheduler fuses concurrent decode loops into shared model steps
// (continuous batching). Requests join mid-flight after their prefill:
// each run-loop iteration samples every active lane with its own sampler,
// retires lanes whose stop condition fired (stop token, MaxTokens,
// context cancellation, emit refusal), admits waiting lanes up to
// MaxBatch, and then executes ONE fused model step for all survivors —
// so N concurrent generations cost one layer walk per token, not N.
//
// Determinism: a lane's arithmetic runs on its own scratch in solo order
// inside the fused step, and sampling uses the request's own sampler
// state, so a request's token and logit streams are bit-identical whether
// it decoded alone or fused with any mix of neighbors joining and
// retiring around it.
//
// With a draft source (WithSpeculation) the fused step speculates: each
// lane proposes up to draftBudget tokens from its class's n-gram table,
// one widened verify step scores all proposed positions, and settle
// accepts exactly the prefix solo decode would have sampled, truncating
// the rest — several tokens per step when the draft is right, the same
// bit-identical stream always. Retiring lanes feed their accepted tokens
// back into the draft source, which is how it trains.
//
// The run loop starts on demand and exits when no lanes are active or
// waiting, so an idle scheduler costs nothing and needs no Close.
type Scheduler struct {
	m        *model.Model
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

	// stepToks/stepPos are the run loop's per-step argument headers and
	// stepDone the lanes a step retires, reused across steps so a fused
	// step allocates nothing.
	stepToks, stepPos [][]int
	stepDone          []*schedLane
}

// newScheduler builds a scheduler over m with the given fused-step width
// (non-positive means DefaultMaxDecodeBatch).
func newScheduler(m *model.Model, maxBatch int) *Scheduler {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxDecodeBatch
	}
	return &Scheduler{m: m, maxBatch: maxBatch, hist: make([]int64, maxBatch)}
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
	return SchedStats{
		Enabled:        true,
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
}

// Generate submits one sequence to the scheduler and blocks until it
// retires, returning the generated ids (semantics identical to
// model.Generate / model.GenerateStream, including error returns). The
// caller keeps ownership of kv after return; while the lane is live the
// scheduler is the one goroutine appending to it. class is the serve's
// serving-class key, which scopes draft-source lookups when speculation
// is enabled; the empty string is a valid (shared) class.
func (s *Scheduler) Generate(ctx context.Context, class string, kv kvcache.KV, lastLogits []float32, opts model.GenerateOpts, emit func(tok int) bool) ([]int, error) {
	opts.Defaults()
	if kv.Len() == 0 {
		//pclint:ignore errtaxonomy mirrors model.Generate's guard verbatim so fused and solo decode return identical errors
		return nil, fmt.Errorf("model: Generate on empty cache")
	}
	if len(lastLogits) != s.m.Cfg.VocabSize {
		//pclint:ignore errtaxonomy mirrors model.Generate's guard verbatim so fused and solo decode return identical errors
		return nil, fmt.Errorf("model: logits width %d != vocab %d", len(lastLogits), s.m.Cfg.VocabSize)
	}
	ln := &schedLane{
		ctx:       ctx,
		kv:        kv,
		logits:    lastLogits,
		opts:      opts,
		emit:      emit,
		class:     SLOFromContext(ctx),
		pos:       kv.MaxPos(),
		done:      make(chan struct{}),
		specOn:    s.draft != nil && opts.Speculation.Policy != model.SpecOff,
		specClass: class,
	}
	s.mu.Lock()
	s.pending[ln.class] = append(s.pending[ln.class], ln)
	s.joined++
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

// run is the scheduler's decode loop. It owns every admitted lane
// outright — samplers, KV tails, scratch — and takes s.mu only for
// admission and stats, never across model work or emit callbacks.
func (s *Scheduler) run() {
	var active []*schedLane
	var lanes []*model.DecodeLane
	var kvs []kvcache.KV
	var expired []*schedLane
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
			}
		}
		if len(active) == 0 {
			// len(pending) is 0 too (admission above drained it), so the
			// loop parks by exiting; the next Generate restarts it.
			s.running = false
			s.active = 0
			s.mu.Unlock()
			for _, ln := range expired {
				s.retire(ln, ln.ctx.Err())
			}
			return
		}
		s.active = len(active)
		s.mu.Unlock()
		for _, ln := range expired {
			s.retire(ln, ln.ctx.Err())
		}

		// Sample-and-retire phase: per lane, the exact pre-step sequence
		// of the solo loop (MaxTokens, ctx, sample, stop token, emit,
		// MaxSeq), so retirement decisions match solo decoding bit for
		// bit. Only a lane's first iteration runs it here: after that the
		// lane is ready — settle already ran the sequence against the
		// previous step's logits. With a draft source, each surviving
		// lane then proposes draft tokens to verify alongside its sampled
		// one.
		keep := active[:0] // filtered in place
		lanes, kvs = lanes[:0], kvs[:0]
		for _, ln := range active {
			if ln.ready {
				ln.ready = false
			} else if stop, err := s.advance(ln); stop {
				s.retire(ln, err)
				continue
			}
			ln.spec = append(ln.spec[:0], ln.next)
			if ln.specOn {
				if budget := s.draftBudget(ln); budget > 0 {
					ln.spec = append(ln.spec, s.draft.Propose(ln.specClass, ln.out, budget)...)
				}
			}
			keep = append(keep, ln)
			lanes = append(lanes, ln.dl)
			kvs = append(kvs, ln.kv)
		}
		active = keep
		if len(lanes) > 0 {
			active = s.step(active, lanes, kvs)
		}
	}
}

// step runs one fused model step for every lane in active — each lane's
// sampled token plus whatever draft tokens it proposed, so a batch with no
// drafts anywhere is a plain k = 1 step — then settles every lane. It
// returns active filtered in place to the lanes that survived.
func (s *Scheduler) step(active []*schedLane, lanes []*model.DecodeLane, kvs []kvcache.KV) []*schedLane {
	s.stepToks, s.stepPos = s.stepToks[:0], s.stepPos[:0]
	for _, ln := range active {
		ln.specPos = ln.specPos[:0]
		for j := range ln.spec {
			ln.specPos = append(ln.specPos, ln.pos+j)
		}
		s.stepToks = append(s.stepToks, ln.spec)
		s.stepPos = append(s.stepPos, ln.specPos)
	}

	start := time.Now()
	err := s.m.DecodeStepBatchMulti(lanes, s.stepToks, s.stepPos, kvs)
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
	keep, done := active[:0], s.stepDone[:0]
	for _, ln := range active {
		if ln.err = ln.dl.Err(); ln.err != nil {
			// The failed lane appended nothing; solo decode would fail the
			// same step with the same error.
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
	s.tokens += int64(len(lanes)) + accepted
	s.hist[len(lanes)-1]++
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
	s.stepDone = done[:0]
	return keep
}

// settle replays the solo post-step sequence over a lane's step logits:
// position j's logits feed the exact advance() the solo loop would run
// next, and the draft token at j+1 is accepted only when the lane's own
// sampler picked precisely it. On divergence — or any retirement — the
// speculative tail rows are truncated away, so the lane's KV, sampler
// state, token stream and emitted output are bit-identical to never
// having speculated. A surviving lane leaves settle step-ready: its next
// token is sampled and emitted, awaiting the next fused step. With no
// drafts (k = 1) that is one advance and nothing to truncate. A lane that
// stops instead carries its outcome in ln.err for the caller to retire.
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

// draftBudget bounds a lane's draft width: the request's MaxDraft, the
// remaining token budget (a draft past MaxTokens can never be accepted),
// and the remaining position headroom.
func (s *Scheduler) draftBudget(ln *schedLane) int {
	b := ln.opts.Speculation.MaxDraft
	if r := ln.opts.MaxTokens - len(ln.out); r < b {
		b = r
	}
	if r := s.m.Cfg.MaxSeq - 1 - ln.pos; r < b {
		b = r
	}
	if b < 0 {
		b = 0
	}
	return b
}

// advance runs one lane's pre-step phase — the head of the solo decode
// loop — and reports whether the lane retires instead of stepping.
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

// retire removes a lane from the batch: release its scratch, record the
// outcome, and wake its Generate caller. Lanes cancelled while still
// queued retire without ever having acquired a DecodeLane. After done
// closes the scheduler never touches the lane or its KV again.
func (s *Scheduler) retire(ln *schedLane, err error) {
	ln.err = err
	if ln.dl != nil {
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
	if err != nil && ln.ctx.Err() != nil {
		s.cancelled++
	}
	s.mu.Unlock()
	close(ln.done)
}
