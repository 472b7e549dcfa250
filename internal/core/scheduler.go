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

// SchedStats is the stats document's scheduler block: the lane gauge,
// lifetime lane and step counters, and decode throughput. Every step
// carries one lane, so MaxBatch reads 1, QueueDepth 0 and BatchHist has
// one bucket; the three stay for the /v1/stats contract.
type SchedStats struct {
	// MaxBatch is the lanes one model step carries: always 1.
	MaxBatch int `json:"max_batch"`
	// QueueDepth is always 0: a lane decodes on its request's goroutine
	// from the moment its prefill returns, so nothing waits to join.
	QueueDepth int `json:"queue_depth"`
	// ActiveLanes is the number of requests currently decoding.
	ActiveLanes int `json:"active_lanes"`
	// LanesJoined / LanesRetired / LanesCancelled count lane lifecycle
	// events; Cancelled is the subset of Retired evicted by their context.
	LanesJoined    int64 `json:"lanes_joined"`
	LanesRetired   int64 `json:"lanes_retired"`
	LanesCancelled int64 `json:"lanes_cancelled"`
	// Steps counts model steps executed; TokensDecoded counts tokens
	// produced (one per step, plus each accepted draft token).
	Steps         int64 `json:"fused_steps"`
	TokensDecoded int64 `json:"tokens_decoded"`
	// BatchHist[0] counts steps, each of one lane.
	BatchHist []int64 `json:"batch_hist"`
	// TokensPerSec is tokens produced per second of model-step time
	// (DecodeNs), summed over lanes: one lane's decode rate. Zero before
	// any step.
	TokensPerSec float64 `json:"tokens_per_sec"`
	// DecodeNs is total time spent inside model steps, summed over lanes.
	DecodeNs int64 `json:"-"`
	// SpecSteps counts steps that verified at least one draft token;
	// DraftProposed and DraftAccepted count draft tokens verified and
	// accepted across all lanes. Accepted drafts are tokens produced
	// without a step of their own — the speculation win. The document
	// carries them in the speculation block.
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

	dl   *model.DecodeLane
	pos  int
	next int // token sampled last, fed to the next step
	out  []int

	// speculation state: specOn resolves the request's policy against
	// the engine's draft source; specClass keys draft lookups (the serve's
	// serving class, possibly empty); spec and specPos are the step's
	// token/position runs — spec[0] is the sampled token, the rest draft
	// proposals.
	specOn    bool
	specClass string
	spec      []int
	specPos   []int

	// The model step's one-lane argument headers, kept here so a step
	// allocates nothing.
	dls        [1]*model.DecodeLane
	kvs        [1]kvcache.KV
	toks, poss [1][]int
}

// Scheduler is the engine's one decode loop: a per-lane state machine
// (advance, draft proposal, one model step, settle, retire) that each
// Generate runs on its caller's goroutine. Concurrent requests decode
// concurrently, one goroutine each, sharing only the read-only weights,
// the draft source and the counters below.
//
// After every step the loop gives up its core twice: runtime.Gosched
// hands the P to runnable goroutines (a stream's token writer), and
// osYield hands the CPU to other threads. Decode threads never block
// between steps, so without the second yield they keep the cores from a
// co-located process — a client reading the stream, or one waiting to
// send its next request — until the OS preempts them.
//
// Determinism: a lane's arithmetic runs on its own scratch in one-lane
// order, and sampling uses the request's own sampler state, so a
// request's token and logit streams are bit-identical to plain decode,
// whatever else runs beside it.
//
// With a draft source (WithSpeculation) the step speculates: each lane
// proposes up to draftBudget tokens from its class's n-gram table, one
// widened verify step scores all proposed positions, and settle accepts
// exactly the prefix plain decode would have sampled, truncating the
// rest — several tokens per step when the draft is right, the same
// bit-identical stream always. Retiring lanes feed their accepted tokens
// back into the draft source, which is how it trains.
type Scheduler struct {
	m *model.Model
	// draft, when non-nil, is the n-gram draft source speculative decode
	// proposes from (WithSpeculation). It synchronizes itself; lanes
	// call it without holding mu.
	draft *mining.Draft
	// yield is the OS-level yield after each step (osYield; tests count
	// calls through it).
	yield func()

	mu     sync.Mutex
	active int // lanes decoding (gauge)

	joined, retired, cancelled int64
	steps, tokens              int64
	decodeNs                   int64

	specSteps, draftProposed, draftAccepted int64
}

// newScheduler builds the decode loop over m.
func newScheduler(m *model.Model) *Scheduler {
	return &Scheduler{m: m, yield: osYield}
}

// Stats returns a snapshot of scheduler activity.
func (s *Scheduler) Stats() SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SchedStats{
		MaxBatch:       1,
		ActiveLanes:    s.active,
		LanesJoined:    s.joined,
		LanesRetired:   s.retired,
		LanesCancelled: s.cancelled,
		Steps:          s.steps,
		TokensDecoded:  s.tokens,
		BatchHist:      []int64{s.steps},
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
// emit, when non-nil, receives each token as it is sampled, on the
// caller's goroutine, and stops decoding by returning false.
//
// class is the serve's serving-class key, which scopes draft-source
// lookups; the empty string is a valid (shared) class.
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
		pos:       kv.MaxPos(),
		specOn:    s.draft != nil && !opts.Speculation.Off,
		specClass: class,
	}
	s.mu.Lock()
	s.joined++
	s.active++
	s.mu.Unlock()
	err := s.decode(ln)
	return ln.out, err
}

// decode runs one lane until it retires: the pre-step sequence once,
// then propose, one model step and settle per iteration, each followed
// by the two yields.
func (s *Scheduler) decode(ln *schedLane) error {
	ln.dl = s.m.NewDecodeLane()
	ln.dls[0], ln.kvs[0] = ln.dl, ln.kv
	stop, err := s.advance(ln)
	for !stop {
		s.propose(ln)
		stop, err = s.step(ln)
		runtime.Gosched()
		s.yield()
	}
	s.retire(ln, err)
	return err
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

// step runs one model step over the lane's sampled token plus whatever
// draft tokens it proposed — a plain k = 1 step without drafts — then
// settles the lane and counts the step. It reports whether the lane
// retires, and why.
func (s *Scheduler) step(ln *schedLane) (stop bool, err error) {
	ln.specPos = ln.specPos[:0]
	for j := range ln.spec {
		ln.specPos = append(ln.specPos, ln.pos+j)
	}
	ln.toks[0], ln.poss[0] = ln.spec, ln.specPos

	start := time.Now()
	err = s.m.DecodeStepBatchMulti(ln.dls[:], ln.toks[:], ln.poss[:], ln.kvs[:])
	elapsed := time.Since(start)
	if err == nil {
		err = ln.dl.Err()
	}
	if err != nil {
		// The failed lane appended nothing; stepping again would fail
		// the same way.
		return true, err
	}

	proposed := int64(len(ln.spec) - 1)
	accepted, stop, err := s.settle(ln)
	s.mu.Lock()
	s.steps++
	if proposed > 0 {
		s.specSteps++
	}
	s.tokens += 1 + int64(accepted)
	s.decodeNs += elapsed.Nanoseconds()
	s.draftProposed += proposed
	s.draftAccepted += int64(accepted)
	s.mu.Unlock()
	return stop, err
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
// truncate.
func (s *Scheduler) settle(ln *schedLane) (accepted int, stop bool, err error) {
	n := len(ln.spec)
	base := ln.kv.Len() - n
	for j := 0; ; j++ {
		ln.logits = ln.dl.LogitsAt(j)
		if stop, err = s.advance(ln); stop {
			ln.kv.Truncate(base + j + 1)
			return accepted, true, err
		}
		if j+1 < n && ln.next == ln.spec[j+1] {
			accepted++
			continue
		}
		ln.kv.Truncate(base + j + 1)
		return accepted, false, nil
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

// retire ends a lane: release its scratch, feed its stream to the draft
// source, and record the outcome. The slot in the active gauge is given
// back in the same locked section that counts the lane retired, so a
// stats read that sees it retired also sees its slot free.
func (s *Scheduler) retire(ln *schedLane, err error) {
	ln.dl.Close()
	if s.draft != nil && len(ln.out) >= 2 {
		// Feed the accepted stream to the draft source — only tokens
		// decode actually produced, never rejected proposals, so the
		// predictor cannot reinforce its own mistakes. Streams train the
		// draft even when the request itself declined speculation.
		s.draft.Observe(ln.specClass, ln.out)
	}
	s.mu.Lock()
	s.retired++
	s.active--
	if err != nil && ln.ctx.Err() != nil {
		s.cancelled++
	}
	s.mu.Unlock()
}
