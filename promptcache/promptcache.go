// Package promptcache is the public serving API of the Prompt Cache
// reproduction (Gim et al., MLSys 2024). It wraps the engine in
// internal/core behind a small, context-aware surface:
//
//   - Client.Infer(ctx, Request) is the single inference entrypoint:
//     cached or baseline serving, optional streaming, prefill-only runs
//     for TTFT measurement, and sampling control, all in one request.
//   - Client.NewSession / Session.Send own the multi-turn KV state that
//     callers previously threaded by hand through core.Continue.
//   - Every failure wraps a sentinel from the error taxonomy
//     (ErrUnknownSchema, ErrBadPrompt, ErrArgTooLong, ...), so
//     transports classify with errors.Is instead of string matching.
//
// Cancelling the context aborts work mid-flight: between prefill chunks
// during serving and between decode steps during generation.
//
// # Concurrency
//
// A Client is safe for concurrent use, and serving is genuinely
// parallel: the engine's lock guards only metadata (schema registry,
// module residency, eviction bookkeeping). Each Infer pins the modules
// it needs during a short planning phase, then serves zero-copy: the
// request's KV is a segmented view into the pinned modules' buffers
// (no per-request copy of cached rows), and the suffix prefill runs
// outside the lock. Pinned modules cannot be evicted while a view reads
// them — Infer releases its pins after generation, Sessions hold theirs
// until Close (Session.Materialize releases them early by copying the
// state into owned storage). InferBatch is the same serve path fanned
// out over a bounded worker pool: members importing a module view its
// one resident copy, and their pins release when the batch returns.
//
// With WithDecodeScheduler the decode phase is continuous-batched:
// concurrent generations join a shared token scheduler after their
// prefills and advance together, one fused model step per token for the
// whole batch. Requests join mid-flight, retire independently (stop
// token, MaxTokens, context cancellation), and each produces exactly the
// token stream it would have produced decoding alone — the scheduler
// changes throughput, never output. SchedulerStats exposes queue depth,
// active lanes and the batch-size histogram.
//
// With WithSpeculation (which requires the decode scheduler) decode
// speculates: accepted token streams train a per-serving-class n-gram
// draft source, and each lane verifies the draft's proposals in one
// widened fused step, emitting several tokens per step when the draft is
// right. Output stays bit-identical to solo decode — a wrong draft costs
// verify width, never a token — and requests opt in or out per call via
// GenConfig.Speculation. SpecStats exposes acceptance counters.
//
// # Generation options
//
// GenConfig is the single generation-options surface: Request.Gen,
// Session defaults, BatchRequest.Gen and the HTTP request shapes all
// take the same struct (max tokens, sampler, stop token, SLO class,
// speculation).
//
// # Options convention
//
// Option constructors that cannot fail return Option directly
// (WithDecodeScheduler, WithSpeculation, ...). Constructors that
// validate a name return (Option, error) — WithBackend,
// WithEvictionPolicy — for runtime-supplied names (flags, config files);
// their Must* variants (MustBackend, MustEvictionPolicy) panic on a bad
// name and exist for compile-time-constant names in tests and examples.
//
// WithBackend selects the tensor kernel backend's worker count by name
// ("scalar" for one worker; "parallel" or "auto", the default, for one
// per CPU). Outputs are bit-identical by contract: more workers split the
// same arithmetic across cores without ever reordering a reduction, so
// the choice moves latency and core utilization, never tokens or logits —
// cached modules, snapshots and golden outputs are portable across
// worker counts and machines.
//
// With WithModuleMining the cache grows itself: alongside the explicit
// PML modules a schema declares, the engine watches the uncached token
// streams requests actually send and promotes hot shared prefixes
// (undeclared system prompts, RAG boilerplate, few-shot headers) to
// anonymous mined modules. Mined and explicit modules coexist in one
// inventory — same pinning, eviction, disk spill and warm-restart
// machinery — and a request whose suffix starts with a mined prefix
// splices its states bit-exactly, like a schema hit. Snapshot's Mining
// block exposes the observer tree and hit counters.
//
// Schema registration encodes module states under the engine lock
// (encoding is the deliberate one-time cost): requests already past
// planning are unaffected, but a request that starts while a
// registration runs waits for it to finish — keep registrations off
// latency-critical paths. Sessions serialize their own turns; use one
// Session per conversation.
//
// The option constructors (WithDeviceCapacity, WithHostTier, ...), the
// Sampler aliases, and SchemaInfo keep the public surface free of
// internal types; New's model argument is the one deliberate exception,
// since constructing a model is inherently an engine-level act.
package promptcache

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

// Client is the serving handle around one model + prompt cache. It is
// safe for concurrent use.
type Client struct {
	cache *core.Cache
}

// New builds a Client around a model. Options (memory pools, eviction
// policy, int8 storage, chat template) pass through to the engine.
func New(m *model.Model, opts ...Option) *Client {
	return &Client{cache: core.NewCache(m, opts...)}
}

// Wrap adopts an existing engine cache — for callers that configured or
// snapshot-restored a core.Cache directly.
func Wrap(cache *core.Cache) *Client { return &Client{cache: cache} }

// Open builds a Client from a SaveAll warm-restart snapshot in dir:
// every schema the snapshot holds is registered with its module states
// left on disk, so opening performs no prompt encoding and the first
// request per module is a disk hit, not a re-encode. The client keeps
// dir as its disk tier for future evictions and snapshots. HasSnapshot
// reports whether dir holds something Open can restore.
func Open(m *model.Model, dir string, opts ...Option) (*Client, error) {
	cache, err := core.OpenDir(m, dir, opts...)
	if err != nil {
		return nil, err
	}
	return &Client{cache: cache}, nil
}

// HasSnapshot reports whether dir holds a SaveAll snapshot.
func HasSnapshot(dir string) bool { return core.HasSnapshot(dir) }

// SaveAll persists every registered schema — layout plus all module and
// scaffold states, quantized per the disk tier's codec when one is
// configured — into dir as a warm-restart snapshot for Open.
func (c *Client) SaveAll(dir string) error { return c.cache.SaveAll(dir) }

// Engine exposes the underlying core.Cache for advanced uses the public
// API does not cover (direct inspection, engine counters).
func (c *Client) Engine() *core.Cache { return c.cache }

// Model returns the underlying model.
func (c *Client) Model() *model.Model { return c.cache.Model() }

// SchemaInfo summarizes a registered schema without exposing the
// internal layout type. Advanced callers needing the compiled layout can
// reach it through Engine().Layout(name).
type SchemaInfo struct {
	// Name is the schema's declared name.
	Name string
	// Modules lists the schema's prompt modules in layout order.
	Modules []string
	// Scaffolds lists the schema's co-encoded scaffolds.
	Scaffolds []string
	// Positions is the number of position IDs the layout occupies.
	Positions int
}

// RegisterSchema parses a PML schema, compiles its layout, and eagerly
// encodes every prompt module and scaffold. Registration failures wrap
// ErrBadSchema (parse/compile), ErrPromptTooLong (layout exceeds the
// model's positions), or ErrCapacity (states do not fit the pool).
// Registering is safe while other goroutines serve: in-flight requests
// keep the states they already pinned; later requests see the new entry.
func (c *Client) RegisterSchema(src string) (*SchemaInfo, error) {
	layout, err := c.cache.RegisterSchema(src)
	if err != nil {
		return nil, err
	}
	info := &SchemaInfo{
		Name:      layout.Schema.Name,
		Modules:   append([]string(nil), layout.Order...),
		Positions: layout.TotalLen,
	}
	for _, sc := range layout.Schema.Scaffolds {
		info.Scaffolds = append(info.Scaffolds, sc.Name)
	}
	return info, nil
}

// Schemas returns the names of all registered schemas, sorted.
func (c *Client) Schemas() []string { return c.cache.SchemaNames() }

// SchedulerEnabled reports whether this client decodes through a
// continuous-batching scheduler (WithDecodeScheduler), without the
// locking and copying of a full Snapshot.
func (c *Client) SchedulerEnabled() bool { return c.cache.SchedEnabled() }

// MiningEnabled reports whether this client mines modules from traffic
// (WithModuleMining).
func (c *Client) MiningEnabled() bool { return c.cache.MiningEnabled() }

// OverloadError is the typed payload of a shed request, carrying the
// computed Retry-After estimate; recover it with errors.As or
// RetryAfterHint.
type OverloadError = core.OverloadError

// AdmissionEnabled reports whether this client admission-controls its
// requests (WithAdmission).
func (c *Client) AdmissionEnabled() bool { return c.cache.AdmissionEnabled() }

// SpecStats is a snapshot of speculative-decoding activity: the draft
// source's table statistics plus the scheduler's verify/accept counters.
// An alias of the engine's type, like Option and Sampler.
type SpecStats = core.SpecStats

// SpecStats returns a snapshot of speculative-decoding activity. Without
// WithSpeculation it returns the zero snapshot (Enabled false).
func (c *Client) SpecStats() SpecStats { return c.cache.SpecStats() }

// SpeculationEnabled reports whether this client speculates its decodes:
// a draft source (WithSpeculation) together with a decode scheduler
// (WithDecodeScheduler) to run the verify steps in.
func (c *Client) SpeculationEnabled() bool { return c.cache.SpecEnabled() }

// RetryAfterHint recovers the Retry-After estimate from a shed
// request's error chain: how long the caller should back off before
// retrying. ok is false when err is not an overload.
func RetryAfterHint(err error) (d time.Duration, ok bool) {
	var oe *OverloadError
	if errors.As(err, &oe) {
		return oe.RetryAfter, true
	}
	return 0, false
}

// admit acquires an admission slot (and the class deadline) for one
// request, returning the possibly-deadline-bound, SLO-tagged context
// plus the cleanup that releases both. The slot spans the whole request
// — queueing, prefill and decode — so MaxConcurrent bounds true
// end-to-end concurrency. On error nothing is held and done must not
// be called.
func (c *Client) admit(ctx context.Context, class SLOClass) (context.Context, func(), error) {
	ctx, cancel := c.cache.AdmissionContext(ctx, class)
	if err := c.cache.Admit(ctx, class); err != nil {
		cancel()
		return nil, nil, err
	}
	done := func() {
		c.cache.AdmitRelease(class)
		cancel()
	}
	return core.WithSLOClass(ctx, class), done, nil
}

// Infer runs one inference request end to end: admission (under
// WithAdmission: a slot, the class deadline, possibly a shed), then
// serve the prompt (cached reuse or full-prefill baseline), then
// generate unless the request is prefill-only. Cancelling ctx aborts
// mid-prefill or between decode steps; the error then satisfies
// errors.Is(err, context.Canceled) (or DeadlineExceeded, which also
// carries ErrDeadline when a configured per-request deadline expired).
func (c *Client) Infer(ctx context.Context, req Request) (*Response, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	ctx, done, err := c.admit(ctx, req.Gen.SLO)
	if err != nil {
		return nil, err
	}
	defer done()
	res, err := c.serve(ctx, req)
	if err != nil {
		return nil, err
	}
	// The result's KV is a zero-copy view pinning the modules it reads;
	// the pins must outlive generation, then release promptly so the
	// modules become evictable again. Sessions keep their result (and
	// pins) open instead — see NewSession.
	defer res.Close()
	return c.generate(ctx, res, req)
}

// serve assembles the prompt's attention states per the request mode.
func (c *Client) serve(ctx context.Context, req Request) (*core.ServeResult, error) {
	opts := core.ServeOpts{DisableScaffolds: req.DisableScaffolds}
	switch {
	case req.Baseline && req.Parsed != nil:
		return c.cache.BaselineServeParsed(ctx, req.Parsed)
	case req.Baseline:
		return c.cache.BaselineServe(ctx, req.Prompt)
	case req.Parsed != nil:
		return c.cache.ServeParsed(ctx, req.Parsed, opts)
	default:
		return c.cache.Serve(ctx, req.Prompt, opts)
	}
}

// generate runs the decode phase of a request over a served result and
// assembles the Response, decoding with req.Gen's settings.
func (c *Client) generate(ctx context.Context, res *core.ServeResult, req Request) (*Response, error) {
	resp := &Response{
		CachedTokens: res.CachedTokens,
		NewTokens:    res.NewTokens,
		Modules:      res.Modules,
		Scaffolds:    res.Scaffolds,
		Logits:       res.Logits,
	}
	if req.PrefillOnly {
		return resp, nil
	}
	opts := req.Gen.generateOpts()
	var (
		ids []int
		err error
	)
	if req.Stream != nil {
		ids, err = c.cache.GenerateStream(ctx, res, opts, req.Stream)
	} else {
		ids, err = c.cache.Generate(ctx, res, opts)
	}
	if err != nil {
		return nil, err
	}
	resp.Tokens = ids
	resp.Text = c.cache.Tokenizer().Decode(ids)
	return resp, nil
}
