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
// The pool has one worker per CPU, at most one per prompt.
//
// Decode is one lane state machine with two drivers. With
// WithDecodeScheduler the decode phase is continuous-batched: concurrent
// generations join a shared token scheduler after their prefills and
// advance together, one fused model step per token for the whole batch.
// Requests join mid-flight, retire independently (stop token, MaxTokens,
// context cancellation), and each produces exactly the token stream it
// would have produced decoding alone — the scheduler changes throughput,
// never output. Snapshot's Scheduler block exposes queue depth, active
// lanes and the batch-size histogram. Without it each generation runs
// the same state machine on its caller's goroutine.
//
// With WithSpeculation decode speculates, on either driver: accepted
// token streams train a per-serving-class n-gram draft source, and each
// lane verifies the draft's proposals in one widened step, emitting
// several tokens per step when the draft is right. Output stays
// bit-identical to plain decode — a wrong draft costs verify width,
// never a token — and requests opt out per call via
// GenConfig.Speculation. Snapshot's Speculation block exposes acceptance
// counters.
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
// (WithDecodeScheduler, WithSpeculation, WithDeviceCapacity, ...). A
// constructor that validates a name returns (Option, error) — WithBackend
// — for runtime-supplied names (flags, config files); its Must* variant
// (MustBackend) panics on a bad name and exists for compile-time-constant
// names in tests and examples. Capacities are plain byte counts, 0 for
// uncapped, and the device tier evicts the least recently used module.
//
// WithBackend selects the tensor kernel backend's worker count by name
// ("scalar" for one worker; "parallel" or "auto", the default, for one
// per CPU). Outputs are bit-identical by contract: more workers split the
// same arithmetic across cores without ever reordering a reduction, so
// the choice moves latency and core utilization, never tokens or logits —
// cached modules, snapshots and golden outputs are portable across
// worker counts and machines.
//
// Reuse is declared, as in the paper: text many requests share — a
// system prompt, RAG boilerplate, few-shot headers — becomes a <module>
// of a schema, and every request that imports it splices the whole span.
//
// Schema registration encodes module states outside the engine lock,
// concurrently, and installs them under one short hold: requests keep
// planning and serving while a registration runs, and a registration
// that fails leaves the schema it would replace serving. Sessions
// serialize their own turns; use one Session per conversation.
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

// New builds a Client around a model. Options (tier capacities, disk
// tier and its codec, chat template) pass through to the engine.
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
// scaffold states (declared modules in the disk tier's codec, scaffolds
// fp32, for exactness) — into dir as a warm-restart snapshot
// that Open restores lazily. Serving and registration continue while it
// runs: the snapshot is the registry at one short cut under the lock.
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

// StatsAPIVersion is the schema version of the Snapshot document; it
// bumps only on a breaking change.
const StatsAPIVersion = core.StatsAPIVersion

// Snapshot is the one stats document /v1/stats serializes: counters,
// tier occupancy, backend identity, and an admission, scheduler or
// speculation block exactly when that subsystem is configured. An
// alias of the engine's type, which assembles it in one consistent cut.
type Snapshot = core.Snapshot

// Snapshot returns the stats document. OpenSessions is left 0 for the
// transport to fill (a Client holds no sessions registry).
func (c *Client) Snapshot() Snapshot { return c.cache.Snapshot() }

// OverloadError is the typed payload of a shed request, carrying the
// computed Retry-After estimate; recover it with errors.As or
// RetryAfterHint.
type OverloadError = core.OverloadError

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
	if req.Baseline {
		return c.cache.BaselineServe(ctx, req.Prompt)
	}
	return c.cache.Serve(ctx, req.Prompt, core.ServeOpts{DisableScaffolds: req.DisableScaffolds})
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
