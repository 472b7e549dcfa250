// Package repro is a from-scratch Go reproduction of "Prompt Cache:
// Modular Attention Reuse for Low-Latency Inference" (Gim et al., MLSys
// 2024).
//
// The public serving API is the promptcache package: a context-aware
// Client with one inference entrypoint (Infer), multi-turn Sessions,
// batching, streaming, and a typed error taxonomy. Everything else is
// internal machinery behind it.
//
// # Zero-copy serving
//
// Cached serves never copy module K/V rows. A serve stitches a
// kvcache.Seq — immutable segment views into the pinned modules' own
// buffers (excluded parameter slots become segment splits) plus a
// private tail for the request's prefill and decode tokens — and the
// model's attention loops walk those segments in place. Per-request
// cached-prefix assembly is O(#segments) stitching instead of an
// O(prefix × layers × width) memcpy: what remains is the suffix's own
// attention over the cached rows (linear in prefix, tiny constant, vs
// the baseline's quadratic full prefill), and allocations per cached
// serve are suffix-sized, independent of prefix length
// (BenchmarkServeCachedPrefix shows both with -benchmem; the promptcache
// test TestCachedServeAllocationIndependentOfPrefix asserts the
// allocation half).
//
// Views change pin lifetimes: a module stays pinned — immune to
// eviction — until every result viewing it closes. Infer closes its
// result after generation; a Session holds its pins until Close;
// Materialize converts a result or session to owned flat storage and
// releases the pins early (do this before snapshotting a result or
// parking a session long-term under memory pressure).
//
// # Continuous-batching decode
//
// With promptcache.WithDecodeScheduler, the decode phase is fused
// across requests: every concurrent generation joins a token scheduler
// as a lane after its prefill, and each scheduler iteration admits
// waiting lanes, runs ONE batched model step (model.DecodeStepBatchMulti)
// for all of them — a single layer walk and a batched output head per
// step for the whole batch, instead of one per request — then samples
// every lane (per-request samplers and stop conditions) and retires
// finished or cancelled ones. There is one fused walk and one layer
// body: each lane's k positions run as a k-row block through the body
// that prefill (k = n) and solo decode (k = 1) also run, and
// model.DecodeStepBatch is the walk's one-position-per-lane entry point.
// A request's token and logit streams are bit-identical to solo
// decoding; the scheduler changes throughput, never output.
// /v1/stats (and core.Cache.SchedStats) expose queue depth, active
// lanes, the batch-size histogram and decode tokens/sec; the benchmark
// of record's decode.long workload measures it through the server.
//
// # Speculative decoding
//
// With promptcache.WithSpeculation (requires the decode scheduler), the
// fused decode step widens: a back-off n-gram draft source — the same
// radix-structure family as module mining, trained on the token streams
// decode actually produced per serving class, no second model — proposes
// up to MaxDraft tokens per lane, and the same fused step, at several
// positions per lane, scores every proposed position. Each lane
// accepts exactly the longest proposal prefix matching what solo decode
// would have sampled, falls back to the verified next token on
// rejection, and truncates unverified KV rows — so output is
// bit-identical to non-speculative decode by construction, and a cold or
// wrong draft costs verify width, never a token. Requests opt in or out
// per call via promptcache.GenConfig.Speculation; `pcserve -speculate`
// wires it into the server (the /v1/stats "speculation" block tracks
// acceptance), and the benchmark of record's decode.spec workload
// measures tokens per second against decode.long's identical requests.
//
// # Generation options
//
// promptcache.GenConfig is the single generation-options surface —
// max tokens, sampler, stop conditions, SLO class, speculation — shared
// by Request, Session defaults, BatchRequest and the HTTP request
// shapes, which embed it so the wire keys (max_tokens, slo, speculation)
// are the same everywhere.
//
// # Storage tiers & persistence
//
// Module states live in a three-level hierarchy — device pool
// (WithDeviceCapacity), host pool (WithHostTier), and a durable disk
// tier (WithDiskTier) — each larger, slower and cheaper than the one
// above, and every level cheaper than re-encoding. Eviction demotes
// device→host; when the host tier is absent or full the module spills
// to a content-addressed file instead of dropping, quantized per the
// tier's codec (CodecFP32 bit-exact, CodecInt8 ~3.9× smaller, CodecInt4
// ~7×). The next serve reads the blob back outside the engine lock and
// promotes it like any host-tier hit: no capacity error, no re-encode.
// /v1/stats exposes per-tier occupancy and movement counters.
//
// The same blob store backs warm restarts: Client.SaveAll(dir) persists
// every registered schema (PML source, module and scaffold states, the
// tokenizer's learned vocabulary) and promptcache.Open(m, dir) restores
// it all with zero prompt encoding — modules come back disk-resident
// and promote lazily, so a restarted server's first cached request is a
// cache hit. `pcserve -cache-dir` wires the loop end to end (SIGTERM
// snapshots, next boot warm-restores). Snapshots validate model shape,
// module rosters and token counts before restoring, and corrupt blobs
// degrade to a transparent re-encode, never a crash.
//
// # Automatic module mining
//
// With promptcache.WithModuleMining the module inventory grows beyond
// what schemas declare: a radix tree observes the uncached token stream
// of every cached serve and promotes hot shared prefixes (undeclared
// system prompts, RAG boilerplate, few-shot headers) to anonymous mined
// modules. Mined and explicit modules coexist in one inventory — the
// same pinning, eviction, host demotion, disk spill and warm-restart
// paths — and a request whose suffix opens with a mined prefix splices
// its states zero-copy, bit-identically to serving cold: prefixes are
// scoped to a serving class (schema + imports + exclusions, i.e. one
// attention context) and mined states stay fp32 end to end. `pcserve
// -mine` wires it into the server (the /v1/stats "mining" block tracks
// promotions, demotions and tokens saved); `pctrace -mine` replays
// recorded traces offline to size the win first.
//
// # Static analysis
//
// The invariants above are machine-checked: cmd/pclint (driver in
// internal/lint, stdlib go/types only) runs six repo-specific
// analyzers as a hard CI gate — lockscope (nothing heavy under an
// engine mutex), pinbalance (pins released on every error path),
// maporder (no map-iteration nondeterminism on token/snapshot paths),
// ctxplumb (entry points accept and forward context), errtaxonomy
// (engine errors wrap the typed taxonomy the HTTP layer maps with
// errors.Is), and unreached (every exported function under internal/
// has a non-test caller outside its own file). Deliberate exceptions carry an inline
// "//pclint:ignore <analyzer> <reason>" directive; the reason is
// mandatory and malformed directives are themselves diagnostics. See
// the "Static analysis" section of README.md.
//
// # Concurrency
//
// Serving is parallel: the engine lock guards only metadata (schema
// registry, module residency, eviction, stats), while prefills,
// view stitching and decoding run outside it. A serve pins the encoded
// modules it reads, making them immune to eviction while their states
// are viewed. There is one serve path: a batch request is its prompts
// served individually over a bounded worker pool, so members sharing a
// module view the same resident states and hold ordinary pins. Schema
// registration encodes under the lock — the deliberate one-time cost —
// so serves that start mid-registration wait for it, while serves
// already prefilling are unaffected. See the "Concurrency" section of
// README.md for the full contract.
//
// The library implements the paper's full stack: a transformer inference
// engine with explicit position IDs (internal/model, internal/tensor,
// internal/kvcache), the Prompt Markup Language and its position-layout
// compiler (internal/pml), a prompt-program front end (internal/
// promptlang), the prompt cache itself — schema encoding, scaffolding,
// cached inference, LRU eviction, tiered storage and warm-restart
// snapshots (internal/core) — simulated GPU/CPU/disk memory tiers
// (internal/memory), calibrated hardware latency models
// (internal/hw), synthetic LongBench workloads (internal/longbench),
// evaluation metrics (internal/metrics), an HTTP serving layer over the
// public API (internal/server) and the experiment harness that
// regenerates every table and figure in the paper (internal/bench).
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The root-level benchmarks in bench_test.go regenerate each table and
// figure via `go test -bench=.`.
package repro
