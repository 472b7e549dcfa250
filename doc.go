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
// # Decode: one lane state machine, two drivers
//
// Decode runs as it would under a plain KV cache (§3.4: prompt modules
// are not employed beyond the initial token), through one per-lane state
// machine in internal/core (core.Scheduler): sample with the request's
// sampler, check its stop conditions, emit, then ONE model step
// (model.DecodeStepBatchMulti) that settles the lane. Two drivers run
// it. With promptcache.WithDecodeScheduler, a background run loop fuses
// every concurrent generation: each joins as a lane after its prefill,
// and each iteration admits waiting lanes, runs one batched step for all
// of them — a single layer walk per step for the whole batch, instead of
// one per request — and retires finished or cancelled ones. Without it,
// each generation drives the same state machine on its own goroutine as
// a batch of one. Each lane's k positions run as a k-row block through
// the one layer body that prefill (k = n) also runs. A request's token
// and logit streams are bit-identical on either driver; the scheduler
// changes throughput, never output.
// The scheduler block of /v1/stats (core.Cache.Snapshot, the one stats
// document) exposes queue depth, active lanes, the batch-size histogram
// and decode tokens/sec; the benchmark of record's decode.long workload
// measures it through the server.
//
// # Speculative decoding
//
// With promptcache.WithSpeculation, on either driver, the decode step
// widens: a back-off n-gram draft source — trained on the token streams
// decode actually produced per serving class (schema, imports,
// scaffolds and exclusions: one attention context), no second model —
// proposes up to 4 tokens
// per lane, and the same step, at several positions per lane,
// scores every proposed position. Each lane accepts exactly the longest
// proposal prefix matching what its sampler picks, falls back to the
// verified next token on rejection, and truncates unverified KV rows —
// so output is bit-identical to non-speculative decode by construction,
// and a cold or wrong draft costs verify width, never a token. Requests
// opt out per call via promptcache.GenConfig.Speculation (whose MaxDraft
// can narrow the width of 4, never widen it); `pcserve
// -speculate` wires it into the server (the /v1/stats "speculation"
// block tracks acceptance), and the benchmark of record's decode.spec
// workload measures tokens per second against decode.long's identical
// requests.
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
// Module states live in a three-level hierarchy — device tier
// (WithDeviceCapacity), host tier (WithHostTier), and a durable disk
// tier (WithDiskTier) — each larger, slower and cheaper than the one
// above, and every level cheaper than re-encoding. States in memory are
// always fp32 (§4.1), so every splice is zero-copy. Eviction takes the
// device's least recently used unpinned module and demotes it
// device→host; when the host tier is absent or full the module spills
// to a content-addressed file instead of dropping, and that blob is the
// one place states are quantized, per the tier's codec (CodecFP32
// bit-exact, CodecInt8 ~3.5× smaller, CodecInt4 ~6×). The next serve
// reads the blob back outside the engine lock, checks it against the
// sha256 that names it, decodes it to fp32 and promotes it like any
// host-tier hit: no capacity error, no re-encode. Each memory tier's
// bytes are one ledger in the engine's tier store, whose members are
// the modules the tier holds; /v1/stats exposes per-tier occupancy and
// movement counters.
//
// The same blob store backs warm restarts: Client.SaveAll(dir) persists
// every registered schema (PML source, module and scaffold states, the
// tokenizer's learned vocabulary) and promptcache.Open(m, dir) restores
// it all with zero prompt encoding — modules and scaffolds alike come
// back disk-resident and promote lazily, so a restarted server's first
// cached request is a cache hit. Scaffolds are modules throughout: they
// evict, demote, spill (always fp32, for exactness) and reload like any
// other. SaveAll locks the engine only to cut the registry and writes
// off the lock, so serving and registration continue; the snapshot is
// the registry at the cut. `pcserve -cache-dir` wires the loop end to
// end (SIGTERM snapshots, next boot warm-restores). Snapshots validate
// model shape, module rosters and token counts before restoring, and
// corrupt blobs degrade to a transparent re-encode, never a crash.
//
// # Declaring shared text
//
// Reuse is declared, as in the paper: text many requests share — a
// system prompt, RAG boilerplate, a few-shot header — is a <module> of a
// schema (or a promptlang def), and a prompt that imports it splices the
// module's states for the whole span. The engine holds two module
// kinds, declared modules and scaffolds, and runs both through one tier
// state machine.
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
// module view the same resident states and hold ordinary pins. Encoding
// runs outside the lock too: schema registration encodes its modules
// concurrently and installs them under one short hold, and a serve that
// needs a dropped module re-encodes it off the lock, so serves keep
// planning during either. See the "Concurrency" section of README.md
// for the full contract.
//
// The library implements the paper's full stack: a transformer inference
// engine with explicit position IDs (internal/model, internal/tensor,
// internal/kvcache), the Prompt Markup Language and its position-layout
// compiler (internal/pml), a prompt-program front end (internal/
// promptlang), the prompt cache itself — schema encoding, scaffolding,
// cached inference, LRU eviction, tiered storage and warm-restart
// snapshots (internal/core) — calibrated hardware latency and copy-path
// models (internal/hw), synthetic LongBench workloads (internal/longbench),
// evaluation metrics (internal/metrics), an HTTP serving layer over the
// public API (internal/server) and the experiment harness that
// regenerates every table and figure in the paper (internal/bench).
//
// See README.md for a tour, and `go run ./cmd/pcbench list` for the
// experiment index.
// The root-level benchmarks in bench_test.go regenerate each table and
// figure via `go test -bench=.`.
package repro
