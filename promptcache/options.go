package promptcache

import (
	"repro/internal/core"
	"repro/internal/tensor"
)

// Option configures the engine behind a Client. It is an alias of the
// engine's option type, so the constructors below compose freely with
// advanced core options for callers inside this module, while external
// callers never need to import internal packages.
type Option = core.Option

// Codec selects the disk tier's storage precision: CodecFP32 is the
// bit-exact passthrough for deployments that cannot tolerate
// quantization error, CodecInt8 and CodecInt4 trade bounded
// reconstruction error for blob size. `pcbench quant` measures 3.49×
// (int8) and 6.14× (int4) smaller blobs on the seeded model's doc
// module; per-row scales and per-token positions weigh more on narrow
// rows, so the ratios approach 4× and 8× only on wide K/V rows.
type Codec = core.Codec

// The available disk-tier codecs.
const (
	CodecFP32 = core.CodecFP32
	CodecInt8 = core.CodecInt8
	CodecInt4 = core.CodecInt4
)

// ParseCodec maps a codec name ("fp32", "int8", "int4") to its Codec —
// the form configuration flags arrive in.
func ParseCodec(s string) (Codec, error) { return core.ParseCodec(s) }

// WithDiskTier adds a durable disk tier below the memory tiers: a module
// whose eviction would otherwise drop its states spills them to a
// content-addressed file under dir, quantized per codec, and the next
// request that needs it reads the file back and promotes it — a disk hit
// instead of a re-encode. The same dir holds SaveAll/Open warm-restart
// snapshots.
func WithDiskTier(dir string, codec Codec) Option { return core.WithDiskTier(dir, codec) }

// WithDeviceCapacity caps the primary (GPU-modelled) module tier at
// capacity bytes, 0 for uncapped; states that outgrow it evict the least
// recently used module.
func WithDeviceCapacity(capacity int64) Option { return core.WithDeviceCapacity(capacity) }

// WithHostTier enables two-tier storage (§4.1): modules evicted from the
// primary tier demote into a host tier with their states intact and
// promote back on reuse without re-encoding. capacity 0 models unbounded
// host DRAM.
func WithHostTier(capacity int64) Option { return core.WithHostTier(capacity) }

// WithBackend selects the tensor kernel backend by name: "scalar" (one
// worker, the single-threaded reference), or "parallel", "auto" or ""
// (one worker per CPU available to the process). Outputs are
// bit-identical at any worker count — the choice affects latency and
// core utilization, never outputs — so it is safe to vary per deployment
// without invalidating cached modules.
func WithBackend(name string) (Option, error) {
	b, err := tensor.Select(name)
	if err != nil {
		return nil, err
	}
	return core.WithBackend(b), nil
}

// MustBackend is WithBackend for compile-time-constant names: it panics
// on an unknown name instead of returning an error. Use the
// (Option, error) form for names that arrive at runtime.
func MustBackend(name string) Option {
	opt, err := WithBackend(name)
	if err != nil {
		panic(err)
	}
	return opt
}

// Backends lists the selectable backend names for WithBackend.
func Backends() []string { return tensor.Backends() }

// DefaultMaxDecodeBatch is the fused-step width used when
// WithDecodeScheduler is given a non-positive bound.
const DefaultMaxDecodeBatch = core.DefaultMaxDecodeBatch

// SLOClass classifies a request's latency objective — SLOInteractive
// (the default) or SLOBatch — steering both admission-queue and
// decode-scheduler priority. An alias of the engine's type, like Option.
type SLOClass = core.SLOClass

// The SLO classes: interactive traffic is admitted and scheduled ahead
// of batch backfill.
const (
	SLOInteractive = core.SLOInteractive
	SLOBatch       = core.SLOBatch
)

// ParseSLOClass maps a wire name ("interactive", "batch", or "" for the
// interactive default) to its SLOClass.
func ParseSLOClass(s string) (SLOClass, error) { return core.ParseSLOClass(s) }

// AdmissionConfig bounds concurrent serving for WithAdmission: slot
// count, queue depth, and optional per-class deadlines.
type AdmissionConfig = core.AdmissionConfig

// Default admission bounds used when AdmissionConfig fields are
// non-positive.
const (
	DefaultAdmitConcurrent = core.DefaultAdmitConcurrent
	DefaultAdmitQueue      = core.DefaultAdmitQueue
)

// WithAdmission enables SLO-aware admission control: at most
// cfg.MaxConcurrent requests serve at once, cfg.MaxQueue more wait
// (interactive ahead of batch), and arrivals beyond both are shed
// immediately with ErrOverloaded carrying a Retry-After estimate —
// graceful load shedding instead of collapse. Per-class deadlines, when
// set, bound each request end to end; expiry surfaces as ErrDeadline.
func WithAdmission(cfg AdmissionConfig) Option { return core.WithAdmission(cfg) }

// WithDecodeScheduler enables continuous-batching decode: concurrent
// generations through this Client — Infer, Session.Send, streaming
// requests, batch members — fuse into shared model steps, so N active
// replies cost one layer walk per token instead of N. maxBatch bounds
// how many sequences one fused step carries (non-positive selects
// DefaultMaxDecodeBatch); excess requests queue and join as lanes
// retire. Without it each generation runs the same lane state machine
// on its caller's goroutine. Each request's token stream is
// bit-identical either way: same sampler state, same logits.
func WithDecodeScheduler(maxBatch int) Option { return core.WithDecodeScheduler(maxBatch) }

// DraftOpts is WithSpeculation's argument. It has no fields: the draft
// source conditions on up to 3 preceding tokens, proposes up to 4
// tokens per step, and proposes a transition once it has been seen
// twice. An alias of the engine's type, like AdmissionConfig.
type DraftOpts = core.DraftOpts

// WithSpeculation enables draft-and-verify speculative decoding through
// the module cache: retired generations train a per-serving-class n-gram
// draft source, and each decode lane verifies the draft's proposed tokens in one
// widened step, accepting exactly the prefix plain decode would have
// produced. Output is bit-identical with or without it — same tokens,
// same logits — only tokens-per-step changes. It runs with or without
// WithDecodeScheduler; per-request policy rides GenConfig.Speculation.
func WithSpeculation(opts DraftOpts) Option { return core.WithSpeculation(opts) }
