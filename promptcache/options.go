package promptcache

import (
	"repro/internal/core"
	"repro/internal/evict"
	"repro/internal/memory"
	"repro/internal/tensor"
)

// Option configures the engine behind a Client. It is an alias of the
// engine's option type, so the constructors below compose freely with
// advanced core options for callers inside this module, while external
// callers never need to import internal packages.
type Option = core.Option

// WithInt8Modules stores module states quantized to int8 with per-row
// scales: ~3.8× less storage and copy volume, at a bounded
// reconstruction error paid on each use.
func WithInt8Modules() Option { return core.WithInt8Modules() }

// Codec selects the disk tier's storage precision: CodecFP32 is the
// bit-exact passthrough for deployments that cannot tolerate
// quantization error, CodecInt8 (~3.9× smaller) and CodecInt4 (~7×)
// trade bounded reconstruction error for blob size.
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

// WithDeviceCapacity caps the primary (GPU-modelled) module pool at
// capacity bytes, enabling eviction when schemas outgrow it.
func WithDeviceCapacity(capacity int64) Option {
	return core.WithPool(memory.NewPool(memory.Device{Name: "device", Kind: memory.HBM, Capacity: capacity}))
}

// WithHostTier enables two-tier storage (§4.1): modules evicted from the
// primary pool demote into a host pool with their states intact and
// promote back on reuse without re-encoding. capacity 0 models unbounded
// host DRAM.
func WithHostTier(capacity int64) Option {
	return core.WithHostPool(memory.NewPool(memory.Device{Name: "host", Kind: memory.DRAM, Capacity: capacity}))
}

// WithEvictionPolicy selects the cache-replacement policy by name:
// "lru", "fifo", "lfu" or "gdsf".
func WithEvictionPolicy(name string) (Option, error) {
	p, err := evict.New(name)
	if err != nil {
		return nil, err
	}
	return core.WithEvictionPolicy(p), nil
}

// MustEvictionPolicy is WithEvictionPolicy for compile-time-constant
// names: it panics on an unknown name instead of returning an error, so
// option lists stay literal. Use the (Option, error) form for names that
// arrive at runtime (flags, config files).
func MustEvictionPolicy(name string) Option {
	opt, err := WithEvictionPolicy(name)
	if err != nil {
		panic(err)
	}
	return opt
}

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

// MiningOpts configures automatic module mining (WithModuleMining). The
// zero value of each field selects a sensible default; the knobs are the
// promotion threshold (MinHits), the minimum prefix worth caching
// (MinTokens), the mined-module budget (MaxModules) and the reuse-score
// decay rate (HalfLife, in observed serves).
type MiningOpts = core.MiningOpts

// WithModuleMining enables automatic module mining: the engine observes
// the uncached token stream of every cached request in a radix tree, and
// prefixes hot enough to clear the thresholds are promoted to anonymous
// modules — cached, pinned, evicted, disk-spilled and warm-restarted
// exactly like explicit PML modules — so later requests sharing the
// prefix splice its states instead of re-prefilling. Splices are
// bit-exact: a mined hit changes latency, never output.
func WithModuleMining(opts MiningOpts) Option { return core.WithModuleMining(opts) }

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
// retire. Each request's token stream is bit-identical to what it would
// produce decoding solo: same sampler state, same logits.
func WithDecodeScheduler(maxBatch int) Option { return core.WithDecodeScheduler(maxBatch) }

// DraftOpts configures the speculative-decoding draft source
// (WithSpeculation): n-gram context length, draft budget per step, the
// hit threshold a transition must clear before being proposed, and the
// decay half-life that ages stale transitions out. The zero value of
// each field selects a sensible default. An alias of the engine's type,
// like MiningOpts.
type DraftOpts = core.DraftOpts

// WithSpeculation enables draft-and-verify speculative decoding through
// the module cache: retired generations train a per-serving-class n-gram
// draft source (the same radix-flavored machinery module mining uses),
// and each decode lane verifies the draft's proposed tokens in one
// widened fused step, accepting exactly the prefix solo decode would
// have produced. Output is bit-identical with or without it — same
// tokens, same logits — only tokens-per-step changes. Takes effect
// together with WithDecodeScheduler; per-request policy rides
// GenConfig.Speculation.
func WithSpeculation(opts DraftOpts) Option { return core.WithSpeculation(opts) }
