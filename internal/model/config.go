// Package model implements a from-scratch decoder-only transformer
// inference engine with explicit position IDs, the substrate Prompt Cache
// runs on. It supports the three positional-encoding families the paper
// adapts in §4.2 — RoPE (Llama/Falcon), ALiBi (MPT/Bloom) and learned
// embedding tables (BERT/GPT-2) — plus grouped-query attention, RMS/layer
// normalization, SwiGLU/GELU feed-forwards and Falcon-style parallel
// attention, so each architecture family exercises its own adaptation
// path.
//
// Weights are deterministically seeded rather than trained: attention-state
// reuse is a property of the architecture, not the weights, so every
// correctness claim (cached ≡ recomputed, discontinuous positions, masking
// effects) is checked with real forward-pass math.
package model

import (
	"fmt"
	"sync"

	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
)

// PosEncoding selects the positional-encoding family (§4.2).
type PosEncoding int

const (
	// RoPE rotates query/key pairs by a position-dependent angle
	// (Llama2, Falcon, CodeLlama).
	RoPE PosEncoding = iota
	// ALiBi adds a static distance-proportional bias to attention scores
	// (MPT, Bloom).
	ALiBi
	// Learned adds a looked-up position embedding to the token embedding
	// (BERT, GPT-2).
	Learned
)

func (p PosEncoding) String() string {
	switch p {
	case RoPE:
		return "rope"
	case ALiBi:
		return "alibi"
	case Learned:
		return "learned"
	}
	return fmt.Sprintf("PosEncoding(%d)", int(p))
}

// NormKind selects the normalization layer.
type NormKind int

const (
	// RMSNorm is root-mean-square normalization (Llama family).
	RMSNorm NormKind = iota
	// LayerNorm is standard layer normalization (MPT/GPT family).
	LayerNorm
)

// ActKind selects the feed-forward activation.
type ActKind int

const (
	// SwiGLU is the gated SiLU feed-forward (Llama family).
	SwiGLU ActKind = iota
	// GELU is the tanh-approximated GELU feed-forward (MPT/GPT family).
	GELU
)

// Config describes a transformer architecture.
type Config struct {
	Name      string
	VocabSize int
	Dim       int // model (hidden) dimension
	NLayers   int
	NHeads    int // query heads
	NKVHeads  int // key/value heads (== NHeads for MHA, 1 for MQA)
	FFNDim    int
	MaxSeq    int // maximum position ID + 1
	PosEnc    PosEncoding
	Norm      NormKind
	Act       ActKind
	// ParallelAttn computes attention and FFN from the same normed input
	// and sums both into the residual (Falcon-style block).
	ParallelAttn bool
	RopeTheta    float64
	Seed         uint64
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.VocabSize <= 0:
		return fmt.Errorf("model %q: VocabSize must be positive", c.Name)
	case c.Dim <= 0 || c.NLayers <= 0 || c.FFNDim <= 0 || c.MaxSeq <= 0:
		return fmt.Errorf("model %q: dimensions must be positive", c.Name)
	case c.NHeads <= 0 || c.Dim%c.NHeads != 0:
		return fmt.Errorf("model %q: Dim %d not divisible by NHeads %d", c.Name, c.Dim, c.NHeads)
	case c.NKVHeads <= 0 || c.NHeads%c.NKVHeads != 0:
		return fmt.Errorf("model %q: NHeads %d not divisible by NKVHeads %d", c.Name, c.NHeads, c.NKVHeads)
	case c.PosEnc == RoPE && (c.Dim/c.NHeads)%2 != 0:
		return fmt.Errorf("model %q: RoPE needs even head dim, got %d", c.Name, c.Dim/c.NHeads)
	}
	return nil
}

// HeadDim returns the per-head dimension.
func (c *Config) HeadDim() int { return c.Dim / c.NHeads }

// KVDim returns the flattened key/value width (NKVHeads × HeadDim).
func (c *Config) KVDim() int { return c.NKVHeads * c.HeadDim() }

// Test-scale architecture presets. Each mirrors the structural family of
// one of the paper's evaluation models (§4.2, §5.1); dimensions are sized
// for CPU-speed exactness tests, not capability.

// LlamaStyle returns a RoPE + RMSNorm + SwiGLU + GQA config (Llama2 family).
func LlamaStyle(vocab int, seed uint64) Config {
	return Config{
		Name: "llama-style", VocabSize: vocab,
		Dim: 64, NLayers: 4, NHeads: 4, NKVHeads: 2, FFNDim: 176,
		MaxSeq: 8192, PosEnc: RoPE, Norm: RMSNorm, Act: SwiGLU,
		RopeTheta: 10000, Seed: seed,
	}
}

// LlamaStyleLarge returns a deeper/wider Llama-style config, the stand-in
// for the 13B scale point in Table 1.
func LlamaStyleLarge(vocab int, seed uint64) Config {
	c := LlamaStyle(vocab, seed)
	c.Name = "llama-style-large"
	c.Dim, c.NLayers, c.NHeads, c.NKVHeads, c.FFNDim = 96, 6, 6, 3, 256
	return c
}

// MPTStyle returns an ALiBi + LayerNorm + GELU + MHA config (MPT family).
func MPTStyle(vocab int, seed uint64) Config {
	return Config{
		Name: "mpt-style", VocabSize: vocab,
		Dim: 64, NLayers: 4, NHeads: 4, NKVHeads: 4, FFNDim: 256,
		MaxSeq: 8192, PosEnc: ALiBi, Norm: LayerNorm, Act: GELU,
		Seed: seed,
	}
}

// FalconStyle returns a RoPE + LayerNorm + GELU + MQA + parallel-attention
// config (Falcon family).
func FalconStyle(vocab int, seed uint64) Config {
	return Config{
		Name: "falcon-style", VocabSize: vocab,
		Dim: 64, NLayers: 4, NHeads: 4, NKVHeads: 1, FFNDim: 256,
		MaxSeq: 8192, PosEnc: RoPE, Norm: LayerNorm, Act: GELU,
		ParallelAttn: true, RopeTheta: 10000, Seed: seed,
	}
}

// GPT2Style returns a learned-position + LayerNorm + GELU config
// (BERT/GPT-2 family, the "no adaptation needed" case of §4.2).
func GPT2Style(vocab int, seed uint64) Config {
	return Config{
		Name: "gpt2-style", VocabSize: vocab,
		Dim: 64, NLayers: 4, NHeads: 4, NKVHeads: 4, FFNDim: 256,
		MaxSeq: 8192, PosEnc: Learned, Norm: LayerNorm, Act: GELU,
		Seed: seed,
	}
}

// layer bundles one transformer block's weights.
type layer struct {
	attnNormW, attnNormB []float32
	ffnNormW, ffnNormB   []float32 // unused when ParallelAttn

	wq, wk, wv, wo *tensor.Matrix
	w1, w2, w3     *tensor.Matrix // w3 is the SwiGLU gate (nil for GELU)
}

// Model is an immutable transformer ready for inference. It is safe for
// concurrent use: forward passes write only into caller-owned caches and
// pooled scratch buffers, and no weight mutates after New returns.
// Distinct goroutines may Prefill/Decode/Generate simultaneously as long
// as each works on its own kvcache.KV — a flat *kvcache.Cache or a
// segmented *kvcache.Seq view; read-only view segments may be shared
// across goroutines freely.
type Model struct {
	Cfg Config

	// scratchPool recycles per-forward-pass temporaries across requests,
	// so steady-state prefill/decode allocates no scratch.
	scratchPool sync.Pool

	// PrefillProbe, when non-nil, is called with +1 as a prefill enters
	// the forward pass and -1 as it leaves (including error returns).
	// It exists for concurrency instrumentation — in-flight gauges in
	// metrics, overlap assertions in tests. Set it before serving
	// begins and do not change it afterwards; the probe itself must be
	// safe for concurrent calls.
	PrefillProbe func(delta int)

	embedding  *tensor.Matrix // vocab × dim; output head is tied
	posTable   *tensor.Matrix // maxSeq × dim, Learned only
	ropeCos    *tensor.Matrix // maxSeq × headDim/2, RoPE only (§4.2 lookup table)
	ropeSin    *tensor.Matrix
	alibiSlope []float32 // per query head, ALiBi only

	layers     []layer
	finalNormW []float32
	finalNormB []float32

	// bk is the kernel backend every forward pass dispatches through.
	// New sets it to tensor.Auto(); SetBackend overrides it. Backends are
	// bit-identical by contract, so the choice affects scheduling only.
	bk tensor.Backend
}

// SetBackend replaces the kernel backend (nil restores tensor.Auto()'s
// choice). Like PrefillProbe, this is a pre-serving knob: set it before
// any forward pass runs and do not change it while requests are in
// flight. All backends produce bit-identical outputs, so swapping
// between runs never invalidates cached KV state or golden logits.
func (m *Model) SetBackend(b tensor.Backend) {
	if b == nil {
		b = tensor.Auto()
	}
	m.bk = b
}

// Backend returns the kernel backend forward passes run on.
func (m *Model) Backend() tensor.Backend { return m.bk }

// New builds a model with deterministically seeded weights.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{Cfg: cfg, bk: tensor.Auto()}
	std := float32(0.06)

	initMat := func(label string, rows, cols int) *tensor.Matrix {
		mt := tensor.NewMatrix(rows, cols)
		rng.NewString(fmt.Sprintf("%s/%d/%s", cfg.Name, cfg.Seed, label)).FillNormal(mt.Data, std)
		return mt
	}
	ones := func(n int) []float32 {
		w := make([]float32, n)
		for i := range w {
			w[i] = 1
		}
		return w
	}

	m.embedding = initMat("embedding", cfg.VocabSize, cfg.Dim)
	switch cfg.PosEnc {
	case Learned:
		m.posTable = initMat("pos-table", cfg.MaxSeq, cfg.Dim)
	case RoPE:
		m.buildRopeTables()
	case ALiBi:
		m.buildAlibiSlopes()
	}

	kvDim := cfg.KVDim()
	m.layers = make([]layer, cfg.NLayers)
	for l := range m.layers {
		pre := fmt.Sprintf("layer%d/", l)
		ly := &m.layers[l]
		ly.attnNormW = ones(cfg.Dim)
		ly.attnNormB = make([]float32, cfg.Dim)
		ly.ffnNormW = ones(cfg.Dim)
		ly.ffnNormB = make([]float32, cfg.Dim)
		ly.wq = initMat(pre+"wq", cfg.Dim, cfg.Dim)
		ly.wk = initMat(pre+"wk", cfg.Dim, kvDim)
		ly.wv = initMat(pre+"wv", cfg.Dim, kvDim)
		ly.wo = initMat(pre+"wo", cfg.Dim, cfg.Dim)
		ly.w1 = initMat(pre+"w1", cfg.Dim, cfg.FFNDim)
		ly.w2 = initMat(pre+"w2", cfg.FFNDim, cfg.Dim)
		if cfg.Act == SwiGLU {
			ly.w3 = initMat(pre+"w3", cfg.Dim, cfg.FFNDim)
		}
	}
	m.finalNormW = ones(cfg.Dim)
	m.finalNormB = make([]float32, cfg.Dim)
	return m, nil
}

// MustNew is New but panics on configuration errors; for tests and presets.
func MustNew(cfg Config) *Model {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// buildRopeTables precomputes cos/sin per (position, frequency) pair. This
// is exactly the "lookup table for each rotation matrix, enabling
// retrieval based on position IDs" adaptation from §4.2 — discontinuous
// position IDs index the table directly.
func (m *Model) buildRopeTables() {
	hd := m.Cfg.HeadDim()
	half := hd / 2
	m.ropeCos = tensor.NewMatrix(m.Cfg.MaxSeq, half)
	m.ropeSin = tensor.NewMatrix(m.Cfg.MaxSeq, half)
	theta := m.Cfg.RopeTheta
	if theta == 0 {
		theta = 10000
	}
	for pos := 0; pos < m.Cfg.MaxSeq; pos++ {
		for f := 0; f < half; f++ {
			freq := 1.0 / pow(theta, float64(2*f)/float64(hd))
			angle := float64(pos) * freq
			m.ropeCos.Set(pos, f, float32(cos(angle)))
			m.ropeSin.Set(pos, f, float32(sin(angle)))
		}
	}
}

// buildAlibiSlopes assigns each query head the geometric slope sequence
// from the ALiBi paper: 2^(-8i/H) for head i of H. As in §4.2, the bias is
// computed from explicit position IDs so gaps are legal.
func (m *Model) buildAlibiSlopes() {
	h := m.Cfg.NHeads
	m.alibiSlope = make([]float32, h)
	for i := 0; i < h; i++ {
		m.alibiSlope[i] = float32(pow(2, -8*float64(i+1)/float64(h)))
	}
}

// BytesPerCachedToken returns the KV-cache footprint of one token in bytes
// at the given scalar width (2 = fp16 as in Table 2, 4 = this engine's
// fp32).
func (c *Config) BytesPerCachedToken(bytesPerScalar int) int64 {
	return int64(c.NLayers) * int64(c.KVDim()) * 2 * int64(bytesPerScalar)
}

// TokenizerFor returns a tokenizer sized for this model's vocabulary.
func (c *Config) TokenizerFor() *tokenizer.Tokenizer {
	return tokenizer.New(c.VocabSize)
}
