package model

import (
	"context"
	"math"
	"testing"

	"repro/internal/kvcache"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
)

const testVocab = tokenizer.WordBase + 512

func allConfigs(seed uint64) []Config {
	return []Config{
		LlamaStyle(testVocab, seed),
		LlamaStyleLarge(testVocab, seed),
		MPTStyle(testVocab, seed),
		FalconStyle(testVocab, seed),
		GPT2Style(testVocab, seed),
	}
}

func seqPositions(n, base int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = base + i
	}
	return p
}

func randTokens(r *rng.RNG, n int) []int {
	t := make([]int, n)
	for i := range t {
		t[i] = tokenizer.WordBase + r.Intn(testVocab-tokenizer.WordBase)
	}
	return t
}

// complete is the whole-prompt baseline: prefill tokens at positions
// 0..n-1 into a fresh cache, then generate.
func complete(m *Model, tokens []int, opts GenerateOpts) ([]int, *kvcache.Cache, error) {
	cache := m.NewCache(len(tokens) + opts.MaxTokens)
	logits, err := m.Prefill(tokens, seqPositions(len(tokens), 0), cache)
	if err != nil {
		return nil, nil, err
	}
	out, err := m.Generate(context.Background(), cache, logits, opts)
	return out, cache, err
}

func TestConfigValidate(t *testing.T) {
	bad := LlamaStyle(testVocab, 1)
	bad.NHeads = 3 // 64 % 3 != 0
	if err := bad.validate(); err == nil {
		t.Fatal("expected invalid head split")
	}
	bad = LlamaStyle(testVocab, 1)
	bad.NKVHeads = 3 // 4 % 3 != 0
	if err := bad.validate(); err == nil {
		t.Fatal("expected invalid GQA group")
	}
	bad = LlamaStyle(testVocab, 1)
	bad.VocabSize = 0
	if err := bad.validate(); err == nil {
		t.Fatal("expected invalid vocab")
	}
	for _, cfg := range allConfigs(1) {
		if err := cfg.validate(); err != nil {
			t.Fatalf("preset %s invalid: %v", cfg.Name, err)
		}
	}
}

func TestDeterministicWeights(t *testing.T) {
	a := MustNew(LlamaStyle(testVocab, 7))
	b := MustNew(LlamaStyle(testVocab, 7))
	if tensor.MaxAbsDiff(a.embedding.Data, b.embedding.Data) != 0 {
		t.Fatal("same seed produced different embeddings")
	}
	c := MustNew(LlamaStyle(testVocab, 8))
	if tensor.MaxAbsDiff(a.embedding.Data, c.embedding.Data) == 0 {
		t.Fatal("different seeds produced identical embeddings")
	}
}

func TestPrefillProducesFiniteLogits(t *testing.T) {
	r := rng.New(11)
	for _, cfg := range allConfigs(3) {
		m := MustNew(cfg)
		toks := randTokens(r, 12)
		cache := m.NewCache(16)
		logits, err := m.Prefill(toks, seqPositions(12, 0), cache)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if len(logits) != cfg.VocabSize {
			t.Fatalf("%s: logits width %d", cfg.Name, len(logits))
		}
		for _, v := range logits {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s: non-finite logit", cfg.Name)
			}
		}
		if cache.Len() != 12 {
			t.Fatalf("%s: cache len %d", cfg.Name, cache.Len())
		}
	}
}

// TestIncrementalPrefillMatchesBatch is the KV-cache correctness
// invariant (§2.2): computing a sequence one token at a time over a
// persistent cache must equal computing it in one prefill call — bit for
// bit, since both run the one layer body.
func TestIncrementalPrefillMatchesBatch(t *testing.T) {
	r := rng.New(13)
	for _, cfg := range allConfigs(5) {
		m := MustNew(cfg)
		toks := randTokens(r, 10)
		pos := seqPositions(10, 0)

		batch := m.NewCache(10)
		batchLogits, err := m.Prefill(toks, pos, batch)
		if err != nil {
			t.Fatal(err)
		}

		inc := m.NewCache(10)
		var incLogits []float32
		for i := range toks {
			incLogits, err = m.Prefill(toks[i:i+1], pos[i:i+1], inc)
			if err != nil {
				t.Fatal(err)
			}
		}
		if !sameBits(batchLogits, incLogits) {
			t.Fatalf("%s: incremental vs batch logits differ", cfg.Name)
		}
		for l := 0; l < cfg.NLayers; l++ {
			if !sameBits(batch.K[l], inc.K[l]) || !sameBits(batch.V[l], inc.V[l]) {
				t.Fatalf("%s: layer %d K/V rows differ", cfg.Name, l)
			}
		}
	}
}

// TestPrefixSharing: two prompts with an identical prefix can share the
// prefix's KV states (the paged-attention prefix-sharing baseline the
// paper generalizes).
func TestPrefixSharing(t *testing.T) {
	r := rng.New(17)
	for _, cfg := range allConfigs(9) {
		m := MustNew(cfg)
		prefix := randTokens(r, 8)
		suffix := randTokens(r, 4)

		full := m.NewCache(12)
		all := append(append([]int{}, prefix...), suffix...)
		fullLogits, err := m.Prefill(all, seqPositions(12, 0), full)
		if err != nil {
			t.Fatal(err)
		}

		shared := m.NewCache(12)
		if _, err := m.Prefill(prefix, seqPositions(8, 0), shared); err != nil {
			t.Fatal(err)
		}
		sharedLogits, err := m.Prefill(suffix, seqPositions(4, 8), shared)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(fullLogits, sharedLogits) {
			t.Fatalf("%s: prefix sharing changed logits", cfg.Name)
		}
	}
}

// TestPositionShiftInvariance verifies the property Prompt Cache's layout
// depends on (§3.3): for relative encodings (RoPE, ALiBi) the attention
// inside a segment is unchanged when the whole segment shifts to a new
// start position. Learned embeddings are expected NOT to have this
// property.
func TestPositionShiftInvariance(t *testing.T) {
	r := rng.New(19)
	for _, cfg := range allConfigs(21) {
		m := MustNew(cfg)
		toks := randTokens(r, 10)

		at0 := m.NewCache(10)
		logits0, err := m.Prefill(toks, seqPositions(10, 0), at0)
		if err != nil {
			t.Fatal(err)
		}
		at100 := m.NewCache(10)
		logits100, err := m.Prefill(toks, seqPositions(10, 100), at100)
		if err != nil {
			t.Fatal(err)
		}
		d := tensor.MaxAbsDiff(logits0, logits100)
		if cfg.PosEnc == Learned {
			if d < 1e-6 {
				t.Fatalf("%s: learned positions unexpectedly shift-invariant", cfg.Name)
			}
			continue
		}
		if d > 2e-4 {
			t.Fatalf("%s: shift changed logits by %v", cfg.Name, d)
		}
	}
}

// TestDiscontinuousPositions is the paper's core empirical finding:
// attention states with gaps in their position IDs are legal and preserve
// within-segment behaviour.
func TestDiscontinuousPositions(t *testing.T) {
	r := rng.New(23)
	for _, cfg := range allConfigs(31) {
		// Learned positions accept arbitrary IDs too — via table lookup.
		m := MustNew(cfg)
		toks := randTokens(r, 9)
		// Three segments at positions [0..2], [50..52], [200..202].
		pos := []int{0, 1, 2, 50, 51, 52, 200, 201, 202}
		cache := m.NewCache(9)
		logits, err := m.Prefill(toks, pos, cache)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		for _, v := range logits {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s: non-finite logits with gapped positions", cfg.Name)
			}
		}
		if got := cache.MaxPos(); got != 202 {
			t.Fatalf("%s: MaxPos = %d", cfg.Name, got)
		}
	}
}

func TestPositionOutOfRangeRejected(t *testing.T) {
	m := MustNew(LlamaStyle(testVocab, 2))
	cache := m.NewCache(1)
	if _, err := m.Prefill([]int{tokenizer.WordBase}, []int{m.Cfg.MaxSeq}, cache); err == nil {
		t.Fatal("expected position range error")
	}
	if _, err := m.Prefill([]int{tokenizer.WordBase}, []int{-1}, cache); err == nil {
		t.Fatal("expected negative position error")
	}
}

func TestTokenOutOfVocabRejected(t *testing.T) {
	m := MustNew(LlamaStyle(testVocab, 2))
	cache := m.NewCache(1)
	if _, err := m.Prefill([]int{testVocab}, []int{0}, cache); err == nil {
		t.Fatal("expected vocab range error")
	}
}

func TestPrefillArgMismatch(t *testing.T) {
	m := MustNew(LlamaStyle(testVocab, 2))
	if _, err := m.Prefill([]int{1, 2}, []int{0}, m.NewCache(2)); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := m.Prefill(nil, nil, m.NewCache(0)); err == nil {
		t.Fatal("expected empty prefill error")
	}
}

func TestGenerateDeterministicGreedy(t *testing.T) {
	r := rng.New(29)
	for _, cfg := range allConfigs(41) {
		m := MustNew(cfg)
		toks := randTokens(r, 6)
		out1, _, err := complete(m, toks, GenerateOpts{MaxTokens: 8})
		if err != nil {
			t.Fatal(err)
		}
		out2, _, err := complete(m, toks, GenerateOpts{MaxTokens: 8})
		if err != nil {
			t.Fatal(err)
		}
		if len(out1) != len(out2) {
			t.Fatalf("%s: nondeterministic greedy lengths", cfg.Name)
		}
		for i := range out1 {
			if out1[i] != out2[i] {
				t.Fatalf("%s: greedy generation nondeterministic", cfg.Name)
			}
		}
	}
}

func TestGenerateRespectsMaxTokens(t *testing.T) {
	m := MustNew(LlamaStyle(testVocab, 3))
	r := rng.New(31)
	out, _, err := complete(m, randTokens(r, 4), GenerateOpts{MaxTokens: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) > 5 {
		t.Fatalf("generated %d > 5 tokens", len(out))
	}
}

func TestGenerateAdvancesPositions(t *testing.T) {
	m := MustNew(LlamaStyle(testVocab, 3))
	r := rng.New(37)
	toks := randTokens(r, 4)
	cache := m.NewCache(16)
	logits, err := m.Prefill(toks, []int{10, 11, 12, 13}, cache)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Generate(context.Background(), cache, logits, GenerateOpts{MaxTokens: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Skip("stopped immediately")
	}
	// Generated tokens continue after the max position.
	if cache.Pos[4] != 14 {
		t.Fatalf("first generated position = %d, want 14", cache.Pos[4])
	}
}

func TestTemperatureSamplerSeeded(t *testing.T) {
	logits := []float32{1, 2, 3, 2, 1}
	s1 := &TemperatureSampler{Temperature: 1, RNG: rng.New(5)}
	s2 := &TemperatureSampler{Temperature: 1, RNG: rng.New(5)}
	for i := 0; i < 20; i++ {
		if s1.Sample(logits) != s2.Sample(logits) {
			t.Fatal("seeded sampler nondeterministic")
		}
	}
	// Zero temperature degrades to greedy.
	s := &TemperatureSampler{Temperature: 0, RNG: rng.New(5)}
	if s.Sample(logits) != 2 {
		t.Fatal("T=0 should be argmax")
	}
}

func TestTopKSampler(t *testing.T) {
	logits := []float32{0.1, 5, 4, 0.2, 3}
	// T=0 degrades to argmax.
	s := &TopKSampler{K: 3, Temperature: 0, RNG: rng.New(1)}
	if got := s.Sample(logits); got != 1 {
		t.Fatalf("T=0 topk = %d", got)
	}
	// All samples land in the top-k set.
	s = &TopKSampler{K: 3, Temperature: 1, RNG: rng.New(2)}
	topSet := map[int]bool{1: true, 2: true, 4: true}
	for i := 0; i < 200; i++ {
		if got := s.Sample(logits); !topSet[got] {
			t.Fatalf("sample %d outside top-3", got)
		}
	}
	// Seeded determinism.
	a := &TopKSampler{K: 2, Temperature: 0.7, RNG: rng.New(9)}
	b := &TopKSampler{K: 2, Temperature: 0.7, RNG: rng.New(9)}
	for i := 0; i < 50; i++ {
		if a.Sample(logits) != b.Sample(logits) {
			t.Fatal("topk sampler nondeterministic")
		}
	}
	// K <= 0 or K > len falls back to the full distribution.
	s = &TopKSampler{K: 0, Temperature: 1, RNG: rng.New(3)}
	if got := s.Sample([]float32{1}); got != 0 {
		t.Fatalf("degenerate sample = %d", got)
	}
}

func TestRepetitionPenalty(t *testing.T) {
	// Greedy would loop on token 1 forever; the penalty must break the
	// loop once token 1 enters the window.
	logits := []float32{1, 5, 4.9, 0}
	rp := &RepetitionPenalty{Penalty: 2, Window: 4}
	first := rp.Sample(logits)
	if first != 1 {
		t.Fatalf("first = %d", first)
	}
	second := rp.Sample(logits)
	if second != 2 {
		t.Fatalf("second = %d, penalty should demote repeated token", second)
	}
	// Negative logits are made more negative.
	rp2 := &RepetitionPenalty{Penalty: 3, Window: 2}
	neg := []float32{-0.1, -5}
	if got := rp2.Sample(neg); got != 0 {
		t.Fatalf("neg first = %d", got)
	}
	if got := rp2.Sample(neg); got != 0 {
		// -0.1*3 = -0.3 still beats -5.
		t.Fatalf("neg second = %d", got)
	}
	// Penalty <= 1 is a no-op passthrough.
	rp3 := &RepetitionPenalty{Penalty: 1}
	if rp3.Sample(logits) != 1 || rp3.Sample(logits) != 1 {
		t.Fatal("penalty 1 should not alter greedy choice")
	}
	// Window bounds memory.
	rp4 := &RepetitionPenalty{Penalty: 2, Window: 1}
	rp4.Sample(logits)
	rp4.Sample(logits)
	if len(rp4.recent) != 1 {
		t.Fatalf("window not enforced: %d", len(rp4.recent))
	}
}

func TestGenerateWithRepetitionPenaltyVariesOutput(t *testing.T) {
	m := MustNew(LlamaStyle(testVocab, 95))
	r := rng.New(95)
	toks := randTokens(r, 8)
	plain, _, err := complete(m, toks, GenerateOpts{MaxTokens: 10})
	if err != nil {
		t.Fatal(err)
	}
	penalized, _, err := complete(m, toks, GenerateOpts{
		MaxTokens: 10,
		Sampler:   &RepetitionPenalty{Penalty: 1.8, Window: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	distinct := func(xs []int) int {
		set := map[int]bool{}
		for _, x := range xs {
			set[x] = true
		}
		return len(set)
	}
	if distinct(penalized) < distinct(plain) {
		t.Fatalf("penalty reduced diversity: %d vs %d distinct", distinct(penalized), distinct(plain))
	}
}

func TestGenerateStream(t *testing.T) {
	m := MustNew(LlamaStyle(testVocab, 91))
	r := rng.New(91)
	toks := randTokens(r, 6)
	cache := m.NewCache(32)
	logits, err := m.Prefill(toks, seqPositions(6, 0), cache)
	if err != nil {
		t.Fatal(err)
	}
	// Streamed tokens match non-streamed generation exactly.
	ref := kvcache.New(cache.NLayers, cache.KVDim, cache.Len())
	ref.AppendCache(cache)
	refLogits := append([]float32(nil), logits...)
	var streamed []int
	out, err := m.GenerateStream(context.Background(), cache, logits, GenerateOpts{MaxTokens: 6}, func(tok int) bool {
		streamed = append(streamed, tok)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(out) {
		t.Fatal("emit count != returned count")
	}
	plain, err := m.Generate(context.Background(), ref, refLogits, GenerateOpts{MaxTokens: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(out) {
		t.Fatalf("stream %d tokens, plain %d", len(out), len(plain))
	}
	for i := range plain {
		if plain[i] != out[i] {
			t.Fatal("stream and plain diverge")
		}
	}
	// Early stop via callback.
	cache2 := m.NewCache(32)
	logits2, err := m.Prefill(toks, seqPositions(6, 0), cache2)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	out2, err := m.GenerateStream(context.Background(), cache2, logits2, GenerateOpts{MaxTokens: 10}, func(int) bool {
		n++
		return n < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out2) != 2 {
		t.Fatalf("early stop produced %d tokens", len(out2))
	}
	// Nil callback rejected.
	if _, err := m.GenerateStream(context.Background(), cache2, logits2, GenerateOpts{}, nil); err == nil {
		t.Fatal("nil emit should error")
	}
}

func TestGenerateEmptyCacheRejected(t *testing.T) {
	m := MustNew(LlamaStyle(testVocab, 3))
	if _, err := m.Generate(context.Background(), m.NewCache(0), make([]float32, testVocab), GenerateOpts{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestBytesPerCachedToken(t *testing.T) {
	cfg := LlamaStyle(testVocab, 1)
	// layers * kvdim * 2 (K,V) * bytes
	want := int64(cfg.NLayers) * int64(cfg.KVDim()) * 2 * 2
	if got := cfg.BytesPerCachedToken(2); got != want {
		t.Fatalf("BytesPerCachedToken = %d, want %d", got, want)
	}
}

func TestGQAHeadsShareKV(t *testing.T) {
	// MQA (Falcon) has KVDim == HeadDim: one shared KV head.
	cfg := FalconStyle(testVocab, 1)
	if cfg.KVDim() != cfg.HeadDim() {
		t.Fatalf("MQA KVDim = %d, want %d", cfg.KVDim(), cfg.HeadDim())
	}
	// GQA (Llama) groups 2 query heads per kv head.
	lc := LlamaStyle(testVocab, 1)
	if lc.KVDim() != 2*lc.HeadDim() {
		t.Fatalf("GQA KVDim = %d", lc.KVDim())
	}
}

func TestConcatEquivalentToContiguousPrefill(t *testing.T) {
	// Building a cache by concatenating two independently-prefilled
	// halves (with correct positions and full cross-attention during the
	// second half) equals prefilling the whole sequence — when the second
	// half was prefilled *on top of* the first. This pins down the exact
	// semantics cached inference relies on.
	r := rng.New(41)
	cfg := LlamaStyle(testVocab, 43)
	m := MustNew(cfg)
	a := randTokens(r, 5)
	b := randTokens(r, 5)

	whole := m.NewCache(10)
	all := append(append([]int{}, a...), b...)
	wholeLogits, err := m.Prefill(all, seqPositions(10, 0), whole)
	if err != nil {
		t.Fatal(err)
	}

	first := m.NewCache(10)
	if _, err := m.Prefill(a, seqPositions(5, 0), first); err != nil {
		t.Fatal(err)
	}
	rebuilt := kvcache.New(first.NLayers, first.KVDim, 10)
	rebuilt.AppendCache(first)
	logits2, err := m.Prefill(b, seqPositions(5, 5), rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(wholeLogits, logits2) {
		t.Fatal("concat-rebuilt cache diverged")
	}
}

func BenchmarkPrefill64Tokens(b *testing.B) {
	m := MustNew(LlamaStyle(testVocab, 1))
	r := rng.New(1)
	toks := randTokens(r, 64)
	pos := seqPositions(64, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := m.NewCache(64)
		if _, err := m.Prefill(toks, pos, cache); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeStep(b *testing.B) {
	m := MustNew(LlamaStyle(testVocab, 1))
	r := rng.New(2)
	cache := m.NewCache(600)
	if _, err := m.Prefill(randTokens(r, 512), seqPositions(512, 0), cache); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshot := cache.Len()
		if _, err := m.Decode(tokenizer.WordBase+1, 512+i, cache); err != nil {
			b.Fatal(err)
		}
		cache.Truncate(snapshot)
	}
}
