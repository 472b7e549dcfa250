package model

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/kvcache"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
)

// TestCausality: cached states of a prefix must be bit-identical no
// matter what follows it — the property (§2.2) that makes KV caches, and
// hence Prompt Cache, sound for causal LMs.
func TestCausality(t *testing.T) {
	r := rng.New(61)
	for _, cfg := range allConfigs(71) {
		m := MustNew(cfg)
		prefix := randTokens(r, 6)
		suffixA := randTokens(r, 3)
		suffixB := randTokens(r, 3)

		run := func(suffix []int) *cacheSnapshot {
			all := append(append([]int{}, prefix...), suffix...)
			cache := m.NewCache(len(all))
			if _, err := m.Prefill(all, seqPositions(len(all), 0), cache); err != nil {
				t.Fatal(err)
			}
			return snapshotPrefix(cache, len(prefix))
		}
		a := run(suffixA)
		b := run(suffixB)
		for l := range a.k {
			if tensor.MaxAbsDiff(a.k[l], b.k[l]) != 0 || tensor.MaxAbsDiff(a.v[l], b.v[l]) != 0 {
				t.Fatalf("%s: prefix states depend on the future (layer %d)", cfg.Name, l)
			}
		}
	}
}

type cacheSnapshot struct{ k, v [][]float32 }

func snapshotPrefix(c *kvcache.Cache, n int) *cacheSnapshot {
	snap := &cacheSnapshot{}
	for l := 0; l < c.NLayers; l++ {
		var ks, vs []float32
		for i := 0; i < n; i++ {
			ks = append(ks, c.KeyRow(l, i)...)
			vs = append(vs, c.ValueRow(l, i)...)
		}
		snap.k = append(snap.k, ks)
		snap.v = append(snap.v, vs)
	}
	return snap
}

// logitsPrint is a forward pass's numeric fingerprint: the greedy token
// at every scored position, and an FNV-64a hash of math.Float32bits over
// each case's logits.
type logitsPrint struct {
	Tokens                  []int
	Prefill, Decode, Verify uint64
}

// goldenPrints are checked-in constants, one per architecture of
// allConfigs(424242). A change that alters any logit bit — attention
// order, a norm epsilon, a RoPE table — fails here. If the change is
// deliberate, replace the constants with the printed actual values.
var goldenPrints = map[string]logitsPrint{
	"llama-style":       {Tokens: []int{523, 523, 523, 523, 523, 325, 413}, Prefill: 0x1c091ed55a0a9222, Decode: 0xd19342a5b8abb26, Verify: 0x3dc74899ab7a576a},
	"llama-style-large": {Tokens: []int{28, 401, 401, 401, 401, 382, 382}, Prefill: 0x3677b75734b40042, Decode: 0x778543048273c4ee, Verify: 0xc80c7fec79384a7f},
	"mpt-style":         {Tokens: []int{397, 55, 573, 597, 562, 562, 332}, Prefill: 0x84276702aff15064, Decode: 0xacb70f6bfcf970ac, Verify: 0x4518342a606f4213},
	"falcon-style":      {Tokens: []int{692, 692, 692, 692, 692, 274, 662}, Prefill: 0x4dda33de74e8d65, Decode: 0xb730e53e0f5853c, Verify: 0x9da2afa12305d3d2},
	"gpt2-style":        {Tokens: []int{197, 157, 695, 157, 157, 520, 340}, Prefill: 0x2f1eda188a4ed5ec, Decode: 0xe64aecf507375af3, Verify: 0x59d51e7b09798688},
}

// hashLogits folds the bits of a logit vector into h.
func hashLogits(h hash.Hash64, logits []float32) {
	var b [4]byte
	for _, x := range logits {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
}

// goldenRun drives the three cases the fingerprint covers over a
// segmented cache of two modules with position gaps: a 17-token prefill
// (the chunked path), three greedy decode steps after it, and one
// DecodeStepBatchMulti scoring k = 3 positions.
func goldenRun(t *testing.T, m *Model) logitsPrint {
	t.Helper()
	r := rng.NewString("golden/forward")
	module := func(n, base int) *kvcache.Cache {
		c := m.NewCache(n)
		if _, err := m.Prefill(randTokens(r, n), seqPositions(n, base), c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := module(9, 0), module(7, 12)
	seq := m.NewSeq(32)
	seq.AddView(a, 0, a.Len())
	seq.AddView(b, 0, b.Len())

	var fp logitsPrint
	h := fnv.New64a()
	logits, err := m.Prefill(randTokens(r, 17), seqPositions(17, 25), seq)
	if err != nil {
		t.Fatal(err)
	}
	hashLogits(h, logits)
	fp.Prefill = h.Sum64()

	h.Reset()
	pos := 42
	tok := tensor.ArgMax(logits)
	fp.Tokens = append(fp.Tokens, tok)
	for i := 0; i < 3; i++ {
		if logits, err = m.Decode(tok, pos, seq); err != nil {
			t.Fatal(err)
		}
		pos++
		hashLogits(h, logits)
		tok = tensor.ArgMax(logits)
		fp.Tokens = append(fp.Tokens, tok)
	}
	fp.Decode = h.Sum64()

	h.Reset()
	lane := m.NewDecodeLane()
	defer lane.Close()
	toks := []int{tok, tokenizer.WordBase + 7, tokenizer.WordBase + 300}
	if err := m.DecodeStepBatchMulti([]*DecodeLane{lane}, [][]int{toks}, [][]int{seqPositions(3, pos)}, []kvcache.KV{seq}); err != nil {
		t.Fatal(err)
	}
	for j := range toks {
		fp.Tokens = append(fp.Tokens, tensor.ArgMax(lane.LogitsAt(j)))
		hashLogits(h, lane.LogitsAt(j))
	}
	fp.Verify = h.Sum64()
	return fp
}

// TestGoldenLogits pins the forward pass numerically against checked-in
// fingerprints, under every backend, since the backend contract says the
// choice can never show up in outputs.
func TestGoldenLogits(t *testing.T) {
	for _, bk := range []tensor.Backend{tensor.Scalar(), tensor.NewParallel(4)} {
		for _, cfg := range allConfigs(424242) {
			m := MustNew(cfg)
			m.SetBackend(bk)
			got := goldenRun(t, m)
			if want, ok := goldenPrints[cfg.Name]; !ok || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s/%s: fingerprint %#v, want %#v", cfg.Name, bk.Name(), got, want)
			}
		}
	}
}

// TestPrefillPropertyRandomized: random token/position sequences (sorted,
// in range) always produce finite logits and exact cache accounting, for
// every architecture.
func TestPrefillPropertyRandomized(t *testing.T) {
	cfgs := allConfigs(99)
	check := func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		cfg := cfgs[int(seed)%len(cfgs)]
		m := MustNew(cfg)
		n := rr.IntRange(1, 12)
		toks := randTokens(rr, n)
		pos := make([]int, n)
		p := rr.Intn(50)
		for i := range pos {
			pos[i] = p
			p += 1 + rr.Intn(20) // strictly increasing with gaps
		}
		cache := m.NewCache(n)
		logits, err := m.Prefill(toks, pos, cache)
		if err != nil {
			return false
		}
		if cache.Len() != n {
			return false
		}
		for _, v := range logits {
			if v != v { // NaN
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
