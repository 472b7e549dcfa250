package model

import (
	"math"
	"testing"

	"repro/internal/kvcache"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// sameBits reports whether a and b are equal bit for bit.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// prefillIn prefills toks at pos into kv in blocks of k tokens and
// returns the last block's logits.
func prefillIn(t testing.TB, m *Model, toks, pos []int, kv kvcache.KV, k int) []float32 {
	t.Helper()
	var logits []float32
	for lo := 0; lo < len(toks); lo += k {
		hi := min(lo+k, len(toks))
		var err error
		if logits, err = m.Prefill(toks[lo:hi], pos[lo:hi], kv); err != nil {
			t.Fatal(err)
		}
	}
	return logits
}

// TestChunkedPrefillMatchesSequential: a chunk prefilled in one call
// (which splits it at maxBlockRows), token by token, or in blocks that
// straddle the attention kernel's 8-row tiles runs the one layer body at
// different k, so logits and every cached K/V row agree bit for bit —
// for all architectures, with past context and with position gaps.
func TestChunkedPrefillMatchesSequential(t *testing.T) {
	r := rng.New(401)
	n := maxBlockRows + 8
	for _, cfg := range allConfigs(501) {
		m := MustNew(cfg)
		past := randTokens(r, 5)
		chunk := randTokens(r, n)
		run := func(k int) ([]float32, *kvcache.Cache) {
			kv := m.NewCache(5 + n)
			prefillIn(t, m, past, seqPositions(5, 0), kv, 5)
			return prefillIn(t, m, chunk, seqPositions(n, 10), kv, k), kv // gap at 5..9
		}
		wantLogits, want := run(1)
		for _, k := range []int{3, 9, n} {
			gotLogits, got := run(k)
			if !sameBits(wantLogits, gotLogits) {
				t.Fatalf("%s: k=%d logits differ from token-by-token", cfg.Name, k)
			}
			if want.Len() != got.Len() {
				t.Fatalf("%s: k=%d cache lengths differ", cfg.Name, k)
			}
			for l := 0; l < cfg.NLayers; l++ {
				if !sameBits(want.K[l], got.K[l]) || !sameBits(want.V[l], got.V[l]) {
					t.Fatalf("%s: k=%d layer %d K/V rows differ from token-by-token", cfg.Name, k, l)
				}
			}
			for i := range want.Pos {
				if want.Pos[i] != got.Pos[i] {
					t.Fatalf("%s: k=%d positions differ at %d", cfg.Name, k, i)
				}
			}
		}
	}
}

// TestPrefillRejectsBadInputUntouched: a bad token or position anywhere in
// a prefill is rejected before the cache is touched, at any length.
func TestPrefillRejectsBadInputUntouched(t *testing.T) {
	m := MustNew(LlamaStyle(testVocab, 601))
	r := rng.New(601)
	for _, n := range []int{1, 16} {
		cache := m.NewCache(n)
		badPos := seqPositions(n, 0)
		badPos[n-1] = m.Cfg.MaxSeq
		if _, err := m.Prefill(randTokens(r, n), badPos, cache); err == nil {
			t.Fatalf("n=%d: expected position error", n)
		}
		bad := randTokens(r, n)
		bad[n-1] = testVocab + 1
		if _, err := m.Prefill(bad, seqPositions(n, 0), cache); err == nil {
			t.Fatalf("n=%d: expected vocab error", n)
		}
		if cache.Len() != 0 {
			t.Fatalf("n=%d: rejected prefills left %d rows", n, cache.Len())
		}
		if _, err := m.Prefill(randTokens(r, n), seqPositions(n, 0), cache); err != nil || cache.Len() != n {
			t.Fatalf("n=%d: valid prefill after rejects: err=%v len=%d", n, err, cache.Len())
		}
	}
}

// TestChunkedGenerationEndToEnd: a full Complete() (one prefill block)
// generates exactly what token-by-token prefill generates.
func TestChunkedGenerationEndToEnd(t *testing.T) {
	r := rng.New(701)
	for _, cfg := range allConfigs(701) {
		m := MustNew(cfg)
		toks := randTokens(r, 40)

		seqCache := m.NewCache(64)
		seqLogits := prefillIn(t, m, toks, seqPositions(40, 0), seqCache, 1)
		seqGen, err := decodeRef(m, seqCache, seqLogits, GenerateOpts{MaxTokens: 8})
		if err != nil {
			t.Fatal(err)
		}

		out, _, err := complete(m, toks, GenerateOpts{MaxTokens: 8})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(seqGen) {
			t.Fatalf("%s: generation lengths differ (%d vs %d)", cfg.Name, len(out), len(seqGen))
		}
		for i := range out {
			if out[i] != seqGen[i] {
				t.Fatalf("%s: generations diverge at %d", cfg.Name, i)
			}
		}
	}
}

// TestPrefillAllocatesOnlyLogits pins the block promise for prefill, the
// same block body a decode step runs at k = n: once warm, a Prefill
// allocates only the logits it returns. (One worker: more spawn
// goroutines per call.)
func TestPrefillAllocatesOnlyLogits(t *testing.T) {
	m := MustNew(LlamaStyle(testVocab, 5))
	m.SetBackend(tensor.NewBackend(1))
	for _, n := range []int{1, 16} {
		toks, pos := randTokens(rng.New(31), n), seqPositions(n, 0)
		kv := m.NewCache(n)
		prefill := func() {
			kv.Truncate(0)
			if _, err := m.Prefill(toks, pos, kv); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(5, prefill); got != 1 {
			t.Errorf("n=%d: Prefill allocates %v per call, want 1 (the logits it returns)", n, got)
		}
	}
}

func BenchmarkPrefill256(b *testing.B) {
	m := MustNew(LlamaStyle(testVocab, 1))
	r := rng.New(1)
	toks := randTokens(r, 256)
	pos := seqPositions(256, 0)
	cache := m.NewCache(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.Truncate(0)
		if _, err := m.Prefill(toks, pos, cache); err != nil {
			b.Fatal(err)
		}
	}
}
