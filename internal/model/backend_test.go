package model

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// TestBackendsBitIdenticalForward is the model-level half of the backend
// contract: a full forward pass — a 24-token prefill block (wide enough
// that several workers shard its matmuls), per-token decode through
// Complete, and the final logits — must be bit-for-bit identical at
// every worker count, for every architecture family. tensor's own tests
// prove the kernels agree element by element; this proves the model
// wires them so that nothing (scratch reuse, span conversion, lane
// batching) depends on the worker count either.
func TestBackendsBitIdenticalForward(t *testing.T) {
	for _, cfg := range allConfigs(7788) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			toks := randTokens(rng.New(55), 24)
			run := func(bk tensor.Backend) ([]int, []float32) {
				m := MustNew(cfg)
				m.SetBackend(bk)
				cache := m.NewCache(len(toks))
				logits, err := m.Prefill(toks, seqPositions(len(toks), 0), cache)
				if err != nil {
					t.Fatal(err)
				}
				out, _, err := complete(m, toks, GenerateOpts{MaxTokens: 6})
				if err != nil {
					t.Fatal(err)
				}
				return out, logits
			}
			wantOut, wantLg := run(tensor.NewBackend(1))
			for _, bk := range []tensor.Backend{tensor.NewBackend(4), tensor.NewBackend(3)} {
				gotOut, gotLg := run(bk)
				if fmt.Sprint(gotOut) != fmt.Sprint(wantOut) {
					t.Fatalf("workers=%d: greedy continuation diverged: %v vs %v", bk.Workers(), gotOut, wantOut)
				}
				for i := range wantLg {
					if math.Float32bits(wantLg[i]) != math.Float32bits(gotLg[i]) {
						t.Fatalf("workers=%d: prefill logit %d differs in bits: %v vs %v",
							bk.Workers(), i, wantLg[i], gotLg[i])
					}
				}
			}
		})
	}
}
