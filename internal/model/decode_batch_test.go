package model

import (
	"testing"

	"repro/internal/kvcache"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
)

// TestDecodeStepBatchBitIdentical: a fused batch of heterogeneous
// sequences must produce, for every lane, exactly the logits and KV rows
// the solo decode path produces — across every architecture family
// (RoPE, ALiBi with position gaps, learned positions, parallel attn).
func TestDecodeStepBatchBitIdentical(t *testing.T) {
	for _, cfg := range allConfigs(41) {
		t.Run(cfg.Name, func(t *testing.T) {
			m := MustNew(cfg)
			r := rng.New(99)
			const lanesN = 4
			const steps = 6

			// Heterogeneous prefixes: different lengths, and for lane i>0 a
			// position gap of 32*i between prefix and decode, exercising the
			// ALiBi "white space" and RoPE table lookups off the dense path.
			prefixes := make([][]int, lanesN)
			positions := make([][]int, lanesN)
			for i := range prefixes {
				n := 3 + 2*i
				prefixes[i] = randTokens(r, n)
				positions[i] = seqPositions(n, 0)
			}

			// Solo reference: per lane, prefill then decode via the public
			// solo step (Decode allocates per call but shares step()).
			soloLogits := make([][][]float32, lanesN)
			soloKV := make([]*kvcache.Cache, lanesN)
			feeds := make([][]int, lanesN)
			for i := range prefixes {
				kv := m.NewCache(len(prefixes[i]) + steps)
				if _, err := m.Prefill(prefixes[i], positions[i], kv); err != nil {
					t.Fatal(err)
				}
				soloKV[i] = kv
				pos := kv.MaxPos() + 32*i // lane-specific gap
				feeds[i] = randTokens(rng.New(uint64(1000+i)), steps)
				for s := 0; s < steps; s++ {
					lg, err := m.Decode(feeds[i][s], pos+s, kv)
					if err != nil {
						t.Fatal(err)
					}
					soloLogits[i] = append(soloLogits[i], lg)
				}
			}

			// Fused: same prefixes, all lanes stepped together.
			lanes := make([]*DecodeLane, lanesN)
			kvs := make([]kvcache.KV, lanesN)
			basePos := make([]int, lanesN)
			for i := range prefixes {
				kv := m.NewCache(len(prefixes[i]) + steps)
				if _, err := m.Prefill(prefixes[i], positions[i], kv); err != nil {
					t.Fatal(err)
				}
				kvs[i] = kv
				basePos[i] = kv.MaxPos() + 32*i
				lanes[i] = m.NewDecodeLane()
				defer lanes[i].Close()
			}
			toks := make([]int, lanesN)
			poss := make([]int, lanesN)
			for s := 0; s < steps; s++ {
				for i := range lanes {
					toks[i] = feeds[i][s]
					poss[i] = basePos[i] + s
				}
				if err := m.DecodeStepBatch(lanes, toks, poss, kvs); err != nil {
					t.Fatal(err)
				}
				for i, ln := range lanes {
					if err := ln.Err(); err != nil {
						t.Fatalf("lane %d step %d: %v", i, s, err)
					}
					if d := tensor.MaxAbsDiff(ln.LogitsAt(0), soloLogits[i][s]); d != 0 {
						t.Fatalf("lane %d step %d: fused logits diverge from solo by %v", i, s, d)
					}
				}
			}
			for i := range kvs {
				fused := kvs[i].(*kvcache.Cache)
				if fused.Len() != soloKV[i].Len() {
					t.Fatalf("lane %d: fused KV %d rows, solo %d", i, fused.Len(), soloKV[i].Len())
				}
				for l := 0; l < cfg.NLayers; l++ {
					if tensor.MaxAbsDiff(fused.K[l], soloKV[i].K[l]) != 0 || tensor.MaxAbsDiff(fused.V[l], soloKV[i].V[l]) != 0 {
						t.Fatalf("lane %d layer %d: fused KV rows diverge from solo", i, l)
					}
				}
			}
		})
	}
}

// TestDecodeStepBatchLaneError: an invalid lane reports through Err()
// and appends nothing, while the rest of the batch steps normally.
func TestDecodeStepBatchLaneError(t *testing.T) {
	m := MustNew(LlamaStyle(testVocab, 5))
	prefix := randTokens(rng.New(3), 4)
	mk := func() *kvcache.Cache {
		kv := m.NewCache(8)
		if _, err := m.Prefill(prefix, seqPositions(4, 0), kv); err != nil {
			t.Fatal(err)
		}
		return kv
	}
	good, bad := mk(), mk()
	soloRef := mk()
	wantLogits, err := m.Decode(tokenizer.WordBase, 4, soloRef)
	if err != nil {
		t.Fatal(err)
	}

	lanes := []*DecodeLane{m.NewDecodeLane(), m.NewDecodeLane()}
	defer lanes[0].Close()
	defer lanes[1].Close()
	err = m.DecodeStepBatch(lanes,
		[]int{tokenizer.WordBase, m.Cfg.VocabSize + 5}, // lane 1: token out of vocab
		[]int{4, 4},
		[]kvcache.KV{good, bad})
	if err != nil {
		t.Fatal(err)
	}
	if lanes[0].Err() != nil {
		t.Fatalf("healthy lane failed: %v", lanes[0].Err())
	}
	if lanes[1].Err() == nil {
		t.Fatal("invalid lane reported no error")
	}
	if bad.Len() != 4 {
		t.Fatalf("failed lane appended rows: len=%d", bad.Len())
	}
	if good.Len() != 5 {
		t.Fatalf("healthy lane has %d rows, want 5", good.Len())
	}
	if d := tensor.MaxAbsDiff(lanes[0].LogitsAt(0), wantLogits); d != 0 {
		t.Fatalf("healthy lane diverged from solo by %v", d)
	}

	// Mismatched slice lengths are a caller bug, reported on the call.
	if err := m.DecodeStepBatch(lanes, []int{1}, []int{4, 4}, []kvcache.KV{good, bad}); err == nil {
		t.Fatal("expected shape error")
	}
}

// TestDecodeStepBatchMultiMatchesSequential: a k-position step leaves
// every lane with exactly the logits and KV rows that k single-position
// steps produce — the k = 1 and k > 1 entries are one walk.
func TestDecodeStepBatchMultiMatchesSequential(t *testing.T) {
	for _, cfg := range allConfigs(43) {
		t.Run(cfg.Name, func(t *testing.T) {
			m := MustNew(cfg)
			const lanesN, k = 3, 4
			mk := func(i int) *kvcache.Cache {
				n := 3 + i
				kv := m.NewCache(n + k)
				if _, err := m.Prefill(randTokens(rng.New(uint64(7+i)), n), seqPositions(n, 0), kv); err != nil {
					t.Fatal(err)
				}
				return kv
			}
			seqLanes, multiLanes := make([]*DecodeLane, lanesN), make([]*DecodeLane, lanesN)
			seqKVs, multiKVs := make([]kvcache.KV, lanesN), make([]kvcache.KV, lanesN)
			toks, poss := make([][]int, lanesN), make([][]int, lanesN)
			for i := range toks {
				seqLanes[i], multiLanes[i] = m.NewDecodeLane(), m.NewDecodeLane()
				defer seqLanes[i].Close()
				defer multiLanes[i].Close()
				seqKVs[i], multiKVs[i] = mk(i), mk(i)
				toks[i] = randTokens(rng.New(uint64(500+i)), k)
				poss[i] = seqPositions(k, 3+i+16*i) // lane-specific position gap
			}

			if err := m.DecodeStepBatchMulti(multiLanes, toks, poss, multiKVs); err != nil {
				t.Fatal(err)
			}
			stepToks, stepPos := make([]int, lanesN), make([]int, lanesN)
			for j := 0; j < k; j++ {
				for i := range toks {
					stepToks[i], stepPos[i] = toks[i][j], poss[i][j]
				}
				if err := m.DecodeStepBatch(seqLanes, stepToks, stepPos, seqKVs); err != nil {
					t.Fatal(err)
				}
				for i := range toks {
					if err := multiLanes[i].Err(); err != nil {
						t.Fatal(err)
					}
					if d := tensor.MaxAbsDiff(multiLanes[i].LogitsAt(j), seqLanes[i].LogitsAt(0)); d != 0 {
						t.Fatalf("lane %d position %d: multi logits diverge from sequential by %v", i, j, d)
					}
				}
			}
			for i := range toks {
				a, b := multiKVs[i].(*kvcache.Cache), seqKVs[i].(*kvcache.Cache)
				for l := 0; l < cfg.NLayers; l++ {
					if a.Len() != b.Len() || tensor.MaxAbsDiff(a.K[l], b.K[l]) != 0 || tensor.MaxAbsDiff(a.V[l], b.V[l]) != 0 {
						t.Fatalf("lane %d layer %d: multi KV rows diverge from sequential", i, l)
					}
				}
			}
		})
	}
}

// TestDecodeStepBatchMultiMalformedLeavesLanesUntouched: a malformed
// lane shape anywhere in the call is rejected before any lane's cache is
// touched — earlier lanes must not be left with positions but no rows.
func TestDecodeStepBatchMultiMalformedLeavesLanesUntouched(t *testing.T) {
	m := MustNew(LlamaStyle(testVocab, 5))
	lanes := []*DecodeLane{m.NewDecodeLane(), m.NewDecodeLane(), m.NewDecodeLane()}
	kvs := make([]kvcache.KV, len(lanes))
	for i := range lanes {
		defer lanes[i].Close()
		kv := m.NewCache(8)
		if _, err := m.Prefill(randTokens(rng.New(3), 4), seqPositions(4, 0), kv); err != nil {
			t.Fatal(err)
		}
		kvs[i] = kv
	}
	ok := []int{tokenizer.WordBase, tokenizer.WordBase + 1}
	for name, bad := range map[string][2][]int{
		"empty lane":       {{}, {}},
		"tokens≠positions": {ok, {4}},
	} {
		err := m.DecodeStepBatchMulti(lanes,
			[][]int{ok, ok, bad[0]},
			[][]int{{4, 5}, {4, 5}, bad[1]},
			kvs)
		if err == nil {
			t.Fatalf("%s: expected a shape error", name)
		}
		for i, kv := range kvs {
			if kv.Len() != 4 {
				t.Fatalf("%s: lane %d cache has %d rows after a rejected call, want 4", name, i, kv.Len())
			}
		}
	}
}

// TestDecodeStepAllocFree pins the DecodeLane promise: once warm, a fused
// step allocates nothing, at k = 1 through either entry point and at
// k = 4. (One worker: more spawn goroutines per step.)
func TestDecodeStepAllocFree(t *testing.T) {
	m := MustNew(LlamaStyle(testVocab, 5))
	m.SetBackend(tensor.NewBackend(1))
	const lanesN, runs = 2, 5
	for _, k := range []int{1, 4} {
		lanes := make([]*DecodeLane, lanesN)
		kvs := make([]kvcache.KV, lanesN)
		toks, poss := make([][]int, lanesN), make([][]int, lanesN)
		flatToks, flatPos := make([]int, lanesN), make([]int, lanesN)
		for i := range lanes {
			lanes[i] = m.NewDecodeLane()
			defer lanes[i].Close()
			// Capacity for the prefix plus every measured step, so cache
			// growth stays out of the measurement.
			kv := m.NewCache(4 + 2*(runs+2)*k)
			if _, err := m.Prefill(randTokens(rng.New(uint64(11+i)), 4), seqPositions(4, 0), kv); err != nil {
				t.Fatal(err)
			}
			kvs[i] = kv
			toks[i], poss[i] = randTokens(rng.New(uint64(21+i)), k), make([]int, k)
		}
		next := 4
		multi := func() {
			for i := range poss {
				for j := range poss[i] {
					poss[i][j] = next + j
				}
			}
			next += k
			if err := m.DecodeStepBatchMulti(lanes, toks, poss, kvs); err != nil {
				t.Fatal(err)
			}
		}
		multi() // warm lane blocks, score buffers and head headers
		if n := testing.AllocsPerRun(runs, multi); n != 0 {
			t.Errorf("k=%d: DecodeStepBatchMulti allocates %v per step, want 0", k, n)
		}
		if k != 1 {
			continue
		}
		single := func() {
			for i := range flatPos {
				flatToks[i], flatPos[i] = toks[i][0], next
			}
			next++
			if err := m.DecodeStepBatch(lanes, flatToks, flatPos, kvs); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(runs, single); n != 0 {
			t.Errorf("DecodeStepBatch allocates %v per step, want 0", n)
		}
	}
}
