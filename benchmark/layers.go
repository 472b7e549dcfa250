package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
)

// Layer timings below the request: public functions of internal/model,
// internal/kvcache, internal/quant and internal/tensor timed in
// isolation at the shapes the workloads put them through. Kernels carry
// operation and byte counts computed from the tensor sizes — computed,
// not measured: a CPU sandbox cannot measure hardware rates.

// timeOp runs fn in batches for about budget and returns the median
// batch's time per call.
func timeOp(budget time.Duration, fn func()) time.Duration {
	fn() // warm caches and pooled scratch
	start := time.Now()
	fn()
	one := max(time.Since(start), time.Microsecond)
	batch := int(max(200*time.Microsecond/one, 1))
	var per []time.Duration
	for deadline := start.Add(budget); time.Now().Before(deadline) || len(per) < 5; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, time.Since(t0)/time.Duration(batch))
	}
	slices.Sort(per)
	return per[len(per)/2]
}

// syntheticKV is a flat cache of n rows at positions 0..n-1 holding
// deterministic values: the cost of reading it does not depend on them.
func syntheticKV(m *model.Model, n, spare int) *kvcache.Cache {
	kv := m.NewCache(n + spare)
	r := &rng{s: 7}
	k, v := make([]float32, m.Cfg.KVDim()), make([]float32, m.Cfg.KVDim())
	for i := 0; i < n; i++ {
		for l := 0; l < m.Cfg.NLayers; l++ {
			for j := range k {
				k[j] = float32(r.float()) - 0.5
				v[j] = float32(r.float()) - 0.5
			}
			kv.AppendToken(l, k, v)
		}
		kv.AppendPos(i)
	}
	return kv
}

func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

const layerBudget = 40 * time.Millisecond

// layerTimings fills in the model, storage and kernel timings.
func layerTimings(ctx context.Context, rep *layerReport, wl *workloadSpec) error {
	put := rep.put
	m, err := model.New(model.LlamaStyle(vocabSize, modelSeed))
	if err != nil {
		return err
	}
	bk, err := tensor.Select("auto")
	if err != nil {
		return err
	}
	m.SetBackend(bk)
	cfg := m.Cfg
	var firstErr error
	check := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// model.prefill: the doc_qa suffix (16 new tokens onto 2 K cached rows)
	// and the chat body (256 new tokens onto a 32-row system module).
	for _, shape := range []struct {
		name      string
		rows, new int
	}{{"model.prefill_16on2k_ms", 2000, 16}, {"model.prefill_256on32_ms", 32, 256}} {
		kv := syntheticKV(m, shape.rows, shape.new)
		toks, pos := seq(tokenBase, shape.new), seq(shape.rows, shape.new)
		put(shape.name, ms(timeOp(layerBudget, func() {
			_, err := m.PrefillCtx(ctx, toks, pos, kv)
			check(err)
			kv.Truncate(shape.rows)
		})), "ms")
	}

	// model.decode_step and model.verify_step over 256-row contexts
	// (decode.long's mid-reply length): one lane, `clients` lanes, and one
	// lane scoring 1 + the default draft budget of 4 positions.
	const ctxRows, verifyWidth = 256, 5
	n := clientCount()
	lanes := make([]*model.DecodeLane, n)
	kvs := make([]kvcache.KV, n)
	for i := range lanes {
		lanes[i] = m.NewDecodeLane()
		defer lanes[i].Close()
		kvs[i] = syntheticKV(m, ctxRows, verifyWidth)
	}
	step := func(k int) func() {
		toks, pos := seq(tokenBase, k), make([]int, k)
		for i := range pos {
			pos[i] = ctxRows
		}
		return func() {
			check(m.DecodeStepBatch(lanes[:k], toks, pos, kvs[:k]))
			for i := 0; i < k; i++ {
				check(lanes[i].Err())
				kvs[i].Truncate(ctxRows)
			}
		}
	}
	put("model.decode_step_ms", ms(timeOp(layerBudget, step(1))), "ms")
	put("model.decode_step_lanes_ms", ms(timeOp(layerBudget, step(n))), "ms")
	vt, vp := [][]int{seq(tokenBase, verifyWidth)}, [][]int{seq(ctxRows, verifyWidth)}
	put("model.verify_step_ms", ms(timeOp(layerBudget, func() {
		check(m.DecodeStepBatchMulti(lanes[:1], vt, vp, kvs[:1]))
		check(lanes[0].Err())
		kvs[0].Truncate(ctxRows)
	})), "ms")

	// Storage: serialising and quantising one module of the workload's
	// size, in MB of fp32 state per second.
	module := syntheticKV(m, wl.traffic[0].moduleTokens, 0)
	mb := float64(module.Bytes(4)) / 1e6
	rate := func(d time.Duration) float64 { return mb / d.Seconds() }
	var buf bytes.Buffer
	put("kvcache.write_mb_s", rate(timeOp(layerBudget, func() {
		buf.Reset()
		_, err := module.WriteTo(&buf)
		check(err)
	})), "MB/s")
	raw := slices.Clone(buf.Bytes())
	put("kvcache.read_mb_s", rate(timeOp(layerBudget, func() {
		_, err := kvcache.ReadFrom(bytes.NewReader(raw))
		check(err)
	})), "MB/s")
	for _, c := range []struct {
		name  string
		codec quant.Codec
	}{{"fp32", quant.CodecFP32}, {"int8", quant.CodecInt8}} {
		put("quant.encode_"+c.name+"_mb_s", rate(timeOp(layerBudget, func() {
			buf.Reset()
			_, err := quant.EncodeKV(&buf, module, c.codec)
			check(err)
		})), "MB/s")
		blob := slices.Clone(buf.Bytes())
		put("quant.decode_"+c.name+"_mb_s", rate(timeOp(layerBudget, func() {
			_, _, err := quant.DecodeKV(bytes.NewReader(blob))
			check(err)
		})), "MB/s")
	}

	kernelTimings(rep, bk, &cfg)
	if firstErr != nil {
		return fmt.Errorf("layer timings: %w", firstErr)
	}
	return nil
}

// tokenBase is the first word-token id; any valid id costs the same.
const tokenBase = tokenizer.WordBase

// kernelTimings times the tensor kernels at the model's shapes and
// attaches operation and byte counts computed from the tensor sizes.
func kernelTimings(rep *layerReport, bk tensor.Backend, cfg *model.Config) {
	kernel := func(name string, flops, bytes int, fn func()) {
		rep.put(name+"_ns", float64(timeOp(layerBudget, fn)), "ns")
		rep.put(name+"_flops", float64(flops), "flop")
		rep.put(name+"_bytes", float64(bytes), "bytes")
	}
	r := &rng{s: 9}
	fill := func(x []float32) []float32 {
		for i := range x {
			x[i] = float32(r.float()) - 0.5
		}
		return x
	}
	mat := func(rows, cols int) *tensor.Matrix {
		m := tensor.NewMatrix(rows, cols)
		fill(m.Data)
		return m
	}
	dim, ffn, hd := cfg.Dim, cfg.FFNDim, cfg.HeadDim()

	// MatMul: the FFN up-projection of a 256-token prefill chunk.
	const rows = 256
	a, b, dst := mat(rows, dim), mat(dim, ffn), tensor.NewMatrix(rows, ffn)
	kernel("tensor.matmul", 2*rows*dim*ffn, 4*(rows*dim+dim*ffn+rows*ffn), func() { bk.MatMul(dst, a, b) })

	// MatVecT: the same projection for one decode position.
	h, out := fill(make([]float32, dim)), make([]float32, ffn)
	kernel("tensor.matvec", 2*dim*ffn, 4*(dim*ffn+dim+ffn), func() { bk.MatVecT(out, b, h) })

	// AttendRowBlock: one query position over 32, 256 and 2000 cached
	// keys. Counted: the QKᵀ and weighted-V products (softmax excluded),
	// and the K and V rows, query and output read or written.
	width := cfg.KVDim()
	q, o := mat(1, dim), tensor.NewMatrix(1, dim)
	for _, keys := range []struct {
		name string
		n    int
	}{{"tensor.attend_32", 32}, {"tensor.attend_256", 256}, {"tensor.attend_2k", 2000}} {
		span := tensor.Span{K: fill(make([]float32, keys.n*width)), V: fill(make([]float32, keys.n*width)), Pos: seq(0, keys.n)}
		args := tensor.AttendArgs{
			Q: q, Out: o, Spans: []tensor.Span{span}, Past: keys.n - 1, Positions: []int{keys.n - 1},
			NHeads: cfg.NHeads, Group: cfg.NHeads / cfg.NKVHeads, HeadDim: hd, Width: width,
			InvSqrt: float32(1 / math.Sqrt(float64(hd))), Scores: make([]float32, keys.n),
		}
		kernel(keys.name, 4*keys.n*hd*cfg.NHeads, 4*(2*keys.n*width+2*dim), func() { bk.AttendRowBlock(&args) })
	}

	// OutputHead: one lane's logits over the whole vocabulary.
	emb := mat(cfg.VocabSize, dim)
	logits := [][]float32{make([]float32, cfg.VocabSize)}
	hs := [][]float32{h}
	kernel("tensor.output_head", 2*cfg.VocabSize*dim, 4*(cfg.VocabSize*dim+dim+cfg.VocabSize), func() { bk.OutputHead(logits, emb, hs) })
}
