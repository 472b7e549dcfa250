package model

import (
	"context"
	"fmt"
	"math"

	"repro/internal/kvcache"
	"repro/internal/tensor"
)

// chunkThreshold is the prefill length at which the batched path takes
// over from the per-token path. Batching turns the weight applications
// into (n × dim)·(dim × out) matrix multiplications that a multi-worker
// backend shards across cores — the same reason real engines prefill in
// chunks rather than token by token.
const chunkThreshold = 16

// attendTileRows is the attention kernel's query tile, T in
// tensor.AttendArgs.Scores: scratch for T·Group score rows lets each
// (query tile, KV head) unit read its K and V rows once.
const attendTileRows = 8

// prefillChunk runs the forward pass over a whole chunk with batched
// matmuls. It is numerically equivalent to the sequential path: both use
// the same ascending-k accumulation order per output element, and
// attention is evaluated per token with an identical causal row bound.
// ctx is checked before each layer, the unit of work worth interrupting.
func (m *Model) prefillChunk(ctx context.Context, tokens, positions []int, kv kvcache.KV) ([]float32, error) {
	cfg := &m.Cfg
	n := len(tokens)
	past := kv.Len()

	// Embed.
	x := tensor.NewMatrix(n, cfg.Dim)
	for i, tok := range tokens {
		if tok < 0 || tok >= cfg.VocabSize {
			return nil, fmt.Errorf("model: token %d out of vocab %d", tok, cfg.VocabSize)
		}
		pos := positions[i]
		if pos < 0 || pos >= cfg.MaxSeq {
			return nil, fmt.Errorf("model: position %d out of range [0,%d)", pos, cfg.MaxSeq)
		}
		copy(x.Row(i), m.embedding.Row(tok))
		if cfg.PosEnc == Learned {
			tensor.Add(x.Row(i), m.posTable.Row(pos))
		}
	}
	for _, pos := range positions {
		kv.AppendPos(pos)
	}

	h := tensor.NewMatrix(n, cfg.Dim)
	q := tensor.NewMatrix(n, cfg.Dim)
	k := tensor.NewMatrix(n, cfg.KVDim())
	v := tensor.NewMatrix(n, cfg.KVDim())
	attnOut := tensor.NewMatrix(n, cfg.Dim)
	proj := tensor.NewMatrix(n, cfg.Dim)
	ffn1 := tensor.NewMatrix(n, cfg.FFNDim)
	ffn3 := tensor.NewMatrix(n, cfg.FFNDim)
	group := cfg.NHeads / cfg.NKVHeads
	scores := make([]float32, min(n, attendTileRows)*group*(past+n))
	var segs []kvcache.Segment
	var spans []tensor.Span
	att := tensor.AttendArgs{
		Q: q, Out: attnOut, Past: past, Positions: positions,
		NHeads: cfg.NHeads, Group: group,
		HeadDim: cfg.HeadDim(), Width: cfg.KVDim(),
		InvSqrt:     float32(1 / math.Sqrt(float64(cfg.HeadDim()))),
		AlibiSlopes: m.alibiSlope, Scores: scores,
	}

	for l := range m.layers {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ly := &m.layers[l]
		for i := 0; i < n; i++ {
			m.norm(h.Row(i), x.Row(i), ly.attnNormW, ly.attnNormB)
		}
		m.bk.MatMul(q, h, ly.wq)
		m.bk.MatMul(k, h, ly.wk)
		m.bk.MatMul(v, h, ly.wv)
		if cfg.PosEnc == RoPE {
			for i := 0; i < n; i++ {
				m.applyRope(q.Row(i), cfg.NHeads, positions[i])
				m.applyRope(k.Row(i), cfg.NKVHeads, positions[i])
			}
		}
		for i := 0; i < n; i++ {
			kv.AppendToken(l, k.Row(i), v.Row(i))
		}
		// Attend over the view's contiguous segments in place — cached
		// module rows are never copied. The segs/spans buffers are reused
		// across layers; token i's scan is causally clamped inside the
		// kernel to rows [0, past+i+1).
		segs = kv.AppendSegments(segs[:0], l, past+n)
		spans = spans[:0]
		for _, seg := range segs {
			spans = append(spans, tensor.Span{K: seg.K, V: seg.V, Pos: seg.Pos})
		}
		att.Spans = spans
		m.bk.AttendRowBlock(&att)
		m.bk.MatMul(proj, attnOut, ly.wo)
		tensor.Add(x.Data, proj.Data)
		if cfg.ParallelAttn {
			// Falcon block: FFN from the same normed input.
			m.ffnChunk(x, h, ffn1, ffn3, proj, ly)
		} else {
			for i := 0; i < n; i++ {
				m.norm(h.Row(i), x.Row(i), ly.ffnNormW, ly.ffnNormB)
			}
			m.ffnChunk(x, h, ffn1, ffn3, proj, ly)
		}
	}
	return m.logits(x.Row(n - 1)), nil
}

// ffnChunk applies the feed-forward block to every row of h and adds the
// result into x.
func (m *Model) ffnChunk(x, h, ffn1, ffn3, proj *tensor.Matrix, ly *layer) {
	m.bk.MatMul(ffn1, h, ly.w1)
	switch m.Cfg.Act {
	case SwiGLU:
		m.bk.SiLU(ffn1.Data)
		m.bk.MatMul(ffn3, h, ly.w3)
		tensor.Mul(ffn1.Data, ffn3.Data)
	case GELU:
		m.bk.GELU(ffn1.Data)
	}
	m.bk.MatMul(proj, ffn1, ly.w2)
	tensor.Add(x.Data, proj.Data)
}
