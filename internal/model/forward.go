package model

import (
	"context"
	"fmt"
	"math"

	"repro/internal/kvcache"
	"repro/internal/tensor"
)

func cos(x float64) float64    { return math.Cos(x) }
func sin(x float64) float64    { return math.Sin(x) }
func pow(b, e float64) float64 { return math.Pow(b, e) }

// NewCache returns an empty KV cache shaped for this model, reserving
// capacity for capTokens tokens.
func (m *Model) NewCache(capTokens int) *kvcache.Cache {
	return kvcache.New(m.Cfg.NLayers, m.Cfg.KVDim(), capTokens)
}

// NewSeq returns an empty segmented KV view shaped for this model,
// reserving tail capacity for tailCap tokens.
func (m *Model) NewSeq(tailCap int) *kvcache.Seq {
	return kvcache.NewSeq(m.Cfg.NLayers, m.Cfg.KVDim(), tailCap)
}

// attendTileRows is the attention kernel's query tile, T in
// tensor.AttendArgs.Scores: scratch for T·Group score rows lets each
// (query tile, KV head) unit read its K and V rows once.
const attendTileRows = 8

// block is the scratch of one forward pass over k positions: one row per
// position in every intermediate. It is the unit every walk runs — a
// prefill is blocks of up to maxBlockRows of its tokens, a decode step a
// block of one, a speculative verify step a block of 1 + drafts. Matrices
// keep the capacity of the largest k they have held and are resliced per
// pass, so a warm block allocates nothing. Blocks are pooled on the
// Model; one block belongs to one goroutine at a time.
type block struct {
	x, h, q, k, v, attnOut, proj, ffn1, ffn3 tensor.Matrix
	// logits holds a fused step's next-token logits, one row per
	// position, until the lane's next step. Prefills never size it.
	logits tensor.Matrix

	pos  []int // query position of each row
	past int   // cache rows preceding row 0

	scores []float32
	segs   []kvcache.Segment
	spans  []tensor.Span
	att    tensor.AttendArgs
	// lastH and lastLogits view forward's last h row and its returned
	// logits as one-row matrices, the output head's operands.
	lastH, lastLogits tensor.Matrix
}

func (m *Model) newBlock() *block {
	d, kvd, f := m.Cfg.Dim, m.Cfg.KVDim(), m.Cfg.FFNDim
	b := &block{}
	b.x.Cols, b.h.Cols, b.q.Cols, b.attnOut.Cols, b.proj.Cols = d, d, d, d, d
	b.k.Cols, b.v.Cols = kvd, kvd
	b.ffn1.Cols, b.ffn3.Cols = f, f
	b.logits.Cols = m.Cfg.VocabSize
	return b
}

// open sizes the block for the positions poss, which follow past cache
// rows. Row contents are stale: every pass writes a matrix before
// reading it.
func (b *block) open(poss []int, past int) {
	for _, mt := range [...]*tensor.Matrix{&b.x, &b.h, &b.q, &b.k, &b.v, &b.attnOut, &b.proj, &b.ffn1, &b.ffn3} {
		setRows(mt, len(poss))
	}
	b.pos = append(b.pos[:0], poss...)
	b.past = past
}

// setRows reslices mt to rows rows, growing its backing array only when
// its capacity is short.
func setRows(mt *tensor.Matrix, rows int) {
	n := rows * mt.Cols
	if cap(mt.Data) < n {
		mt.Data = make([]float32, n)
	}
	mt.Rows, mt.Data = rows, mt.Data[:n]
}

// maxIdleBlocks bounds the blocks a model keeps between passes: enough
// for a full decode batch's lanes plus concurrent prefills. Blocks
// returned beyond it are left to the collector.
const maxIdleBlocks = 16

// getBlock takes the most recently returned idle block (grown buffers
// carry over), falling back to a fresh one. Steady-state serving
// allocates no per-request scratch at all.
func (m *Model) getBlock() *block {
	m.idleMu.Lock()
	n := len(m.idle)
	if n == 0 {
		m.idleMu.Unlock()
		return m.newBlock()
	}
	b := m.idle[n-1]
	m.idle[n-1] = nil
	m.idle = m.idle[:n-1]
	m.idleMu.Unlock()
	return b
}

func (m *Model) putBlock(b *block) {
	// Segments (and the spans mirroring them) alias module K/V buffers;
	// a pooled stale reference would keep an evicted module's multi-MB
	// backing arrays reachable. Clear the full capacity —
	// AppendSegments reuses slots without zeroing.
	clear(b.segs[:cap(b.segs)])
	b.segs = b.segs[:0]
	clear(b.spans[:cap(b.spans)])
	b.spans = b.spans[:0]
	b.att = tensor.AttendArgs{}
	b.lastH, b.lastLogits = tensor.Matrix{}, tensor.Matrix{}
	m.idleMu.Lock()
	if len(m.idle) < maxIdleBlocks {
		m.idle = append(m.idle, b)
	}
	m.idleMu.Unlock()
}

// Prefill runs the forward pass over tokens with the given explicit
// position IDs, appending each token's key/value states to kv and
// returning the logits of the final token. Attention for token i spans
// everything already in kv plus tokens 0..i of this call — exactly the
// KV-cache contract (§2.2), generalized to arbitrary position IDs (§3.3).
//
// Encoding a prompt module is Prefill into an empty cache (confining
// attention to the module span); serving a prompt is Prefill of the
// uncached suffix into a segmented view over the cached module states
// (§3.4), which never copies the cached rows.
func (m *Model) Prefill(tokens, positions []int, kv kvcache.KV) ([]float32, error) {
	return m.PrefillCtx(context.Background(), tokens, positions, kv)
}

// PrefillCtx is Prefill with cancellation: ctx is checked before each
// layer, so a long prefill aborts mid-flight instead of running to
// completion. On cancellation the cache may hold a partial prefix (the
// positions of the blocks begun, and rows for the layers walked); callers
// either discard it or Truncate back to the pre-call length.
func (m *Model) PrefillCtx(ctx context.Context, tokens, positions []int, kv kvcache.KV) ([]float32, error) {
	if len(tokens) != len(positions) {
		return nil, fmt.Errorf("model: %d tokens but %d positions", len(tokens), len(positions))
	}
	if len(tokens) == 0 {
		return nil, fmt.Errorf("model: empty prefill")
	}
	if m.PrefillProbe != nil {
		m.PrefillProbe(+1)
		defer m.PrefillProbe(-1)
	}
	return m.forward(ctx, tokens, positions, kv)
}

// Decode runs one autoregressive step: it appends token at position pos to
// kv and returns the next-token logits. The returned slice is freshly
// allocated; decode loops that can reuse buffers go through a DecodeLane
// and DecodeStepBatch.
//
//pclint:ignore unreached test oracle: the one-token step the fused and batched decode paths are checked against
func (m *Model) Decode(token, pos int, kv kvcache.KV) ([]float32, error) {
	return m.forward(context.Background(), []int{token}, []int{pos}, kv)
}

// maxBlockRows caps a block's rows. A longer prefill runs as consecutive
// blocks, which gives the same bits — a row's sums and causal rows do not
// depend on the block that carries it — so a pooled block, and a decode
// lane that later draws it, never holds more than this many rows.
const maxBlockRows = 256

// forward runs tokens at positions through every layer in blocks of at
// most maxBlockRows and returns freshly allocated next-token logits for
// the last token.
func (m *Model) forward(ctx context.Context, tokens, positions []int, kv kvcache.KV) ([]float32, error) {
	if err := m.check(tokens, positions); err != nil {
		return nil, err
	}
	b := m.getBlock()
	defer m.putBlock(b)
	for lo := 0; lo < len(tokens); lo += maxBlockRows {
		hi := min(lo+maxBlockRows, len(tokens))
		m.begin(b, tokens[lo:hi], positions[lo:hi], kv)
		for l := range m.layers {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			m.layerBlock(l, b, kv)
		}
	}
	// The final norm reuses the last row of h, free once the walk is done.
	last := len(b.pos) - 1
	logits := make([]float32, m.Cfg.VocabSize)
	m.norm(b.h.Row(last), b.x.Row(last), m.finalNormW, m.finalNormB)
	b.lastH = tensor.Matrix{Rows: 1, Cols: m.Cfg.Dim, Data: b.h.Row(last)}
	b.lastLogits = tensor.Matrix{Rows: 1, Cols: m.Cfg.VocabSize, Data: logits}
	m.bk.MatMul(&b.lastLogits, &b.lastH, m.embT)
	return logits, nil
}

// check rejects any token or position the model cannot embed; callers
// run it before touching the cache, so a bad input leaves it unchanged.
func (m *Model) check(tokens, positions []int) error {
	for i, tok := range tokens {
		if tok < 0 || tok >= m.Cfg.VocabSize {
			return fmt.Errorf("model: token %d out of vocab %d", tok, m.Cfg.VocabSize)
		}
		if pos := positions[i]; pos < 0 || pos >= m.Cfg.MaxSeq {
			return fmt.Errorf("model: position %d out of range [0,%d)", pos, m.Cfg.MaxSeq)
		}
	}
	return nil
}

// begin opens b over checked tokens at positions: each token is embedded
// into its row and its position recorded in kv ahead of the layer walk,
// so after layerBlock(l) the cache's layer-l buffers hold exactly
// kv.Len() rows.
func (m *Model) begin(b *block, tokens, positions []int, kv kvcache.KV) {
	b.open(positions, kv.Len())
	for i, tok := range tokens {
		x := b.x.Row(i)
		for p := range x {
			x[p] = m.embT.Data[p*m.Cfg.VocabSize+tok]
		}
		if m.Cfg.PosEnc == Learned {
			tensor.Add(x, m.posTable.Row(positions[i]))
		}
		kv.AppendPos(positions[i])
	}
}

// layerBlock is the one layer body. It carries the block's hidden states
// in b.x through layer l: norm, each projection as one k-row matrix
// product, RoPE, each row's K/V appended to kv, attention of row i over
// kv's first past+i+1 rows, the output projection and the FFN. Prefill
// (k up to maxBlockRows), decode (k = 1) and the speculative verify step
// (k = 1 + drafts) all run it, and every output element is the same
// ascending sum whatever k is and whichever rows share the block — so a
// prefill, token-by-token decode and a verify step agree bit for bit.
func (m *Model) layerBlock(l int, b *block, kv kvcache.KV) {
	cfg := &m.Cfg
	ly := &m.layers[l]
	for i := range b.pos {
		m.norm(b.h.Row(i), b.x.Row(i), ly.attnNormW, ly.attnNormB)
	}
	m.bk.MatMul(&b.q, &b.h, ly.wq)
	m.bk.MatMul(&b.k, &b.h, ly.wk)
	m.bk.MatMul(&b.v, &b.h, ly.wv)
	for i, pos := range b.pos {
		if cfg.PosEnc == RoPE {
			m.applyRope(b.q.Row(i), cfg.NHeads, pos)
			m.applyRope(b.k.Row(i), cfg.NKVHeads, pos)
		}
		kv.AppendToken(l, b.k.Row(i), b.v.Row(i))
	}

	m.attend(b, kv, l)

	m.bk.MatMul(&b.proj, &b.attnOut, ly.wo)
	tensor.Add(b.x.Data, b.proj.Data)
	if !cfg.ParallelAttn {
		// Sequential block: the FFN reads the post-attention residual.
		// (Falcon's parallel block reuses the attention's normed input:
		// x = x + attn(h) + ffn(h).)
		for i := range b.pos {
			m.norm(b.h.Row(i), b.x.Row(i), ly.ffnNormW, ly.ffnNormB)
		}
	}
	m.bk.MatMul(&b.ffn1, &b.h, ly.w1)
	switch cfg.Act {
	case SwiGLU:
		tensor.SiLU(b.ffn1.Data)
		m.bk.MatMul(&b.ffn3, &b.h, ly.w3)
		tensor.Mul(b.ffn1.Data, b.ffn3.Data)
	case GELU:
		tensor.GELU(b.ffn1.Data)
	}
	m.bk.MatMul(&b.proj, &b.ffn1, ly.w2)
	tensor.Add(b.x.Data, b.proj.Data)
}

// attend computes multi-head attention for the block's rows over rows
// [0, past+k) of layer l, writing the merged heads to b.attnOut. It walks
// the view's contiguous segments in place — cached module rows are never
// copied — through the backend's AttendRowBlock, whose causal clamp
// gives row i the rows [0, past+i+1).
func (m *Model) attend(b *block, kv kvcache.KV, l int) {
	cfg := &m.Cfg
	n := b.past + len(b.pos)
	group := cfg.NHeads / cfg.NKVHeads
	pairs := min(len(b.pos), attendTileRows) * group // score rows per unit
	if cap(b.scores) < pairs*n {
		// Headroom: decode grows n by one per step; sizing exactly would
		// reallocate the score buffer every token of every reply.
		b.scores = make([]float32, pairs*(n+256))
	}
	b.segs = kv.AppendSegments(b.segs[:0], l, n)
	b.spans = b.spans[:0]
	for _, seg := range b.segs {
		b.spans = append(b.spans, tensor.Span{K: seg.K, V: seg.V, Pos: seg.Pos})
	}
	b.att = tensor.AttendArgs{
		Q: &b.q, Out: &b.attnOut,
		Spans: b.spans, Past: b.past, Positions: b.pos,
		NHeads: cfg.NHeads, Group: group,
		HeadDim: cfg.HeadDim(), Width: cfg.KVDim(),
		InvSqrt:     float32(1 / math.Sqrt(float64(cfg.HeadDim()))),
		AlibiSlopes: m.alibiSlope, // nil unless ALiBi
		Scores:      b.scores[:pairs*n],
	}
	m.bk.AttendRowBlock(&b.att)
}

// applyRope rotates each head's (even, odd) pairs by the position's
// precomputed angle from the lookup tables.
func (m *Model) applyRope(vec []float32, nHeads, pos int) {
	hd := m.Cfg.HeadDim()
	half := hd / 2
	cosRow := m.ropeCos.Row(pos)
	sinRow := m.ropeSin.Row(pos)
	for h := 0; h < nHeads; h++ {
		base := h * hd
		for f := 0; f < half; f++ {
			c, s := cosRow[f], sinRow[f]
			a, b := vec[base+2*f], vec[base+2*f+1]
			vec[base+2*f] = float32(a*c) - float32(b*s)
			vec[base+2*f+1] = float32(a*s) + float32(b*c)
		}
	}
}

// norm applies the configured normalization.
func (m *Model) norm(dst, x, w, b []float32) {
	switch m.Cfg.Norm {
	case RMSNorm:
		tensor.RMSNorm(dst, x, w, 1e-5)
	case LayerNorm:
		tensor.LayerNorm(dst, x, w, b, 1e-5)
	}
}
