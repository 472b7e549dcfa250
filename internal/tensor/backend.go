package tensor

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
)

// Backend runs the engine's heavy kernels over a fixed number of worker
// goroutines. Every hot loop in internal/model bottoms out in one of its
// methods, and each hot method is one leaf body (matMulRange,
// attendUnits) split across the workers; the model's output head is a
// MatMul by the transposed embedding. The matmul and attention leaves
// run AVX2 bodies where the start-up probe found AVX2 and FMA (see
// VectorISA), prefill attention four query heads at a time and the exp
// lanes with float64 fused multiply-adds; those equal the Go bodies bit
// for bit, so the contract below holds on either.
//
// One worker is the reference: every kernel runs on the calling
// goroutine in the canonical accumulation order. More workers only
// decide which worker computes which independent unit of output — a run
// of matrix product columns, an attention (query tile, KV head) unit —
// never a part of a reduction, so every output element is bit-for-bit
// what one worker computes (compare with math.Float32bits, not a
// tolerance). Inside a reduction (a dot product, a softmax sum, a norm
// accumulator) the reference order is part of the contract, because
// float addition is not associative in rounding. This is what lets
// golden-logits tests, the fused ≡ solo decode guarantee and
// cross-machine cache reuse hold at any worker count.
//
// The zero value is the one-worker reference.
type Backend struct {
	workers int
}

// NewBackend returns a Backend with the given worker count; a
// non-positive count selects GOMAXPROCS.
//
//pclint:ignore unreached test helper: bit-identity tests pin explicit worker counts; the program picks one through Select or Auto
func NewBackend(workers int) Backend {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return Backend{workers: workers}
}

// Backends lists the selectable backend names.
func Backends() []string { return []string{"scalar", "parallel"} }

// Select maps a backend name to a worker count: "scalar" is one worker;
// "parallel", "auto" and "" are Auto's count.
func Select(name string) (Backend, error) {
	switch name {
	case "", "auto", "parallel":
		return Auto(), nil
	case "scalar":
		return NewBackend(1), nil
	}
	return Backend{}, fmt.Errorf("tensor: unknown backend %q (have auto, %s)", name, strings.Join(Backends(), ", "))
}

// Auto is the startup default: one worker per CPU available to the
// process. The count affects scheduling only — outputs are bit-identical
// at any count — so it never needs to be pinned for correctness, only
// for benchmarking.
func Auto() Backend { return NewBackend(0) }

// Name is "scalar" for the one-worker reference and "parallel" above it.
func (bk Backend) Name() string {
	if bk.Workers() == 1 {
		return "scalar"
	}
	return "parallel"
}

// Workers reports the goroutine fan-out; 1 means strictly sequential
// execution on the calling goroutine.
func (bk Backend) Workers() int { return max(bk.workers, 1) }

// Work thresholds (in multiply-adds) below which a kernel stays on the
// calling goroutine: a goroutine spawn+join costs on the order of
// microseconds, so every shard must carry enough arithmetic to amortize
// it.
const (
	// matMulParallelThreshold gates column-sharding of MatMul and
	// MatVecT, which also computes the model's output head. The vector
	// body (two rows per weight load) finishes a shard so fast that a
	// goroutine spawn and join outweigh the split up to about 500 K
	// multiply-adds. Best of 60 runs of 200 products on a 2-vCPU Xeon, 1
	// worker inline vs 2 workers, in µs, two sessions:
	//
	//	rows × k × m      multiply-adds   inline      2 workers
	//	1 × 64 × 2308     148 K            9.1  9.1   10.8 10.6
	//	16 × 64 × 176     180 K            6.5  6.4    8.1  7.8
	//	64 × 64 × 64      262 K            9.3  9.3   12.0 11.5
	//	2 × 64 × 2308     295 K           13.1 13.1   15.9 14.8
	//	32 × 176 × 64     360 K           12.7 12.8   14.9 14.7
	//	96 × 64 × 64      393 K           14.0 14.0   15.8 15.3
	//	3 × 64 × 2308     443 K           22.3 22.3   25.3 21.7
	//	128 × 64 × 64     524 K           18.6 18.7   18.5 18.1
	//	48 × 64 × 176     541 K           19.4 19.4   19.6 19.2
	//	4 × 64 × 2308     591 K           26.2 26.2   25.0 25.6
	//	64 × 64 × 176     721 K           26.0 25.9   24.4 22.5
	//	5 × 64 × 2308     739 K           35.3 35.4   30.5 31.2
	//	8 × 64 × 2308     1.18 M          52.5 52.6   41.8 44.3
	//
	// So one- to three-row heads run inline, while a verify step's wider
	// head and prefill blocks from about 48 (FFN) or 128 (attention
	// projection) rows up shard.
	matMulParallelThreshold = 512 * 1024
	// outputHeadParallelThreshold gates vocab-sharding of the reference
	// OutputHead (vocab × dim × lanes).
	outputHeadParallelThreshold = 32 * 1024
	// attendParallelThreshold gates unit-sharding of an attention row
	// block, counted as score+combine multiply-adds. Measured on a 2-vCPU
	// Xeon: in isolation a 1-row decode step over 512 keys ran 40 %
	// slower with its attention sharded than inline, yet raising the
	// threshold to 1 M multiply-adds moved no doc_qa.cached metric beyond
	// its bound (4 paired runs), so the constant stays.
	attendParallelThreshold = 32 * 1024
)

// Shard runs fn over [0, n) split into contiguous ranges, one per worker
// goroutine; one worker runs fn(0, n) inline. It is for callers whose
// ranges are independent and each heavy enough to amortize a goroutine.
func (bk Backend) Shard(n int, fn func(lo, hi int)) { shard(n, bk.workers, fn) }

// shard runs fn over [0, n) split into contiguous ranges across at most
// workers goroutines (one range per worker, the last possibly short).
// workers <= 1 or n <= 1 runs inline.
//
// Every range gets its own goroutine while the caller waits. Measured on
// a 2-vCPU Xeon: a goroutine or pthread handed to an idle vCPU starts
// only after about the creator's own share of work, for tasks up to
// 2 ms, so a fan-out of short tasks gains little; yet running the first
// range on the calling goroutine instead cost decode.long 5 % out_tok_s
// (6 paired runs: 2 better, 4 worse).
func shard(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// boundedWorkers caps the fan-out so each shard carries at least
// minWork multiply-adds of the given total.
func boundedWorkers(workers, totalWork, minWork int) int {
	if totalWork < minWork || workers <= 1 {
		return 1
	}
	if maxW := totalWork / minWork; workers > maxW {
		workers = maxW
	}
	return workers
}

// MatMul computes dst = a × b (a: n×k, b: k×m, dst: n×m, no aliasing).
// Each element is one sum over k ascending, whatever n is, so a row's
// result never depends on how many rows share the call: a weight
// application gives the same bits one position at a time or a whole
// block at once.
func (bk Backend) MatMul(dst, a, b *Matrix) {
	checkMatMul(dst, a, b)
	bk.matMul(dst, a, b)
}

// MatVecT computes dst = Wᵀ·h for W stored (in × out):
// dst[j] = Σ_i W[i][j]·h[i] — MatMul with a one-row a, the same sums.
func (bk Backend) MatVecT(dst []float32, w *Matrix, h []float32) {
	checkMatVecT(dst, w, h)
	bk.matMul(rowOf(dst), rowOf(h), w)
}

// matMul shards dst = a×b by output columns, in runs of eight so only
// the last shard has a ragged run: each worker computes its columns of
// every row, reading only its stripe of b, and each element is still
// the one ascending sum — the boundary slices the output, never the
// reduction. Columns rather than rows, so a one-row decode step and a
// many-row prefill split the same way.
func (bk Backend) matMul(dst, a, b *Matrix) {
	workers := boundedWorkers(bk.workers, a.Rows*a.Cols*b.Cols, matMulParallelThreshold)
	if workers <= 1 {
		matMulRange(dst, a, b, 0, b.Cols)
		return
	}
	shard((b.Cols+7)/8, workers, func(lo, hi int) { matMulRange(dst, a, b, 8*lo, min(8*hi, b.Cols)) })
}

// OutputHead computes the tied output head one dot product at a time:
// dsts[k][t] = Dot(emb.Row(t), hs[k]) for every vocab row t and lane k.
// Serving never runs it: the model keeps the embedding transposed and
// computes its logits with MatMul, whose sums are these, bit for bit. It
// stays as that head's reference and as the kernel benchmark's
// tensor.output_head probe. Workers split the vocabulary.
func (bk Backend) OutputHead(dsts [][]float32, emb *Matrix, hs [][]float32) {
	checkOutputHead(dsts, emb, hs)
	workers := boundedWorkers(bk.workers, emb.Rows*emb.Cols*len(hs), outputHeadParallelThreshold)
	shard(emb.Rows, workers, func(lo, hi int) {
		for k, h := range hs {
			d := dsts[k]
			for t := lo; t < hi; t++ {
				d[t] = Dot(emb.Row(t), h)
			}
		}
	})
}

// attendScores pools per-worker score buffers for sharded attention;
// the caller-provided scratch only serves the sequential path.
var attendScores = sync.Pool{New: func() any { return new([]float32) }}

// AttendRowBlock computes causal multi-head attention for a block of
// query rows over segmented KV spans; see AttendArgs. Workers split the
// (query tile, KV head) units.
func (bk Backend) AttendRowBlock(a *AttendArgs) {
	checkAttendArgs(a)
	n := a.Q.Rows
	// Score + combine work across the block: token i touches Past+i+1
	// rows twice per head, HeadDim wide.
	rowSum := n*a.Past + n*(n+1)/2
	workers := boundedWorkers(bk.workers, 2*rowSum*a.HeadDim*a.NHeads, attendParallelThreshold)
	units := attendUnitCount(a)
	if workers <= 1 {
		attendUnits(a, a.Scores, 0, units)
		return
	}
	// Contiguous ranges of tile-major units: a worker owns whole query
	// tiles unless there are fewer tiles than workers. Splitting one row's
	// heads across workers makes them write adjacent output columns, the
	// same cache lines, once per key.
	size := min(attendTile, n) * a.Group * (a.Past + n)
	shard(units, workers, func(lo, hi int) {
		buf := attendScores.Get().(*[]float32)
		if cap(*buf) < size {
			*buf = make([]float32, size)
		}
		attendUnits(a, (*buf)[:size], lo, hi)
		attendScores.Put(buf)
	})
}

// Span is one contiguous run of cached KV rows, mirroring
// kvcache.Segment without importing it (kvcache sits above tensor).
// K and V hold len(Pos) rows of the owning cache's KV width; Pos holds
// the explicit position IDs those rows were recorded at.
type Span struct {
	K, V []float32
	Pos  []int
}

// AttendArgs describes one AttendRowBlock call: causal multi-head
// attention for n = Q.Rows query tokens over the KV rows in Spans.
// Query token i (cache row Past+i, position Positions[i]) attends over
// rows [0, Past+i+1) — the chunk-prefill causal clamp; a single decode
// step is the n=1, Past=rows-1 special case.
//
// The independent unit of work is (query tile, KV head): up to T = 8
// consecutive query rows × the Group query heads sharing one KV head.
// Every (token, head) pair of a unit reads the same K and V rows, so the
// unit is where those loads are shared. Workers may compute units in
// any order or concurrently. Within a pair the arithmetic is fixed, stage by stage:
// each score is one ascending sum over the head dimension times InvSqrt,
// minus the ALiBi bias; the softmax takes the max of the pair's own
// causal scores, e = exp(s−max) with the float32 sum of the e ascending,
// and w = e·(1/sum); the weighted-V combine adds w·V rows in span order,
// ascending, skipping w == 0. Softmax and V accumulation are never split
// across keys. A body may fuse the stages — track the max while scoring,
// form each w as the combine loads it — as long as every score, e and w
// is the same float32 the staged order computes (a zero max may change
// sign, since e = exp(s−max) does not).
type AttendArgs struct {
	Q, Out *Matrix // n × (NHeads·HeadDim); Out rows are overwritten
	Spans  []Span
	// Past counts cache rows preceding this block's first token.
	Past      int
	Positions []int // query position IDs, len n

	NHeads  int
	Group   int // query heads per KV head (GQA); 1 for MHA
	HeadDim int
	Width   int     // KV row width = NKVHeads·HeadDim
	InvSqrt float32 // 1/sqrt(HeadDim), the score scale

	// AlibiSlopes, when non-nil, enables the ALiBi bias
	// -slope[h]·max(0, qPos-p) computed from explicit position IDs.
	AlibiSlopes []float32

	// Scores is caller scratch for sequential execution; parallel workers
	// substitute pooled buffers. It holds one score row of up to
	// Past+Q.Rows floats per pair of a unit, so a unit runs in one pass
	// when len >= min(T, Q.Rows)·Group·(Past+Q.Rows). The minimum is
	// Past+Q.Rows: shorter scratch splits a unit's pairs into passes,
	// which gives the same bits but reads K and V once per pass.
	Scores []float32
}

// attendTile is T, the query rows of one attention unit. A unit is
// (query tile, KV head): its pairs are the tile's rows × the Group query
// heads sharing that KV head, all reading that head's K and V rows.
const attendTile = 8

// attendPassPairs caps the pairs one pass over a unit's keys carries, so
// the per-pair slice headers live in fixed arrays on the stack.
const attendPassPairs = 32

// attendUnits computes units [lo, hi) of an attention row block in
// tile-major order: unit u is query tile u/nKV with KV head u%nKV. This
// is the one attention body; worker counts differ only in how they
// split units across goroutines.
func attendUnits(a *AttendArgs, scores []float32, lo, hi int) {
	nKV := a.NHeads / a.Group
	for u := lo; u < hi; u++ {
		i0 := (u / nKV) * attendTile
		attendUnit(a, scores, i0, min(i0+attendTile, a.Q.Rows), u%nKV)
	}
}

// attendUnitCount is the number of (query tile, KV head) units in a.
func attendUnitCount(a *AttendArgs) int {
	return (a.Q.Rows + attendTile - 1) / attendTile * (a.NHeads / a.Group)
}

// attendPass is one pass over a unit's keys for up to attendPassPairs
// pairs, ordered row-major (query row, then head within the group). Pair
// p's causal row count rows[p] is therefore nondecreasing in p, so the
// pairs that cover key r are always a suffix of the pass, and every pair
// covers keys [0, rows[0]).
type attendPass struct {
	q, s, o  [attendPassPairs][]float32 // query head, score row, output head
	rows     [attendPassPairs]int
	max, inv [attendPassPairs]float32 // score max, then 1/Σe
	n        int
}

// attendUnit computes query rows [i0, i1) × the query heads of KV head g.
// Each pair's score row takes Past+i1 floats of scratch; when scores
// holds fewer than every pair's row, the pairs run in several passes.
//
// A pass walks each pair's scores three times where the staged order
// walks them five: score stores the scaled scores and keeps their max
// (the ALiBi walk, when on, biases them and takes the max instead);
// expSum turns them into e = exp(s−max) and sums them; combine forms
// each weight w = e·inv as it loads it, the product the staged
// normalize pass would have stored. The max is the staged scan's: kept
// with the same `s > max` test in the same ascending order, but seeded
// from -Inf rather than s[0]. The two differ only when s[0] is NaN, and
// then the pass takes s[0] as the max, as the scan would. The vector
// score bodies keep it per lane instead (see foldLanes), which can flip
// the sign of a zero max and no weight.
func attendUnit(a *AttendArgs, scores []float32, i0, i1, g int) {
	hd, stride, base := a.HeadDim, a.Past+i1, g*a.HeadDim
	perPass := min(len(scores)/stride, attendPassPairs)
	if perPass < 1 {
		panic(fmt.Sprintf("tensor: AttendRowBlock scratch %d < %d rows", len(scores), stride))
	}
	pairs := (i1 - i0) * a.Group
	for p0 := 0; p0 < pairs; p0 += perPass {
		var ps attendPass
		ps.n = min(perPass, pairs-p0)
		for p := 0; p < ps.n; p++ {
			i, h := i0+(p0+p)/a.Group, g*a.Group+(p0+p)%a.Group
			rows := a.Past + i + 1
			ps.q[p] = a.Q.Row(i)[h*hd : (h+1)*hd]
			ps.o[p] = a.Out.Row(i)[h*hd : (h+1)*hd]
			ps.s[p] = scores[p*stride : p*stride+rows]
			ps.rows[p] = rows
		}
		ps.score(a, base)
		for p := 0; p < ps.n; p++ {
			s := ps.s[p]
			if a.AlibiSlopes != nil {
				i, h := i0+(p0+p)/a.Group, g*a.Group+(p0+p)%a.Group
				ps.max[p] = alibi(a, s, a.Positions[i], a.AlibiSlopes[h])
			}
			if m := s[0]; m != m {
				ps.max[p] = m
			}
			ps.inv[p] = 1 / expSum(s, ps.max[p])
		}
		ps.combine(a, base)
	}
}

// score writes s[p][r] = (q[p]·K[r])·InvSqrt for every pair and causal
// key, and max[p], their max. Each score is one ascending sum over the
// head dimension, whichever kernel computes it. The keys every pair
// covers, [0, rows[0]), go four pairs at a time through score4 on the
// vector path, then two at a time through scoreRow2 (an odd last pair
// through scoreRow); a decode step's one or two pairs take scoreRow2
// over every key. The causal tail [rows[0], rows[n-1]) — under T keys —
// goes key by key over the pairs that cover it.
func (ps *attendPass) score(a *AttendArgs, base int) {
	hd, width, inv := a.HeadDim, a.Width, a.InvSqrt
	n, first, last := ps.n, ps.rows[0], ps.rows[ps.n-1]
	p := 0
	if attendVector && hd%8 == 0 {
		for ; p+4 <= n; p += 4 {
			ps.score4(a, base, p, first)
		}
	}
	for ; p+2 <= n; p += 2 {
		ps.max[p], ps.max[p+1] = scoreRow2(a, base, ps.q[p], ps.q[p+1], ps.s[p][:first], ps.s[p+1][:first])
	}
	if p < n {
		ps.max[p] = scoreRow(a, base, ps.q[p], ps.s[p][:first])
	}
	lo, off := 0, 0
	for _, sp := range a.Spans {
		if off >= last {
			break
		}
		lim := min(len(sp.Pos), last-off)
		for j := max(first-off, 0); j < lim; j++ {
			r := off + j
			for ps.rows[lo] <= r {
				lo++
			}
			k := sp.K[j*width+base : j*width+base+hd]
			for p := lo; p < n; p++ {
				v := Dot(ps.q[p], k) * inv
				ps.s[p][r] = v
				if v > ps.max[p] {
					ps.max[p] = v
				}
			}
		}
		off += lim
	}
}

// scoreRow writes one pair's scaled scores for keys [0, len(s)), four
// keys per Dot4 call, and returns their max. With the vector body, each
// span's whole blocks of 8 keys go through scoreBlocksAVX2 instead, and
// the fewer than 8 left through the Go loops on the same 4-key grid.
func scoreRow(a *AttendArgs, base int, q, s []float32) float32 {
	hd, width, inv := a.HeadDim, a.Width, a.InvSqrt
	m := float32(math.Inf(-1))
	vec := attendVector && hd%8 == 0
	var lanes [8]float32
	if vec {
		for i := range lanes {
			lanes[i] = m
		}
	}
	off := 0
	for _, sp := range a.Spans {
		if off >= len(s) {
			break
		}
		lim := min(len(sp.Pos), len(s)-off)
		k, t := sp.K, s[off:off+lim]
		j := 0
		if vec && lim >= 8 {
			j = lim &^ 7
			scoreBlocksAVX2(t[:j], q, k[base:(j-1)*width+base+hd], width, inv, &lanes)
		}
		for ; j+4 <= lim; j += 4 {
			r := j*width + base
			d0, d1, d2, d3 := Dot4(q, k[r:r+hd], k[r+width:r+width+hd],
				k[r+2*width:r+2*width+hd], k[r+3*width:r+3*width+hd])
			t[j], t[j+1], t[j+2], t[j+3] = d0*inv, d1*inv, d2*inv, d3*inv
			m = max4(m, t[j], t[j+1], t[j+2], t[j+3])
		}
		for ; j < lim; j++ {
			r := j*width + base
			t[j] = Dot(q, k[r:r+hd]) * inv
			if t[j] > m {
				m = t[j]
			}
		}
		off += lim
	}
	if vec {
		m = foldLanes(m, lanes[:])
	}
	return m
}

// scoreRow2 is scoreRow for two pairs: dot2x4 scores both query heads
// against four keys in one walk over the head dimension, and
// scoreBlocks2AVX2 against eight.
func scoreRow2(a *AttendArgs, base int, q0, q1, s0, s1 []float32) (m0, m1 float32) {
	hd, width, inv := a.HeadDim, a.Width, a.InvSqrt
	m0, m1 = float32(math.Inf(-1)), float32(math.Inf(-1))
	vec := attendVector && hd%8 == 0
	var lanes [16]float32
	if vec {
		for i := range lanes {
			lanes[i] = m0
		}
	}
	off := 0
	for _, sp := range a.Spans {
		if off >= len(s0) {
			break
		}
		lim := min(len(sp.Pos), len(s0)-off)
		t0, t1 := s0[off:off+lim], s1[off:off+lim]
		j := 0
		if vec && lim >= 8 {
			j = lim &^ 7
			scoreBlocks2AVX2(t0[:j], t1[:j], q0, q1, sp.K[base:(j-1)*width+base+hd], width, inv, &lanes)
		}
		m0, m1 = scoreKeys2(a, base, sp.K, q0, q1, t0, t1, j, m0, m1)
		off += lim
	}
	if vec {
		m0, m1 = foldLanes(m0, lanes[:8]), foldLanes(m1, lanes[8:])
	}
	return m0, m1
}

// scoreKeys2 is scoreRow2's Go body over keys [j, len(t0)) of one span
// (K rows k): it writes both pairs' scaled scores into t0 and t1 and
// folds them into the running maxima m0 and m1.
func scoreKeys2(a *AttendArgs, base int, k, q0, q1, t0, t1 []float32, j int, m0, m1 float32) (float32, float32) {
	hd, width, inv, lim := a.HeadDim, a.Width, a.InvSqrt, len(t0)
	t1 = t1[:lim]
	for ; j+4 <= lim; j += 4 {
		a0, a1, a2, a3, b0, b1, b2, b3 := dot2x4(q0, q1, k[j*width+base:], width)
		t0[j], t0[j+1], t0[j+2], t0[j+3] = a0*inv, a1*inv, a2*inv, a3*inv
		t1[j], t1[j+1], t1[j+2], t1[j+3] = b0*inv, b1*inv, b2*inv, b3*inv
		m0 = max4(m0, t0[j], t0[j+1], t0[j+2], t0[j+3])
		m1 = max4(m1, t1[j], t1[j+1], t1[j+2], t1[j+3])
	}
	for ; j < lim; j++ {
		r := j*width + base
		d0, d1 := Dot2(k[r:r+hd], q0, q1)
		t0[j], t1[j] = d0*inv, d1*inv
		if t0[j] > m0 {
			m0 = t0[j]
		}
		if t1[j] > m1 {
			m1 = t1[j]
		}
	}
	return m0, m1
}

// score4 scores pairs p…p+3 of the pass over the keys every pair covers,
// [0, first), on the vector path: each span's whole blocks of 8 keys go
// through scoreBlocks4AVX2, one transpose per block for all four query
// heads. A block it hands back (a NaN in the lanes of keys 3 and 7, where
// dot2x4's compiled order differs) goes through scoreBlocks2AVX2 for
// pairs p, p+1 and then p+2, p+3, and the fewer than 8 keys after the
// last block through scoreKeys2, so every score is the one scoreRow2
// computes.
func (ps *attendPass) score4(a *AttendArgs, base, p, first int) {
	hd, width, inv := a.HeadDim, a.Width, a.InvSqrt
	var q, s [4][]float32 // s cut to [:first], the most the vector body writes
	for i := range s {
		q[i], s[i] = ps.q[p+i], ps.s[p+i][:first]
	}
	var lanes [32]float32
	for i := range lanes {
		lanes[i] = float32(math.Inf(-1))
	}
	m := [4]float32{lanes[0], lanes[0], lanes[0], lanes[0]}
	off := 0
	for _, sp := range a.Spans {
		if off >= first {
			break
		}
		lim := min(len(sp.Pos), first-off)
		end := lim &^ 7
		for j := 0; j < end; {
			j += scoreBlocks4AVX2(&s, &q, off+j, end-j, sp.K[j*width+base:(end-1)*width+base+hd], width, inv, &lanes)
			if j < end {
				k := sp.K[j*width+base : (j+7)*width+base+hd]
				t := off + j
				scoreBlocks2AVX2(s[0][t:t+8], s[1][t:t+8], q[0], q[1], k, width, inv, (*[16]float32)(lanes[:16]))
				scoreBlocks2AVX2(s[2][t:t+8], s[3][t:t+8], q[2], q[3], k, width, inv, (*[16]float32)(lanes[16:]))
				j += 8
			}
		}
		for i := 0; i < 4; i += 2 {
			m[i], m[i+1] = scoreKeys2(a, base, sp.K, q[i], q[i+1], s[i][off:off+lim], s[i+1][off:off+lim], end, m[i], m[i+1])
		}
		off += lim
	}
	for i, v := range m {
		ps.max[p+i] = foldLanes(v, lanes[8*i:8*i+8])
	}
}

// foldLanes folds the vector score bodies' per-lane maxima into m with
// the `>` test. Lane l keeps the max of the keys j ≡ l (mod 8) by
// VMAXPS(new, max), which takes the new score exactly when it is
// greater, so NaN is skipped as the ascending scan skips it. The result
// can differ from that scan only in the sign of a zero max (+0 and -0
// compare equal, and which one comes first differs); the max is used
// only in exp32(s−max), where s−(+0) and s−(−0) differ only for s = ±0,
// and exp32(±0) = 1, so no weight changes.
func foldLanes(m float32, lanes []float32) float32 {
	for _, v := range lanes {
		if v > m {
			m = v
		}
	}
	return m
}

// dot2x4 is the 2 × 4 register tile: the dot products of the query heads
// q0 and q1 with the four K heads k[i·width:][:len(q0)], in one walk over
// the head dimension that loads each K element once for both. Each of the
// eight sums is its own ascending accumulation.
func dot2x4(q0, q1, k []float32, width int) (a0, a1, a2, a3, b0, b1, b2, b3 float32) {
	hd := len(q0)
	q1 = q1[:hd]
	k0, k1, k2, k3 := k[:hd], k[width:][:hd], k[2*width:][:hd], k[3*width:][:hd]
	for d, x := range q0 {
		y := q1[d]
		a0 += float32(x * k0[d])
		a1 += float32(x * k1[d])
		a2 += float32(x * k2[d])
		a3 += float32(x * k3[d])
		b0 += float32(y * k0[d])
		b1 += float32(y * k1[d])
		b2 += float32(y * k2[d])
		b3 += float32(y * k3[d])
	}
	return
}

// max4 folds v0…v3, in order, into the running max m with the staged
// scan's `v > m` test (so NaN is skipped and -0 does not displace +0;
// the builtin max does neither).
func max4(m, v0, v1, v2, v3 float32) float32 {
	if v0 > m {
		m = v0
	}
	if v1 > m {
		m = v1
	}
	if v2 > m {
		m = v2
	}
	if v3 > m {
		m = v3
	}
	return m
}

// alibi subtracts the ALiBi bias from one pair's scaled scores and
// returns their max. The bias comes from explicit position IDs (§4.2):
// the classic -slope·distance, where distance uses the recorded
// positions, not array indices, so module gaps behave like the paper's
// "white space".
func alibi(a *AttendArgs, s []float32, qPos int, slope float32) float32 {
	m := float32(math.Inf(-1))
	off := 0
	for _, sp := range a.Spans {
		if off >= len(s) {
			break
		}
		lim := min(len(sp.Pos), len(s)-off)
		for j, p := range sp.Pos[:lim] {
			dist := qPos - p
			if dist < 0 {
				dist = 0
			}
			s[off+j] -= float32(slope * float32(dist))
			if s[off+j] > m {
				m = s[off+j]
			}
		}
		off += lim
	}
	return m
}

// combine writes o[p] = Σ_r (s[p][r]·inv[p])·V[r] for every pair: each
// weight is formed as it is loaded, each output accumulates over keys in
// ascending order and skips w == 0 (adding 0·v could turn -0 into +0 or
// an Inf into NaN). Like score, it goes over the keys every pair covers
// four pairs at a time through combine4 (vector path, head dims 8 and
// 16), then two at a time through combineRow2 (an odd last pair through
// combineRow), then key by key over the causal tail.
func (ps *attendPass) combine(a *AttendArgs, base int) {
	hd, width := a.HeadDim, a.Width
	n, first, last := ps.n, ps.rows[0], ps.rows[ps.n-1]
	p := 0
	if attendVector && (hd == 8 || hd == 16) {
		for ; p+4 <= n; p += 4 {
			ps.combine4(a, base, p, first)
		}
	}
	for ; p+2 <= n; p += 2 {
		combineRow2(a, base, ps.o[p], ps.o[p+1], ps.s[p][:first], ps.s[p+1][:first], ps.inv[p], ps.inv[p+1])
	}
	if p < n {
		combineRow(a, base, ps.o[p], ps.s[p][:first], ps.inv[p])
	}
	lo, off := 0, 0
	for _, sp := range a.Spans {
		if off >= last {
			break
		}
		lim := min(len(sp.Pos), last-off)
		for j := max(first-off, 0); j < lim; j++ {
			r := off + j
			for ps.rows[lo] <= r {
				lo++
			}
			vr := sp.V[j*width+base : j*width+base+hd]
			for p := lo; p < n; p++ {
				axpy(ps.o[p], ps.s[p][r]*ps.inv[p], vr)
			}
		}
		off += lim
	}
}

// combineRow overwrites o with Σ_r (s[r]·inv)·V[r] over keys [0, len(s))
// for one pair. Four keys at a time, an output element takes the four
// adds in one visit — the same adds in the same order; if one of the
// four weights is 0, the keys go through axpy instead, which skips it.
// With the vector body, each span's whole groups of 4 keys go through
// combineAVX2, which makes the same choice per group.
func combineRow(a *AttendArgs, base int, o, s []float32, inv float32) {
	hd, width := a.HeadDim, a.Width
	vec := attendVector && hd%8 == 0
	clear(o)
	off := 0
	for _, sp := range a.Spans {
		if off >= len(s) {
			break
		}
		lim := min(len(sp.Pos), len(s)-off)
		v, t := sp.V, s[off:off+lim]
		j := 0
		if vec && lim >= 4 {
			j = lim &^ 3
			combineAVX2(o, t[:j], v[base:(j-1)*width+base+hd], width, inv)
		}
		for ; j+4 <= lim; j += 4 {
			r := j*width + base
			v0, v1 := v[r:][:len(o)], v[r+width:][:len(o)]
			v2, v3 := v[r+2*width:][:len(o)], v[r+3*width:][:len(o)]
			w0, w1, w2, w3 := t[j]*inv, t[j+1]*inv, t[j+2]*inv, t[j+3]*inv
			if w0 == 0 || w1 == 0 || w2 == 0 || w3 == 0 {
				axpy(o, w0, v0)
				axpy(o, w1, v1)
				axpy(o, w2, v2)
				axpy(o, w3, v3)
				continue
			}
			for d, x := range o {
				x += float32(w0 * v0[d])
				x += float32(w1 * v1[d])
				x += float32(w2 * v2[d])
				x += float32(w3 * v3[d])
				o[d] = x
			}
		}
		for ; j < lim; j++ {
			axpy(o, t[j]*inv, v[j*width+base:j*width+base+hd])
		}
		off += lim
	}
}

// combineRow2 is combineRow for two pairs: axpy2x4 adds four keys' V
// rows into both outputs in one walk. If any of the eight weights is 0,
// the four keys go through axpy instead, which skips it. With the vector
// body, each span's whole groups of 4 keys go through combine2AVX2.
func combineRow2(a *AttendArgs, base int, o0, o1, s0, s1 []float32, inv0, inv1 float32) {
	hd, width := a.HeadDim, a.Width
	vec := attendVector && hd%8 == 0
	clear(o0)
	clear(o1)
	off := 0
	for _, sp := range a.Spans {
		if off >= len(s0) {
			break
		}
		lim := min(len(sp.Pos), len(s0)-off)
		t0, t1 := s0[off:off+lim], s1[off:off+lim]
		j := 0
		if vec && lim >= 4 {
			j = lim &^ 3
			combine2AVX2(o0, o1, t0[:j], t1[:j], sp.V[base:(j-1)*width+base+hd], width, inv0, inv1)
		}
		combineKeys2(a, base, sp.V, o0, o1, t0, t1, j, inv0, inv1)
		off += lim
	}
}

// combineKeys2 is combineRow2's Go body over keys [j, len(t0)) of one
// span (V rows v): it adds both pairs' weighted V rows into o0 and o1.
func combineKeys2(a *AttendArgs, base int, v, o0, o1, t0, t1 []float32, j int, inv0, inv1 float32) {
	hd, width, lim := a.HeadDim, a.Width, len(t0)
	t1 = t1[:lim]
	for ; j+4 <= lim; j += 4 {
		r := j*width + base
		w0, w1, w2, w3 := t0[j]*inv0, t0[j+1]*inv0, t0[j+2]*inv0, t0[j+3]*inv0
		u0, u1, u2, u3 := t1[j]*inv1, t1[j+1]*inv1, t1[j+2]*inv1, t1[j+3]*inv1
		if w0 == 0 || w1 == 0 || w2 == 0 || w3 == 0 || u0 == 0 || u1 == 0 || u2 == 0 || u3 == 0 {
			for i, w := range [4]float32{w0, w1, w2, w3} {
				axpy(o0, w, v[r+i*width:r+i*width+hd])
			}
			for i, u := range [4]float32{u0, u1, u2, u3} {
				axpy(o1, u, v[r+i*width:r+i*width+hd])
			}
			continue
		}
		axpy2x4(o0, o1, v[r:], width, w0, w1, w2, w3, u0, u1, u2, u3)
	}
	for ; j < lim; j++ {
		vr := v[j*width+base : j*width+base+hd]
		axpy(o0, t0[j]*inv0, vr)
		axpy(o1, t1[j]*inv1, vr)
	}
}

// combine4 writes the outputs of pairs p…p+3 of the pass over the keys
// every pair covers, [0, first), on the vector path at head dims 8 and
// 16: each span's whole groups of 4 keys go through combine4AVX2, which
// keeps the four outputs in registers and loads each V row once for all
// of them. A group it hands back (a zero weight in one of the four
// pairs) goes through combine2AVX2 for pairs p, p+1 and then p+2, p+3,
// and the fewer than 4 keys after the last group through combineKeys2,
// so every output takes the adds combineRow2 makes, in its order.
func (ps *attendPass) combine4(a *AttendArgs, base, p, first int) {
	hd, width := a.HeadDim, a.Width
	var o, t [4][]float32 // t cut to [:first], the most the vector body reads
	for i := range o {
		o[i], t[i] = ps.o[p+i], ps.s[p+i][:first]
		clear(o[i])
	}
	inv := (*[4]float32)(ps.inv[p : p+4])
	off := 0
	for _, sp := range a.Spans {
		if off >= first {
			break
		}
		lim := min(len(sp.Pos), first-off)
		end := lim &^ 3
		for j := 0; j < end; {
			j += combine4AVX2(&o, &t, off+j, end-j, sp.V[j*width+base:(end-1)*width+base+hd], width, inv)
			if j < end {
				v, r := sp.V[j*width+base:(j+3)*width+base+hd], off+j
				combine2AVX2(o[0], o[1], t[0][r:r+4], t[1][r:r+4], v, width, inv[0], inv[1])
				combine2AVX2(o[2], o[3], t[2][r:r+4], t[3][r:r+4], v, width, inv[2], inv[3])
				j += 4
			}
		}
		for i := 0; i < 4; i += 2 {
			combineKeys2(a, base, sp.V, o[i], o[i+1], t[i][off:off+lim], t[i+1][off:off+lim], end, inv[i], inv[i+1])
		}
		off += lim
	}
}

// axpy2x4 is the combine's 2 × 4 register tile: it adds w·V and u·V for
// the four V heads v[i·width:][:len(o0)] into the outputs o0 and o1,
// loading each V element once for both. Each output element takes its
// four adds in ascending key order, as four axpy calls would.
func axpy2x4(o0, o1, v []float32, width int, w0, w1, w2, w3, u0, u1, u2, u3 float32) {
	hd := len(o0)
	o1 = o1[:hd]
	v0, v1, v2, v3 := v[:hd], v[width:][:hd], v[2*width:][:hd], v[3*width:][:hd]
	for d, x := range o0 {
		e0, e1, e2, e3 := v0[d], v1[d], v2[d], v3[d]
		x += float32(w0 * e0)
		x += float32(w1 * e1)
		x += float32(w2 * e2)
		x += float32(w3 * e3)
		o0[d] = x
		y := o1[d]
		y += float32(u0 * e0)
		y += float32(u1 * e1)
		y += float32(u2 * e2)
		y += float32(u3 * e3)
		o1[d] = y
	}
}

// axpy computes o += w·v, skipping w == 0.
func axpy(o []float32, w float32, v []float32) {
	if w == 0 {
		return
	}
	v = v[:len(o)]
	for t := range o {
		o[t] += float32(w * v[t])
	}
}

func checkAttendArgs(a *AttendArgs) {
	if a.Q.Rows != a.Out.Rows || len(a.Positions) != a.Q.Rows {
		panic(fmt.Sprintf("tensor: AttendRowBlock q=%d out=%d positions=%d rows",
			a.Q.Rows, a.Out.Rows, len(a.Positions)))
	}
}

func checkOutputHead(dsts [][]float32, emb *Matrix, hs [][]float32) {
	if len(dsts) != len(hs) {
		panic(fmt.Sprintf("tensor: OutputHead %d dsts for %d lanes", len(dsts), len(hs)))
	}
	for k := range hs {
		if len(hs[k]) != emb.Cols || len(dsts[k]) != emb.Rows {
			panic(fmt.Sprintf("tensor: OutputHead lane %d shapes h=%d dst=%d emb=%dx%d",
				k, len(hs[k]), len(dsts[k]), emb.Rows, emb.Cols))
		}
	}
}
