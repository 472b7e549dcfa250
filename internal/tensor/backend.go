package tensor

import (
	"fmt"
	"os"
	"runtime"
	"strings"
)

// Backend is the kernel dispatch surface the transformer engine runs on.
// Every hot loop in internal/model bottoms out in one of these methods,
// so a Backend is the unit of hardware specialization: the scalar
// backend is the single-threaded reference implementation, the parallel
// backend tiles the same arithmetic across goroutines, and a future
// accelerator backend would slot in behind the same interface.
//
// The contract every implementation must honor is bit-identity: for any
// input, every output element must be bit-for-bit equal to what the
// scalar reference produces (compare with math.Float32bits, not a
// tolerance). The only freedom a backend has is scheduling — which
// worker computes which independent unit of output (a matrix row range,
// a vocab range, an attention (query tile, KV head) unit), and in what
// order whole units complete. Inside a reduction (a dot product, a
// softmax sum, a norm accumulator) the reference accumulation order is
// part of the contract and must not change, because float addition is
// not associative in rounding. This is what lets golden-logits tests,
// the fused ≡ solo decode guarantee and cross-machine cache reuse hold
// regardless of which backend served a request.
type Backend interface {
	// Name identifies the backend ("scalar", "parallel").
	Name() string
	// Workers reports the goroutine fan-out the backend may use; 1 means
	// strictly sequential execution on the calling goroutine.
	Workers() int

	// MatMul computes dst = a × b (a: n×k, b: k×m, dst: n×m, no aliasing).
	MatMul(dst, a, b *Matrix)
	// MatVec computes dst = m × v (row-major dot products).
	MatVec(dst []float32, m *Matrix, v []float32)
	// MatVecT computes dst = Wᵀ·h for W stored (in × out):
	// dst[j] = Σ_i W[i][j]·h[i], accumulated over i ascending.
	MatVecT(dst []float32, w *Matrix, h []float32)

	// Dot/Dot2/Dot4 are the row-block reduction kernels (one pass over a,
	// 1/2/4 bit-identical sums). Reductions are never parallelized.
	Dot(a, b []float32) float32
	Dot2(a, b0, b1 []float32) (float32, float32)
	Dot4(a, b0, b1, b2, b3 []float32) (float32, float32, float32, float32)

	// AttendRowBlock computes causal multi-head attention for a block of
	// query rows over segmented KV spans; see AttendArgs.
	AttendRowBlock(a *AttendArgs)
	// OutputHead computes the tied output head for a batch of normed
	// hidden states: dsts[k][t] = emb.Row(t) · hs[k] for every vocab row
	// t and lane k, reading each embedding row once per lane group.
	OutputHead(dsts [][]float32, emb *Matrix, hs [][]float32)

	// Elementwise kernels; identical scalar code in every backend, on the
	// interface so a device backend can keep the whole pass resident.
	Softmax(x []float32)
	RMSNorm(dst, x, weight []float32, eps float32)
	LayerNorm(dst, x, gamma, beta []float32, eps float32)
	SiLU(x []float32)
	GELU(x []float32)
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
// A unit reads each of its K and V rows once for all of its
// (token, head) pairs. Backends may compute units in any order or
// concurrently. Within a pair the order is fixed: each score is one
// ascending sum over the head dimension, the softmax covers the pair's
// own causal rows, and the weighted-V combine adds rows in span order,
// ascending, skipping w == 0. Softmax and V accumulation are never split
// across keys.
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
// heads sharing that KV head, and it reads each of the head's K and V
// rows once for all of them.
const attendTile = 8

// attendPassPairs caps the pairs one pass over a unit's keys carries, so
// the per-pair slice headers live in fixed arrays on the stack.
const attendPassPairs = 32

// attendUnits computes units [lo, hi) of an attention row block in
// tile-major order: unit u is query tile u/nKV with KV head u%nKV. This
// is the one attention body; backends differ only in how they split
// units across goroutines.
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
// pairs that cover key r are always a suffix of the pass.
type attendPass struct {
	q, s, o [attendPassPairs][]float32 // query head, score row, output head
	rows    [attendPassPairs]int
	n       int
}

// attendUnit computes query rows [i0, i1) × the query heads of KV head g.
// Each pair's score row takes Past+i1 floats of scratch; when scores
// holds fewer than every pair's row, the pairs run in several passes.
func attendUnit(a *AttendArgs, scores []float32, i0, i1, g int) {
	hd, stride := a.HeadDim, a.Past+i1
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
		ps.score(a, g*hd)
		for p := 0; p < ps.n; p++ {
			if a.AlibiSlopes != nil {
				i, h := i0+(p0+p)/a.Group, g*a.Group+(p0+p)%a.Group
				alibi(a, ps.s[p], a.Positions[i], a.AlibiSlopes[h])
			}
			Softmax(ps.s[p])
		}
		ps.combine(a, g*hd)
	}
}

// score writes s[p][r] = (q[p]·K[r])·InvSqrt for every pair and causal
// key. Each score is one ascending sum over the head dimension, whichever
// of Dot4/Dot2/Dot computes it; IEEE multiplication commutes, so
// Dot4(k, q0, …) equals Dot(qᵢ, k) bit for bit. With four or more pairs
// each K row is loaded once and scored against every pair that covers
// it; with fewer (a decode step), each pair scores four keys per call.
func (ps *attendPass) score(a *AttendArgs, base int) {
	hd, width, inv := a.HeadDim, a.Width, a.InvSqrt
	if ps.n < 4 {
		for p := 0; p < ps.n; p++ {
			q, s := ps.q[p], ps.s[p]
			off := 0
			for _, sp := range a.Spans {
				if off >= len(s) {
					break
				}
				lim := min(len(sp.Pos), len(s)-off)
				k := sp.K
				j := 0
				for ; j+4 <= lim; j += 4 {
					r := j*width + base
					d0, d1, d2, d3 := Dot4(q, k[r:r+hd], k[r+width:r+width+hd],
						k[r+2*width:r+2*width+hd], k[r+3*width:r+3*width+hd])
					s[off+j], s[off+j+1], s[off+j+2], s[off+j+3] = d0*inv, d1*inv, d2*inv, d3*inv
				}
				for ; j < lim; j++ {
					r := j*width + base
					s[off+j] = Dot(q, k[r:r+hd]) * inv
				}
				off += lim
			}
		}
		return
	}
	n, last := ps.n, ps.rows[ps.n-1]
	lo, off := 0, 0
	for _, sp := range a.Spans {
		if off >= last {
			break
		}
		lim := min(len(sp.Pos), last-off)
		for j := 0; j < lim; j++ {
			r := off + j
			for ps.rows[lo] <= r {
				lo++
			}
			k := sp.K[j*width+base : j*width+base+hd]
			p := lo
			for ; p+4 <= n; p += 4 {
				d0, d1, d2, d3 := Dot4(k, ps.q[p], ps.q[p+1], ps.q[p+2], ps.q[p+3])
				ps.s[p][r], ps.s[p+1][r], ps.s[p+2][r], ps.s[p+3][r] = d0*inv, d1*inv, d2*inv, d3*inv
			}
			if p+2 <= n {
				d0, d1 := Dot2(k, ps.q[p], ps.q[p+1])
				ps.s[p][r], ps.s[p+1][r] = d0*inv, d1*inv
				p += 2
			}
			if p < n {
				ps.s[p][r] = Dot(k, ps.q[p]) * inv
			}
		}
		off += lim
	}
}

// alibi subtracts the ALiBi bias from one pair's scaled scores. The bias
// comes from explicit position IDs (§4.2): the classic -slope·distance,
// where distance uses the recorded positions, not array indices, so
// module gaps behave like the paper's "white space".
func alibi(a *AttendArgs, s []float32, qPos int, slope float32) {
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
			s[off+j] -= slope * float32(dist)
		}
		off += lim
	}
}

// combine writes o[p] = Σ_r s[p][r]·V[r] for every pair, each output
// accumulating over keys in ascending order and skipping w == 0 (adding
// 0·v could turn -0 into +0 or an Inf into NaN). Each V row is loaded
// once for every pair that covers it. Where four consecutive keys are
// covered by every pair, an output element takes the four adds in one
// visit — the same adds in the same order.
func (ps *attendPass) combine(a *AttendArgs, base int) {
	hd, width := a.HeadDim, a.Width
	for p := 0; p < ps.n; p++ {
		clear(ps.o[p])
	}
	n, first, last := ps.n, ps.rows[0], ps.rows[ps.n-1]
	lo, off := 0, 0
	for _, sp := range a.Spans {
		if off >= last {
			break
		}
		lim := min(len(sp.Pos), last-off)
		v := sp.V
		j := 0
		for bulk := min(lim, first-off); j+4 <= bulk; j += 4 {
			r := j*width + base
			v0, v1 := v[r:r+hd], v[r+width:r+width+hd]
			v2, v3 := v[r+2*width:r+2*width+hd], v[r+3*width:r+3*width+hd]
			for p := 0; p < n; p++ {
				w := ps.s[p][off+j : off+j+4]
				w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
				o := ps.o[p]
				if w0 == 0 || w1 == 0 || w2 == 0 || w3 == 0 {
					axpy(o, w0, v0)
					axpy(o, w1, v1)
					axpy(o, w2, v2)
					axpy(o, w3, v3)
					continue
				}
				v0, v1, v2, v3 := v0[:len(o)], v1[:len(o)], v2[:len(o)], v3[:len(o)]
				for t, x := range o {
					x += w0 * v0[t]
					x += w1 * v1[t]
					x += w2 * v2[t]
					x += w3 * v3[t]
					o[t] = x
				}
			}
		}
		for ; j < lim; j++ {
			r := off + j
			for ps.rows[lo] <= r {
				lo++
			}
			vr := v[j*width+base : j*width+base+hd]
			for p := lo; p < n; p++ {
				axpy(ps.o[p], ps.s[p][r], vr)
			}
		}
		off += lim
	}
}

// axpy computes o += w·v, skipping w == 0.
func axpy(o []float32, w float32, v []float32) {
	if w == 0 {
		return
	}
	v = v[:len(o)]
	for t := range o {
		o[t] += w * v[t]
	}
}

func checkAttendArgs(a *AttendArgs) {
	if a.Q.Rows != a.Out.Rows || len(a.Positions) != a.Q.Rows {
		panic(fmt.Sprintf("tensor: AttendRowBlock q=%d out=%d positions=%d rows",
			a.Q.Rows, a.Out.Rows, len(a.Positions)))
	}
}

// outputHeadRange computes dsts[k][t] for vocab rows t in [lo, hi) and
// every lane k, reading each embedding row exactly once per lane group.
// Lanes go through the widest batched dot kernel that fits (4/2/1): per
// element the row loads and index arithmetic amortize over the group,
// which is where a fused decode step beats N solo steps even when every
// matrix is cache-resident. Per-lane sums are bit-identical to solo Dot
// calls, so grouping is invisible in the logits.
func outputHeadRange(dsts [][]float32, emb *Matrix, hs [][]float32, lo, hi int) {
	k := 0
	for ; k+4 <= len(hs); k += 4 {
		d0, d1, d2, d3 := dsts[k], dsts[k+1], dsts[k+2], dsts[k+3]
		h0, h1, h2, h3 := hs[k], hs[k+1], hs[k+2], hs[k+3]
		for t := lo; t < hi; t++ {
			row := emb.Row(t)
			d0[t], d1[t], d2[t], d3[t] = Dot4(row, h0, h1, h2, h3)
		}
	}
	if k+2 <= len(hs) {
		d0, d1 := dsts[k], dsts[k+1]
		h0, h1 := hs[k], hs[k+1]
		for t := lo; t < hi; t++ {
			row := emb.Row(t)
			d0[t], d1[t] = Dot2(row, h0, h1)
		}
		k += 2
	}
	if k < len(hs) {
		d, h := dsts[k], hs[k]
		for t := lo; t < hi; t++ {
			d[t] = Dot(emb.Row(t), h)
		}
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

// Backends lists the selectable backend names.
func Backends() []string { return []string{"scalar", "parallel"} }

var scalarInstance Backend = &scalarBackend{}

// Scalar returns the single-threaded reference backend. Every kernel
// runs on the calling goroutine in the canonical accumulation order;
// the other backends are verified bit-for-bit against it.
func Scalar() Backend { return scalarInstance }

// NewParallel returns the goroutine-tiled backend with the given worker
// fan-out (non-positive selects GOMAXPROCS). With one worker it degrades
// to the scalar execution schedule while keeping its own name, which is
// what 1-CPU CI runs under when "parallel" is pinned.
func NewParallel(workers int) Backend {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &parallelBackend{workers: workers}
}

// Select maps a backend name to an instance: "scalar", "parallel", or
// ""/"auto" for Auto's choice.
func Select(name string) (Backend, error) {
	switch name {
	case "", "auto":
		return Auto(), nil
	case "scalar":
		return Scalar(), nil
	case "parallel":
		return NewParallel(0), nil
	}
	return nil, fmt.Errorf("tensor: unknown backend %q (have auto, %s)", name, strings.Join(Backends(), ", "))
}

// Auto picks the startup default: the PC_BACKEND environment variable
// when it names a backend, else parallel when more than one CPU is
// available to the process, else scalar. The choice affects scheduling
// only — outputs are bit-identical either way — so Auto never needs to
// be pinned for correctness, only for benchmarking.
func Auto() Backend {
	switch os.Getenv("PC_BACKEND") {
	case "scalar":
		return Scalar()
	case "parallel":
		return NewParallel(0)
	}
	if runtime.GOMAXPROCS(0) > 1 {
		return NewParallel(0)
	}
	return Scalar()
}
