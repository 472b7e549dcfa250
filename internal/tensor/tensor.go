// Package tensor implements the minimal dense float32 linear algebra the
// transformer engine needs: row-major matrices, matrix multiplication,
// softmax, normalization layers and activations.
//
// The package is deliberately small and allocation-conscious rather than
// general: every routine used on the inference hot path has an in-place or
// destination-buffer form, because Prompt Cache's performance story is
// partly about avoiding avoidable copies (§4.2 of the paper overrides
// PyTorch's concatenation for the same reason).
//
// # Backends
//
// The hot-path kernels (MatMul, AttendRowBlock) run through Backend, one
// concrete type that holds a worker count. MatMul also computes the
// model's output head, over the tied embedding stored transposed; the
// dot-product OutputHead is only that head's reference. One worker
// ("scalar") is the single-threaded reference; more ("parallel") split
// the same leaf bodies across goroutines by independent output elements
// (matrix product columns, attention (query tile, KV head) units), never
// inside a reduction, so outputs are bit-identical at any worker count
// and golden-logits tests and cross-machine cache reuse hold. Select
// maps names to worker counts; Auto uses one worker per CPU available to
// the process.
//
// # Vector lanes
//
// The weight matmul, matMulRange under MatMul and MatVecT, has an AVX2
// body on amd64 (matmul_amd64.s) that equals its Go body bit for bit,
// and so do the attention leaves under AttendRowBlock (attend_amd64.s):
// the score with one key per lane over 8-key blocks transposed in
// registers, the combine with one head-dim element per lane, and
// expSum with four float64 exp lanes and a sequential sum. A prefill
// pass runs its query heads four at a time, one transposed block for
// four scores and one V row load for four outputs; decode's one or two
// heads and a pass's remainder run two at a time. SiLU runs the same
// exp lanes, then its add and divide in float32 lanes. In the matmul
// each ymm lane is a different output column, so a lane's sum is that
// column's scalar sum: it starts at +0 and takes, for p ascending, one
// VMULPS and one VADDPS per term, each rounding as the scalar MULSS and
// ADDSS do. No float32 term uses a fused multiply-add, which would skip
// the product's rounding. The weight is the multiply's first source and
// the running sum the add's, as in the Go body's compiled code, so even
// NaN payloads agree; the attention lanes likewise copy, term by term,
// the operand order of the Go line each replaces. The exp lanes' float64
// steps do fuse, which only moves their result within exp32's error
// bound, and its midpoint guard returns exp32's float32 either way. One
// CPUID and XGETBV probe at start-up picks the bodies when the CPU has
// AVX2 and FMA, and VectorISA reports the choice.
// The purego build tag leaves the assembly out; every other
// architecture runs the Go bodies, whose products are converted to
// float32 so no compiler may fuse them.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix with Rows x Cols elements.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a Rows x Cols matrix.
//
//pclint:ignore unreached test helper: kernel tests build their operands from literal slices
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Row returns a view of row i (no copy).
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Set sets element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

func checkMatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}

// matMulRange computes columns [lo, hi) of dst = a×b for every row of a:
// dst[i][j] = Σ_p a[i][p]·b[p][j], one sum per element, ascending in p
// from +0. It is the one weight-application body: MatMul and MatVecT (a
// one-row a) both run it, so a model layer runs it at any row count and
// a row's sums never depend on the rows beside it. It runs the vector
// body when the start-up probe selected one (matmul_amd64.go), and the
// portable matMulRangeGo otherwise; the two give the same bits.
func matMulRange(dst, a, b *Matrix, lo, hi int) {
	if matMulVector != nil {
		matMulVector(dst, a, b, lo, hi)
		return
	}
	matMulRangeGo(dst, a, b, lo, hi)
}

// matMulVector is the vector body of matMulRange, nil when the probe
// found none: off amd64, under the purego build tag, or on a CPU or OS
// without AVX2.
var matMulVector func(dst, a, b *Matrix, lo, hi int)

// attendVector is set by the same probe as matMulVector: the attention
// leaves (scoreRow, scoreRow2, combineRow, combineRow2 at head dims that
// are multiples of 8, and expSum) then run their vector bodies
// (attend_amd64.s), called directly rather than through func values.
var attendVector bool

// vectorISA names the instruction set of the vector bodies, "" without
// them.
var vectorISA string

// VectorISA names the vector instruction set the weight matmul and the
// attention leaves run on ("avx2"), or "" when they run the portable Go
// bodies. One CPUID and XGETBV probe at start-up decides it; nothing
// else selects it.
func VectorISA() string { return vectorISA }

// matMulRangeGo is matMulRange's portable body, and the oracle the
// vector body must equal bit for bit.
//
// Four columns go at a time, each summed in its own register across all
// of p, so no output is loaded or stored inside a reduction (the
// row-at-a-time axpy loop this replaced did both for every term). Four
// is the widest power-of-two run whose sums, products and x[p] all stay
// in registers on amd64. At eight the compiler spilled one sum to the
// stack and then added that column's product first, which keeps the
// other operand's payload when two NaNs meet, so no vector body could
// match every column. Four runs 5–30 % slower than eight did on a 2-core
// Xeon. Rows go one at a time. The vector body takes them in pairs, each
// weight vector loaded once for both, and that tile measured faster (hot
// weights, one goroutine, 2-vCPU Xeon: 45 → 56 GFLOP/s at 256×64×176,
// 29 → 47 at 4×256×688): two rows share each load and each loop step's
// bookkeeping, so fewer instructions issue per multiply-add. This body
// stays the one-row oracle: only builds without the vector body run it,
// and no workload measures it. Terms with a[i][p] == 0 are added, not
// skipped: for finite b such a term is ±0, and adding ±0 to a
// round-to-nearest sum that began at +0 never changes its bits. Every
// product is converted to float32 before it is added: the conversion
// rounds it, which forbids the compiler from fusing the multiply and the
// add (arm64 otherwise emits FMADDS), so the sums are the same on every
// architecture.
func matMulRangeGo(dst, a, b *Matrix, lo, hi int) {
	m, bd := b.Cols, b.Data
	for i := 0; i < a.Rows; i++ {
		x, d := a.Row(i), dst.Row(i)
		j := lo
		for ; j+4 <= hi; j += 4 {
			var s0, s1, s2, s3 float32
			off := j
			for _, xv := range x {
				w := bd[off : off+4 : off+4]
				s0 += float32(xv * w[0])
				s1 += float32(xv * w[1])
				s2 += float32(xv * w[2])
				s3 += float32(xv * w[3])
				off += m
			}
			d[j], d[j+1], d[j+2], d[j+3] = s0, s1, s2, s3
		}
		for ; j < hi; j++ {
			var s float32
			off := j
			for p := range x {
				// Indexed, not ranged: the compiler then multiplies with
				// the weight as the first source, as in the runs of four
				// above, so NaN payloads agree with every other column.
				s += float32(bd[off] * x[p])
				off += m
			}
			d[j] = s
		}
	}
}

func checkMatVecT(dst []float32, w *Matrix, h []float32) {
	if len(h) != w.Rows || len(dst) != w.Cols {
		panic(fmt.Sprintf("tensor: MatVecT shapes W=%dx%d h=%d dst=%d", w.Rows, w.Cols, len(h), len(dst)))
	}
}

// rowOf views v as a one-row matrix, so MatVecT runs the MatMul body.
func rowOf(v []float32) *Matrix { return &Matrix{Rows: 1, Cols: len(v), Data: v} }

// Dot returns the inner product of a and b.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float32
	for i, av := range a {
		s += float32(av * b[i])
	}
	return s
}

// Dot2 computes a·b0 and a·b1 in a single pass over a. Each sum
// accumulates in exactly the order Dot(a, bK) would, so the results are
// bit-identical to two solo calls; sharing the walk loads each element
// of a once for both sums — the inner kernel of scoreRow2's Go path.
func Dot2(a, b0, b1 []float32) (float32, float32) {
	if len(b0) != len(a) || len(b1) != len(a) {
		panic(fmt.Sprintf("tensor: Dot2 length mismatch %d/%d vs %d", len(b0), len(b1), len(a)))
	}
	b0, b1 = b0[:len(a)], b1[:len(a)]
	var s0, s1 float32
	for i, av := range a {
		s0 += float32(av * b0[i])
		s1 += float32(av * b1[i])
	}
	return s0, s1
}

// Dot4 is Dot2 over four right-hand sides: one pass over a, four
// bit-identical sums.
func Dot4(a, b0, b1, b2, b3 []float32) (float32, float32, float32, float32) {
	if len(b0) != len(a) || len(b1) != len(a) || len(b2) != len(a) || len(b3) != len(a) {
		panic(fmt.Sprintf("tensor: Dot4 length mismatch vs %d", len(a)))
	}
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	var s0, s1, s2, s3 float32
	for i, av := range a {
		s0 += float32(av * b0[i])
		s1 += float32(av * b1[i])
		s2 += float32(av * b2[i])
		s3 += float32(av * b3[i])
	}
	return s0, s1, s2, s3
}

// Add computes dst[i] += src[i].
func Add(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Add length mismatch")
	}
	for i, v := range src {
		dst[i] += v
	}
}

// Mul computes dst[i] *= src[i].
func Mul(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Mul length mismatch")
	}
	for i, v := range src {
		dst[i] *= v
	}
}

// Softmax normalizes x in place into a probability distribution,
// subtracting the max first for numerical stability. The exponential is
// exp32, which equals float32(math.Exp) bit for bit.
func Softmax(x []float32) {
	if len(x) == 0 {
		return
	}
	maxv := x[0]
	for _, v := range x[1:] {
		if v > maxv {
			maxv = v
		}
	}
	inv := 1 / expSum(x, maxv)
	for i := range x {
		x[i] *= inv
	}
}

// RMSNorm writes RMS-normalized x scaled by weight into dst
// (dst = x / rms(x) * w), the normalization used by Llama-family models.
func RMSNorm(dst, x, weight []float32, eps float32) {
	if len(dst) != len(x) || len(x) != len(weight) {
		panic("tensor: RMSNorm length mismatch")
	}
	var ss float64
	for _, v := range x {
		ss += float64(float64(v) * float64(v))
	}
	// The conversion keeps the mean a rounded quotient where inlining
	// turns a power-of-two length into a multiply arm64 could fuse.
	inv := float32(1 / math.Sqrt(float64(ss/float64(len(x)))+float64(eps)))
	for i, v := range x {
		dst[i] = v * inv * weight[i]
	}
}

// LayerNorm writes layer-normalized x scaled by gamma and shifted by beta
// into dst, the normalization used by MPT/GPT-family models.
func LayerNorm(dst, x, gamma, beta []float32, eps float32) {
	if len(dst) != len(x) || len(x) != len(gamma) || len(x) != len(beta) {
		panic("tensor: LayerNorm length mismatch")
	}
	var mean float64
	for _, v := range x {
		mean += float64(v)
	}
	mean /= float64(len(x))
	var variance float64
	for _, v := range x {
		d := float64(v) - mean
		variance += float64(d * d)
	}
	variance /= float64(len(x))
	inv := float32(1 / math.Sqrt(variance+float64(eps)))
	for i, v := range x {
		dst[i] = float32((v-float32(mean))*inv*gamma[i]) + beta[i]
	}
}

// SiLU applies x*sigmoid(x) elementwise in place (Llama FFN activation):
// x[i] = v / (1 + exp32(-v)), each operation rounded to float32.
//
// With the vector body (attendVector), siluAVX2 takes x four elements at
// a time, the exp in expSum's float64 lanes and the add and divide in
// float32 lanes, and hands back a group it cannot take or a tail of
// fewer than four to the scalar loop below, as expSum does.
func SiLU(x []float32) {
	for i := 0; i < len(x); {
		end := len(x)
		if attendVector {
			i += siluAVX2(x[i:])
			end = min(i+4, len(x))
		}
		for ; i < end; i++ {
			v := x[i]
			x[i] = v / (1 + exp32(-v))
		}
	}
}

// GELU applies the tanh-approximated Gaussian error linear unit in place
// (GPT/MPT FFN activation).
func GELU(x []float32) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range x {
		v64 := float64(v)
		x[i] = float32(0.5 * v64 * (1 + math.Tanh(c*(v64+float64(0.044715*v64*v64*v64)))))
	}
}

// ArgMax returns the index of the largest element, breaking ties toward
// the lower index. It panics on an empty slice.
func ArgMax(x []float32) int {
	if len(x) == 0 {
		panic("tensor: ArgMax of empty slice")
	}
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// MaxAbsDiff returns max_i |a[i]-b[i]|; a convenience for numerical
// equivalence assertions in tests and benchmarks.
//
//pclint:ignore unreached test oracle: every bit-identity and closeness test across the engine asserts through it
func MaxAbsDiff(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: MaxAbsDiff length mismatch")
	}
	var m float32
	for i, av := range a {
		d := av - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// CosineSimilarity returns the cosine of the angle between a and b, or 0
// if either has zero norm.
func CosineSimilarity(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("tensor: CosineSimilarity length mismatch")
	}
	var dot, na, nb float64
	for i := range a {
		dot += float64(float64(a[i]) * float64(b[i]))
		na += float64(float64(a[i]) * float64(a[i]))
		nb += float64(float64(b[i]) * float64(b[i]))
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}
