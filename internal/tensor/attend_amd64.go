//go:build !purego

package tensor

import "math"

// The AVX2 bodies of the attention leaves (attend_amd64.s). The same
// start-up probe that picks the matmul's vector body sets attendVector;
// the purego build tag leaves this file out, so attention runs the Go
// bodies. Each is called directly behind that bool, never through a func
// value, so escape analysis sees the //go:noescape pointers and the
// callers' lane buffers stay on their stacks.

// scoreBlocksAVX2 writes s[j] = (q·K[j])·inv for j < len(s), a multiple
// of 8, where K[j] = k[j·width:][:len(q)] and len(q) is a multiple of 8,
// and folds each score into lanes[j%8] with the `>` test. Lane = key: a
// block of 8 keys is transposed in registers, then each lane sums its
// key's terms ascending in d from +0, one multiply and one add per term.
//
//go:noescape
func scoreBlocksAVX2(s, q, k []float32, width int, inv float32, lanes *[8]float32)

// scoreBlocks2AVX2 is scoreBlocksAVX2 for two pairs: both query heads
// against each transposed block, lanes[0:8] for s0 and lanes[8:16] for s1.
//
//go:noescape
func scoreBlocks2AVX2(s0, s1, q0, q1, k []float32, width int, inv float32, lanes *[16]float32)

// scoreBlocks4AVX2 is scoreBlocks2AVX2 for pairs 0, 1 and 2, 3 of q at
// once: it writes s[i][off+j] for j < n, a multiple of 8, from the
// blocks of k (key 0 at k[0]), folding pair i into lanes[8i:8i+8]. It
// stops before the first block with a NaN in the lanes of keys 3 and 7
// and returns how many keys it scored. The caller guarantees
// len(s[i]) >= off+n and len(q[i]) == len(q[0]), a multiple of 8.
//
//go:noescape
func scoreBlocks4AVX2(s, q *[4][]float32, off, n int, k []float32, width int, inv float32, lanes *[32]float32) (done int)

// combineAVX2 adds (t[j]·inv)·V[j] into o for j < len(t), a multiple of
// 4, where V[j] = v[j·width:][:len(o)] and len(o) is a multiple of 8, as
// combineRow's loop over one span does. Lane = head-dim element.
//
//go:noescape
func combineAVX2(o, t, v []float32, width int, inv float32)

// combine2AVX2 is combineAVX2 for two pairs, as combineRow2's loop over
// one span does.
//
//go:noescape
func combine2AVX2(o0, o1, t0, t1, v []float32, width int, inv0, inv1 float32)

// combine4AVX2 is combine2AVX2 for pairs 0, 1 and 2, 3 of o at once,
// for head dims 8 and 16: it adds (t[i][off+j]·inv[i])·V[j] into o[i]
// for j < n, a multiple of 4, with V[j] = v[j·width:][:len(o[0])]. It
// stops before the first group of four keys with a zero weight in any
// pair and returns how many keys it added. The caller guarantees
// len(t[i]) >= off+n and len(o[i]) == len(o[0]).
//
//go:noescape
func combine4AVX2(o, t *[4][]float32, off, n int, v []float32, width int, inv *[4]float32) (done int)

// expSumAVX2 runs expSum's loop over x's whole groups of four from the
// start, continuing the running sum, until a group holds an element
// exp32Fast would not take; it returns how many elements it did and the
// sum.
//
//go:noescape
func expSumAVX2(x []float32, m, sum float32) (n int, s float32)

// siluAVX2 runs SiLU's loop over x's whole groups of four from the
// start, until a group holds an element whose exp32(-v) exp32Fast would
// not take; it returns how many elements it did.
//
//go:noescape
func siluAVX2(x []float32) (n int)

// expLaneConsts holds EXP_LANES' constants (attend_amd64.s), in the order
// of its EXP_* offsets, each repeated across 32 bytes so an instruction
// can take it as a memory operand: exp32Fast's float64 terms, its table
// index mask and midpoint-guard masks, then four float32 values (two per
// word): expMin, expMax, the sign bit SiLU negates with, and 1.
var expLaneConsts = func() (c [14][4]uint64) {
	f32 := func(v float32) uint64 { return uint64(math.Float32bits(v)) * (1<<32 + 1) }
	for i, w := range [14]uint64{
		math.Float64bits(expInvStep), math.Float64bits(expShifter),
		math.Float64bits(expStepHi), math.Float64bits(expStepLo),
		math.Float64bits(0.5), math.Float64bits(1.0 / 6),
		255, 1<<29 - 1, expMid - expGuard, 2 * expGuard,
		f32(expMin), f32(expMax), f32(float32(math.Copysign(0, -1))), f32(1),
	} {
		c[i] = [4]uint64{w, w, w, w}
	}
	return c
}()
