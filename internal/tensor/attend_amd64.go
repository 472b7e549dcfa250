//go:build !purego

package tensor

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
