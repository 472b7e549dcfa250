package tensor

import "math"

// exp32 returns float32(math.Exp(float64(x))) bit for bit, at a fraction
// of its cost. It is the exponential behind Softmax, SiLU and the
// attention pass; the bit-identity is what lets it replace math.Exp
// without moving a single golden logit.
//
// The fast path reduces x = (256·e + j)·ln2/256 + r with |r| ≤ ln2/512,
// so exp(x) = 2^e · 2^(j/256) · exp(r): a table entry times a cubic in r,
// all in float64. Its result is within expGuard float64 ulps of the true
// exp(x), and math.Exp is within one, so both round to the same float32
// unless the 29 mantissa bits the conversion drops lie within expGuard
// ulps of the rounding midpoint. Those inputs, and every x outside
// (-87, 88) (subnormal or overflowing results, ±Inf, NaN), take
// math.Exp itself.
func exp32(x float32) float32 {
	if y, ok := exp32Fast(x); ok {
		return y
	}
	return float32(math.Exp(float64(x)))
}

const (
	expMin, expMax = -87, 88
	expInvStep     = 256 / math.Ln2
	// ln2/256 split so that n·expStepHi is exact for |n| < 2^21; the
	// halves are fdlibm's Ln2Hi and Ln2Lo scaled by 2^-8.
	expStepHi = 6.93147180369123816490e-01 / 256
	expStepLo = 1.90821492927058770002e-10 / 256
	// expShifter rounds a float64 of magnitude < 2^51 to an integer and
	// leaves it, two's complement, in the low mantissa bits.
	expShifter = 0x1.8p52
	// expGuard bounds the fast path's error in float64 ulps: the cubic's
	// truncation r⁴/24 ≤ 1.4e-13 relative is at most 2^9.3 ulps, and the
	// table entry, the reduction and the evaluation add a few more, so
	// 2^13 leaves a 16× margin. At most one input in 2^15 lands that
	// close to a midpoint; over every float32 in range, one in ~130,000
	// does. The bound holds for any evaluation of these steps with fewer
	// roundings too, such as the vector exp lanes (EXP_LANES in
	// attend_amd64.s), which fuse each product into the sum it feeds: the
	// fused reduction picks n as the integer nearest the exact
	// x·expInvStep, so |r| ≤ ln2/512 still holds, and each fused step
	// rounds once where this one rounds twice. Their result can differ
	// from this one in its last bits and land on the other side of the
	// guard, but a result either passes rounds to the float32 the true
	// exp(x) rounds to, so both return float32(math.Exp) bit for bit.
	// TestExpLanesMatchGo checks it on every 2^12-th float32 in (expMin,
	// expMax) (546 K of them) with its ±3 neighbours, and on windows at
	// the range ends and around every input either evaluation flags.
	expGuard = 1 << 13
	// expMid is the float32 rounding midpoint within the 29 dropped bits.
	expMid = 1 << 28
)

// exp2Table[j] = 2^(j/256).
var exp2Table = func() (t [256]float64) {
	for j := range t {
		t[j] = math.Exp2(float64(j) / 256)
	}
	return t
}()

// exp32Fast is exp32's table path; ok is false where exp32 must call
// math.Exp instead.
func exp32Fast(x float32) (y float32, ok bool) {
	if !(x > expMin && x < expMax) {
		return 0, false
	}
	// Every product is rounded on its own (the float64 conversions):
	// arm64 would otherwise fuse it into the add that follows.
	xd := float64(x)
	t := float64(xd*expInvStep) + expShifter
	n := int32(math.Float64bits(t))
	nf := t - expShifter
	r := (xd - float64(nf*expStepHi)) - float64(nf*expStepLo)
	s := exp2Table[n&255]
	p := r + float64(r*r*(0.5+float64(r*(1.0/6))))
	b := math.Float64bits(s+float64(s*p)) + uint64(n>>8)<<52
	if uint32(b)&(1<<29-1)-(expMid-expGuard) <= 2*expGuard {
		return 0, false
	}
	return float32(math.Float64frombits(b)), true
}

// expSum overwrites x[i] with exp32(x[i]-m) and returns the sum of the
// results, accumulated in float32 in ascending order: Softmax's middle
// pass, and the only one attention keeps.
//
// With the vector body (attendVector), expSumAVX2 takes x four elements
// at a time in float64 lanes and stops at a group it cannot take (an
// input outside the fast range or a guard-flagged result) or at a tail
// of fewer than four; that group or tail goes through the scalar loop
// below, then the vector body resumes. There is one scalar loop on
// purpose: its compiled order (x−m with x first, the sum as the add's
// first source) is the one the vector body copies, and a second scalar
// site could compile otherwise and move a NaN payload.
func expSum(x []float32, m float32) float32 {
	var sum float32
	for i := 0; i < len(x); {
		end := len(x)
		if attendVector {
			var n int
			n, sum = expSumAVX2(x[i:], m, sum)
			i += n
			end = min(i+4, len(x))
		}
		for ; i < end; i++ {
			e := exp32(x[i] - m)
			x[i] = e
			sum += e
		}
	}
	return sum
}
