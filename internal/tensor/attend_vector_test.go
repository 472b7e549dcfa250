package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// withAttendVector runs fn with the attention leaves' vector bodies
// switched on or off, restoring the probe's choice afterwards.
func withAttendVector(on bool, fn func()) {
	saved := attendVector
	attendVector = on
	defer func() { attendVector = saved }()
	fn()
}

// injectSpecials replaces each element of data with one of
// matMulSpecials with probability 1/every, keeping the rest.
func injectSpecials(r *rng.RNG, data []float32, every int) {
	for i := range data {
		if r.Intn(every) == 0 {
			data[i] = math.Float32frombits(matMulSpecials[r.Intn(len(matMulSpecials))])
		}
	}
}

// keyRow returns cache row r's slice of K or V (whole KV width).
func keyRow(a *AttendArgs, r int, v bool) []float32 {
	for _, sp := range a.Spans {
		if r < len(sp.Pos) {
			if v {
				return sp.V[r*a.Width : (r+1)*a.Width]
			}
			return sp.K[r*a.Width : (r+1)*a.Width]
		}
		r -= len(sp.Pos)
	}
	panic("row out of range")
}

// attendSpecials is the number of injectAttendSpecial cases.
const attendSpecials = 11

// injectAttendSpecial plants non-finite, signed-zero or underflowing
// values in a, case by case, where only a vector body that copies the Go
// body's operand orders, skips and hand-backs exactly gets every bit
// right. Cases 4–6 name fixed cache rows and need a shape of at least 38
// rows; the rest fit any shape.
func injectAttendSpecial(r *rng.RNG, a *AttendArgs, special int) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	hd, blocks := a.HeadDim, 0
	for _, sp := range a.Spans {
		switch special {
		case 1:
			injectSpecials(r, sp.K, 64)
		case 2:
			injectSpecials(r, sp.V, 16)
		case 3:
			injectSpecials(r, sp.K, 256)
			injectSpecials(r, sp.V, 16)
		case 7:
			injectSpecials(r, sp.K, 32)
		case 8:
			// A key's score sums a NaN product, then adds a second NaN
			// payload, in every KV head: in lanes 3 and 7 of every other
			// whole 8-key block (in cache order), where dot2x4's compiled
			// order differs from the vector terms', so a four-pair block
			// is handed back, and in the other lanes of the blocks
			// between, which the four-pair body keeps. (The order of a
			// product's operands is not observable there: a NaN query
			// element makes all eight lanes NaN, and the block goes back.)
			for j := range len(sp.Pos) &^ 7 {
				if handBack, lane37 := (blocks+j/8)%2 == 0, j%4 == 3; handBack == lane37 {
					for g := 0; g < a.Width; g += hd {
						sp.K[j*a.Width+g] = math.Float32frombits(0x7fc00011)
						sp.K[j*a.Width+g+1] = math.Float32frombits(0xffc00022)
					}
				}
			}
			blocks += len(sp.Pos) / 8
		case 9:
			// Every score is ±0: one product of ±2^-149, scaled below
			// half the smallest subnormal.
			for j := range sp.Pos {
				for g := 0; g < a.Width; g += hd {
					sp.K[j*a.Width+g] = float32(math.Ldexp(float64(1-2*r.Intn(2)), -74))
				}
			}
		}
	}
	switch special {
	case 4:
		// Row 2's score for every head of KV head 0 sums Inf·1 + (−Inf)·1,
		// then a math.NaN() term.
		for i := 0; i < a.Q.Rows; i++ {
			for h := 0; h < a.NHeads; h++ {
				a.Q.Row(i)[h*hd], a.Q.Row(i)[h*hd+1] = 1, 1
			}
		}
		k := keyRow(a, 2, false)
		k[0], k[1], k[2] = inf, -inf, nan
	case 5:
		// Element 3 of KV head 1 sums Inf, −Inf and then math.NaN() over
		// rows 9, 10 and 13 and again over rows 20, 26 and 27, with
		// finite weights.
		for _, rows := range [][3]int{{9, 10, 13}, {20, 26, 27}} {
			base := hd + 3
			keyRow(a, rows[0], true)[base] = inf
			keyRow(a, rows[1], true)[base] = -inf
			keyRow(a, rows[2], true)[base] = nan
		}
	case 6:
		// Rows 9 and 37 score NaN with two payloads, so every weight is
		// NaN and the last key's is the second payload; that key's V
		// holds a third.
		for g := 0; g < a.Width; g += hd {
			keyRow(a, 9, false)[g+1] = math.Float32frombits(0x7fc00001)
			keyRow(a, 37, false)[g+2] = math.Float32frombits(0xffc0abcd)
			keyRow(a, 37, true)[g+4] = math.Float32frombits(0x7fc01234)
		}
	case 7:
		// NaN query elements meet NaN keys in one product.
		injectSpecials(r, a.Q.Data, 32)
	case 9:
		for i := 0; i < a.Q.Rows; i++ {
			q := a.Q.Row(i)
			clear(q)
			for h := 0; h < a.NHeads; h++ {
				q[h*hd] = float32(math.Ldexp(1, -75))
			}
		}
	case 10:
		// Weights of exactly 0 in one half of a four-pair group only: the
		// first head of each KV group on every fourth row scores at 64×.
		for i := 0; i < a.Q.Rows; i += 4 {
			for h := 0; h < a.NHeads; h += a.Group {
				for d := range hd {
					a.Q.Row(i)[h*hd+d] *= 64
				}
			}
		}
	}
}

// checkAttendVector runs each (query tile, KV head) unit of a with the
// vector bodies off and then on, and fails unless the outputs and the
// unit's score scratch (which ends holding its exp values) agree under
// same.
func checkAttendVector(t *testing.T, a *AttendArgs, same func(a, b []float32) (int, bool), what string) {
	t.Helper()
	for u := range attendUnitCount(a) {
		run := func(vec bool) {
			withAttendVector(vec, func() { attendUnits(a, a.Scores, u, u+1) })
		}
		run(false)
		wantOut := append([]float32(nil), a.Out.Data...)
		wantScores := append([]float32(nil), a.Scores...)
		run(true)
		if i, ok := same(wantOut, a.Out.Data); !ok {
			t.Fatalf("%s unit %d: output %d is %#08x, Go body %#08x", what, u, i,
				math.Float32bits(a.Out.Data[i]), math.Float32bits(wantOut[i]))
		}
		if i, ok := same(wantScores, a.Scores); !ok {
			t.Fatalf("%s unit %d: score scratch %d is %#08x, Go body %#08x", what, u, i,
				math.Float32bits(a.Scores[i]), math.Float32bits(wantScores[i]))
		}
	}
}

// TestAttendVectorMatchesGo compares the attention leaves' vector bodies
// with their Go bodies directly, bit for bit, through checkAttendVector.
// Head dims are multiples of 8, so the vector bodies run; Group 1–4 and
// tiles of 1, 5, 6, 8 and 3 rows give passes of 4k to 4k+3 pairs, so the
// four-pair bodies run beside a two- or one-pair remainder, and scratch
// capped at 5, 6 or 7 score rows splits a unit into such passes too.
// Spans of 5, 13, 13 and 7, 14 or 25 rows leave every span a tail the Go
// loops finish, and spans of 5, 12, 13 and 8, 15 or 26 rows end pair 0's
// keys on a whole vector block; from case 8 on, spans of 3, 5, 6 and 6
// rows are shorter than a block, and each span keeps the position gaps
// buildAttend draws. qScale 64 drives weights to 0, so combine's
// zero-weight path runs. The special cases (injectAttendSpecial) make
// NaN payloads meet where only an operand's order decides which one
// survives, in a score sum, a combine sum and a weighted V, put NaN in
// the lanes of keys 3 and 7 that four-pair blocks hand back, make every
// score ±0, and zero the weights of one half of a four-pair group.
func TestAttendVectorMatchesGo(t *testing.T) {
	if !attendVector {
		t.Skip("no vector attention body on this build or CPU")
	}
	same := bitsEqual
	if !nanPayloadsCompared {
		same = bitsEqualAnyNaN
	}
	const T = attendTile
	r := rng.NewString("attend/vector")
	for _, hd := range []int{8, 16, 24, 32} {
		for _, group := range []int{1, 2, 3, 4} {
			for _, n := range []int{1, 5, 6, T, 2*T + 3} {
				for _, qScale := range []float32{0, 64} {
					for special := range attendSpecials {
						splits := []int{5, 18, 31}
						switch {
						case special >= 8:
							splits = []int{3, 8, 14, 20, 31}
						case special%2 == 0:
							splits = []int{5, 17, 30}
						}
						sh := attendShape{n: n, past: 37, nHeads: 2 * group, group: group, headDim: hd,
							qScale: qScale, splits: splits}
						a := buildAttend(r, sh)
						injectAttendSpecial(r, a, special)
						pass := []int{0, 5, 6, 7}[special%4]
						if pass > 0 {
							a.Scores = a.Scores[:min(len(a.Scores), pass*(a.Past+a.Q.Rows))]
						}
						checkAttendVector(t, a, same, fmt.Sprintf("%+v special=%d pass=%d", sh, special, pass))
					}
				}
			}
		}
	}
}

// expHardInputs are float32 inputs whose table-and-cubic result, taken
// without the midpoint guard, rounds to a different float32 than
// math.Exp does: a spread of the 112 such inputs a sweep of every
// float32 in (expMin, expMax) finds. A vector body whose guard misses
// them gets them wrong.
var expHardInputs = []uint32{
	0x39c6be5b, 0x3c783be7, 0x3c485fcc, 0x3e777fec, 0x40315b33, 0x41cbf87b, 0xba55e856, 0xbadd0ab0,
	0xbb9cbb8e, 0xbbf0edf1, 0xbd43299d, 0xbd98bce5, 0xbe2a5162, 0xbf55e956, 0xc0b06073, 0xc159fa1e,
}

// expSumInputs returns exp32 inputs that take the midpoint fallback
// (checked against math.Exp on the way): expHardInputs and a few per
// window around a spread of magnitudes of both signs.
func expSumInputs(t *testing.T) []float32 {
	t.Helper()
	var xs []float32
	for _, b := range expHardInputs {
		checkExp32Range(t, b, b)
		xs = append(xs, math.Float32frombits(b))
	}
	for _, c := range []float32{0.75, 3, -5, 20, -40, 70, -80} {
		b := math.Float32bits(c)
		for _, f := range checkExp32Range(t, b, b+1<<19) {
			xs = append(xs, math.Float32frombits(f))
		}
	}
	if len(xs) == 0 {
		t.Fatal("no midpoint fallback input found")
	}
	return xs
}

// checkExpSum runs expSum over a copy of x with the vector body off and
// then on, and fails unless every element and the sum agree bit for bit.
func checkExpSum(t *testing.T, x []float32, m float32, what string) {
	t.Helper()
	same := bitsEqual
	if !nanPayloadsCompared {
		same = bitsEqualAnyNaN
	}
	want, got := append([]float32(nil), x...), append([]float32(nil), x...)
	var wantSum, gotSum float32
	withAttendVector(false, func() { wantSum = expSum(want, m) })
	withAttendVector(true, func() { gotSum = expSum(got, m) })
	if i, ok := same(want, got); !ok {
		t.Fatalf("%s: e[%d] = exp32(%g−%g) is %#08x, Go loop %#08x", what, i, x[i], m,
			math.Float32bits(got[i]), math.Float32bits(want[i]))
	}
	if _, ok := same([]float32{wantSum}, []float32{gotSum}); !ok {
		t.Fatalf("%s: sum is %#08x, Go loop %#08x", what, math.Float32bits(gotSum), math.Float32bits(wantSum))
	}
}

// TestExpSumVectorMatchesGo compares expSum's vector body with its Go
// loop bit for bit, every e and the sum: rows of 0–67 elements (whole
// groups of four, a tail, and groups the vector body must hand back)
// at score scales 1, 10, 60 and 200 around a softmax max, mixed with
// midpoint-fallback inputs, ±Inf, out-of-range values and two NaN
// payloads. A wrong table, cubic coefficient or rounding step moves
// only a fraction of a percent of results, so each shape runs many rows.
func TestExpSumVectorMatchesGo(t *testing.T) {
	if !attendVector {
		t.Skip("no vector attention body on this build or CPU")
	}
	fallbacks := expSumInputs(t)
	specials := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), -100, 95, -87, 88,
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc0abcd)}
	r := rng.NewString("expsum/vector")
	for _, scale := range []float32{1, 10, 60, 200} {
		for n := 0; n <= 67; n++ {
			for rep := range 24 {
				x := make([]float32, n)
				r.FillNormal(x, scale)
				m := float32(0)
				if rep%2 == 0 {
					// A softmax row: subtract its max.
					m = float32(math.Inf(-1))
					for _, v := range x {
						m = max(m, v)
					}
				}
				switch {
				case rep%4 == 1:
					// Fallback inputs land exactly, since m = 0.
					for i := range x {
						if r.Intn(4) == 0 {
							x[i] = fallbacks[r.Intn(len(fallbacks))]
						}
					}
				case rep%4 == 3:
					for i := range x {
						if r.Intn(16) == 0 {
							x[i] = specials[r.Intn(len(specials))]
						}
					}
				}
				checkExpSum(t, x, m, fmt.Sprintf("scale %g n=%d rep %d", scale, n, rep))
			}
		}
	}
}

// expLaneFlags reports whether exp32Fast or the vector exp lanes hand x,
// a fast-range input, to the math.Exp fallback. The lanes' guard sees
// another float64 result than exp32Fast's, so the two flag different
// inputs; a group of four copies of x shows the lanes' verdict.
func expLaneFlags(x float32) bool {
	if _, ok := exp32Fast(x); !ok {
		return true
	}
	n, _ := expSumAVX2([]float32{x, x, x, x}, 0, 0)
	return n == 0
}

// checkExpLanes runs expSum (at m = 0) and SiLU (on the negated inputs,
// so SiLU's exp32(-v) sees the same x) with the vector bodies against
// their Go loops on xs, in rows of 4,096, and returns the fast-range
// inputs either exp body hands to the math.Exp fallback.
func checkExpLanes(t *testing.T, xs []float32) (flagged []uint32) {
	t.Helper()
	const row = 4096
	neg := make([]float32, row)
	for lo := 0; lo < len(xs); lo += row {
		x := xs[lo:min(lo+row, len(xs))]
		what := fmt.Sprintf("inputs %#08x…%#08x", math.Float32bits(x[0]), math.Float32bits(x[len(x)-1]))
		checkExpSum(t, x, 0, what)
		for i, v := range x {
			neg[i] = -v
		}
		checkSiLU(t, neg[:len(x)], what)
		for g := 0; g < len(x); g += 4 {
			grp := x[g:min(g+4, len(x))]
			if n, _ := expSumAVX2(grp, 0, 0); n == len(grp) {
				continue
			}
			for _, v := range grp {
				if v > expMin && v < expMax && expLaneFlags(v) {
					flagged = append(flagged, math.Float32bits(v))
				}
			}
		}
	}
	return flagged
}

// bitWindow returns the float32s with bit patterns in [lo, hi].
func bitWindow(lo, hi uint32) []float32 {
	xs := make([]float32, 0, hi-lo+1)
	for b := uint64(lo); b <= uint64(hi); b++ {
		xs = append(xs, math.Float32frombits(uint32(b)))
	}
	return xs
}

// TestExpLanesMatchGo sweeps the exp lanes under expSum and SiLU against
// their Go loops, bit for bit: every 2^12-th float32 in (expMin, expMax)
// with its ±3 neighbours, the ±2^16 patterns around both range ends, and
// ±256 patterns around every input that either exp body hands to the
// math.Exp fallback and around each of expHardInputs. The lanes evaluate with fused multiply-adds, so
// their guard flags a different set of inputs than exp32Fast does: the
// windows around both sets go through the vector bodies, not only
// through exp32.
func TestExpLanesMatchGo(t *testing.T) {
	if !attendVector {
		t.Skip("no vector attention body on this build or CPU")
	}
	var xs []float32
	for b := uint64(0); b < 1<<32; b += 1 << 12 {
		if x := math.Float32frombits(uint32(b)); x > expMin && x < expMax {
			xs = append(xs, bitWindow(uint32(max(b, 3)-3), uint32(b+3))...)
		}
	}
	const w = 1 << 16
	for _, end := range []float32{expMin, expMax} {
		c := math.Float32bits(end)
		xs = append(xs, bitWindow(c-w, c+w)...)
	}
	for _, b := range expHardInputs {
		xs = append(xs, bitWindow(b-256, b+256)...)
	}
	flagged := checkExpLanes(t, xs)
	if len(flagged) == 0 {
		t.Fatal("no swept input took the math.Exp fallback")
	}
	var near []float32
	for _, b := range flagged {
		near = append(near, bitWindow(b-256, b+256)...)
	}
	checkExpLanes(t, near)
	t.Logf("%d swept inputs, %d handed to the fallback", len(xs), len(flagged))
}

// FuzzExpSum compares expSum's vector body with its Go loop on
// fuzzer-chosen rows (four bytes per element) and maxima.
func FuzzExpSum(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 64, 64, 0, 0, 128, 64, 0, 0, 160, 64}, float32(5))
	f.Add([]byte{0, 0, 128, 127, 1, 0, 192, 127, 0, 0, 174, 194, 0, 0, 176, 66}, float32(0))
	f.Fuzz(func(t *testing.T, data []byte, m float32) {
		if !attendVector {
			t.Skip("no vector attention body on this build or CPU")
		}
		x := make([]float32, len(data)/4)
		for i := range x {
			b := data[4*i:]
			x[i] = math.Float32frombits(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
		}
		checkExpSum(t, x, m, fmt.Sprintf("m=%g", m))
	})
}

// checkSiLU runs SiLU over a copy of x with the vector body off and then
// on, and fails unless every element agrees bit for bit.
func checkSiLU(t *testing.T, x []float32, what string) {
	t.Helper()
	same := bitsEqual
	if !nanPayloadsCompared {
		same = bitsEqualAnyNaN
	}
	want, got := append([]float32(nil), x...), append([]float32(nil), x...)
	withAttendVector(false, func() { SiLU(want) })
	withAttendVector(true, func() { SiLU(got) })
	if i, ok := same(want, got); !ok {
		t.Fatalf("%s: SiLU(%g) is %#08x, Go loop %#08x", what, x[i],
			math.Float32bits(got[i]), math.Float32bits(want[i]))
	}
}

// TestSiLUVectorMatchesGo compares SiLU's vector body with its Go loop
// bit for bit: rows of 0–67 elements at scales 1, 10, 60 and 200, mixed
// with negated midpoint-fallback inputs (so exp32(-v) falls back), ±0,
// ±Inf, values past the fast range's ends and two NaN payloads.
func TestSiLUVectorMatchesGo(t *testing.T) {
	if !attendVector {
		t.Skip("no vector attention body on this build or CPU")
	}
	fallbacks := expSumInputs(t)
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		-100, 95, 87, -88, math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc0abcd)}
	r := rng.NewString("silu/vector")
	for _, scale := range []float32{1, 10, 60, 200} {
		for n := 0; n <= 67; n++ {
			for rep := range 16 {
				x := make([]float32, n)
				r.FillNormal(x, scale)
				for i := range x {
					switch {
					case rep%4 == 1 && r.Intn(4) == 0:
						x[i] = -fallbacks[r.Intn(len(fallbacks))]
					case rep%4 == 3 && r.Intn(16) == 0:
						x[i] = specials[r.Intn(len(specials))]
					}
				}
				checkSiLU(t, x, fmt.Sprintf("scale %g n=%d rep %d", scale, n, rep))
			}
		}
	}
}

// FuzzSiLU compares SiLU's vector body with its Go loop on
// fuzzer-chosen rows (four bytes per element).
func FuzzSiLU(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 192, 0, 0, 64, 64, 0, 0, 128, 192, 0, 0, 160, 64})
	f.Add([]byte{0, 0, 128, 127, 1, 0, 192, 127, 0, 0, 174, 194, 0, 0, 176, 66, 0, 0, 0, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		if !attendVector {
			t.Skip("no vector attention body on this build or CPU")
		}
		x := make([]float32, len(data)/4)
		for i := range x {
			b := data[4*i:]
			x[i] = math.Float32frombits(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
		}
		checkSiLU(t, x, fmt.Sprintf("%d elements", len(x)))
	})
}

// TestAttendRowBlockAllocFree pins that the attention kernel allocates
// nothing at one worker: the score bodies' lane buffers must stay on the
// stack, which holds only while the vector bodies are called directly.
// The shape is the benchmark model's (head dim 16, GQA 2), for a decode
// step and a prefill block.
func TestAttendRowBlockAllocFree(t *testing.T) {
	for _, n := range []int{1, 16} {
		a := buildAttend(rng.NewString("attend/allocs"),
			attendShape{n: n, past: 200, nHeads: 4, group: 2, headDim: 16})
		bk := NewBackend(1)
		if got := testing.AllocsPerRun(20, func() { bk.AttendRowBlock(a) }); got != 0 {
			t.Fatalf("AttendRowBlock n=%d allocates %v times per call, want 0", n, got)
		}
	}
}
