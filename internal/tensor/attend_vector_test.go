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

// TestAttendVectorMatchesGo compares the attention leaves' vector bodies
// with their Go bodies directly, bit for bit: each (query tile, KV head)
// unit runs with the probe bool off, then on, and both the outputs and
// the unit's score scratch (which ends holding its exp values) must
// agree. Head dims are multiples of 8, so the vector bodies run; Group
// 1–4 puts odd pairs through the one-pair bodies; spans of 5, 13, 13
// and 7, 14 or 25 rows leave every span a tail the Go loops finish,
// and spans of 5, 12, 13 and 8, 15 or 26 rows end pair 0's keys on a
// whole vector block; qScale 64 drives weights to 0, so combine's
// zero-weight path runs. Non-finite K and V carry ±Inf and NaNs with
// distinct payloads, and the built rows make payloads meet where only
// an operand's order decides which one survives: an Inf − Inf NaN and a
// math.NaN() in one score sum and in one combine sum, and two NaN
// scores whose weights meet a NaN V element in the last key; and NaN
// query elements meet NaN keys in one product.
func TestAttendVectorMatchesGo(t *testing.T) {
	if !attendVector {
		t.Skip("no vector attention body on this build or CPU")
	}
	same := bitsEqual
	if !nanPayloadsCompared {
		same = bitsEqualAnyNaN
	}
	const T = attendTile
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	r := rng.NewString("attend/vector")
	for _, hd := range []int{8, 16, 24, 32} {
		for _, group := range []int{1, 2, 3, 4} {
			for _, n := range []int{1, T, 2*T + 3} {
				for _, qScale := range []float32{0, 64} {
					for special := range 8 {
						splits := []int{5, 18, 31}
						if special%2 == 0 {
							splits = []int{5, 17, 30}
						}
						sh := attendShape{n: n, past: 37, nHeads: 2 * group, group: group, headDim: hd,
							qScale: qScale, splits: splits}
						a := buildAttend(r, sh)
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
							}
						}
						switch special {
						case 4:
							// Row 2's score for every head of KV head 0 sums
							// Inf·1 + (−Inf)·1, then a math.NaN() term.
							for i := 0; i < a.Q.Rows; i++ {
								for h := 0; h < a.NHeads; h++ {
									a.Q.Row(i)[h*hd], a.Q.Row(i)[h*hd+1] = 1, 1
								}
							}
							k := keyRow(a, 2, false)
							k[0], k[1], k[2] = inf, -inf, nan
						case 5:
							// Element 3 of KV head 1 sums Inf, −Inf and then
							// math.NaN() over rows 9, 10 and 13 and again over
							// rows 20, 26 and 27, with finite weights.
							for _, rows := range [][3]int{{9, 10, 13}, {20, 26, 27}} {
								base := hd + 3
								keyRow(a, rows[0], true)[base] = inf
								keyRow(a, rows[1], true)[base] = -inf
								keyRow(a, rows[2], true)[base] = nan
							}
						case 7:
							// NaN query elements meet NaN keys in one product.
							injectSpecials(r, a.Q.Data, 32)
						case 6:
							// Rows 9 and 37 score NaN with two payloads, so every
							// weight is NaN and the last key's is the second
							// payload; that key's V holds a third.
							for g := 0; g < a.Width; g += hd {
								keyRow(a, 9, false)[g+1] = math.Float32frombits(0x7fc00001)
								keyRow(a, 37, false)[g+2] = math.Float32frombits(0xffc0abcd)
								keyRow(a, 37, true)[g+4] = math.Float32frombits(0x7fc01234)
							}
						}
						what := fmt.Sprintf("%+v special=%d", sh, special)
						for u := range attendUnitCount(a) {
							var wantOut, wantScores []float32
							run := func(vec bool) {
								withAttendVector(vec, func() { attendUnits(a, a.Scores, u, u+1) })
							}
							run(false)
							wantOut = append(wantOut, a.Out.Data...)
							wantScores = append(wantScores, a.Scores...)
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
