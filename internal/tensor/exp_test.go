package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// softmaxRef is the test oracle for Softmax: the staged body over
// math.Exp that Softmax ran before exp32 — a max scan, exp(x−max) summed
// ascending, then x·(1/sum). attendPairsRef runs it too, so neither
// oracle depends on exp32.
func softmaxRef(x []float32) {
	if len(x) == 0 {
		return
	}
	maxv := x[0]
	for _, v := range x[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float32
	for i, v := range x {
		e := float32(math.Exp(float64(v - maxv)))
		x[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range x {
		x[i] *= inv
	}
}

// siluRef is the test oracle for SiLU, over math.Exp.
func siluRef(x []float32) {
	for i, v := range x {
		x[i] = v / (1 + float32(math.Exp(float64(-v))))
	}
}

// TestSoftmaxSiLUMatchRef checks Softmax and SiLU against their math.Exp
// oracles bit for bit, on edge rows and on random rows wide enough to
// reach exp32's range ends.
func TestSoftmaxSiLUMatchRef(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	rows := map[string][]float32{
		"one element":   {3.5},
		"all equal":     {2, 2, 2, 2, 2},
		"-Inf":          {1, -inf, 0.5, -inf},
		"-Inf first":    {-inf, 1, 0.5},
		"all -Inf":      {-inf, -inf},
		"+Inf":          {1, inf, 0.5},
		"NaN":           {1, nan, 2},
		"NaN first":     {nan, 1, 2},
		"exact zeros":   {0, -104, -150, -1e4, 200},
		"subnormal e":   {0, -88, -95, -103},
		"signed zeros":  {negZero, 0, negZero},
		"range ends":    {87.9, -86.9, 88, -87, 88.1, -87.1},
		"large and neg": {1000, 1000, -1000},
	}
	r := rng.NewString("softmax/ref")
	for _, n := range []int{2, 7, 64, 2000} {
		x := make([]float32, n)
		r.FillUniform(x, -120, 120)
		rows[fmt.Sprintf("random %d", n)] = x
	}
	for name, row := range rows {
		for _, k := range []struct {
			name     string
			got, ref func([]float32)
		}{{"Softmax", Softmax, softmaxRef}, {"SiLU", SiLU, siluRef}} {
			got, want := append([]float32(nil), row...), append([]float32(nil), row...)
			k.got(got)
			k.ref(want)
			if i, ok := bitsEqual(want, got); !ok {
				t.Fatalf("%s %s: bit mismatch at %d: %v vs %v", k.name, name, i, got[i], want[i])
			}
		}
	}
}

// exp32Mismatch reports whether exp32 differs from math.Exp rounded to
// float32 at the float32 with the given bits, and whether the input
// took the midpoint fallback inside the fast range.
func exp32Mismatch(bits uint32) (bad, fallback bool) {
	x := math.Float32frombits(bits)
	want := math.Float32bits(float32(math.Exp(float64(x))))
	if math.Float32bits(exp32(x)) != want {
		return true, false
	}
	_, ok := exp32Fast(x)
	return false, !ok && x > expMin && x < expMax
}

// checkExp32Range checks every bit pattern in [lo, hi] and returns the
// fast-range inputs that took the midpoint fallback.
func checkExp32Range(t *testing.T, lo, hi uint32) (fallbacks []uint32) {
	t.Helper()
	for b := uint64(lo); b <= uint64(hi); b++ {
		bad, fb := exp32Mismatch(uint32(b))
		if bad {
			x := math.Float32frombits(uint32(b))
			t.Fatalf("exp32(%g) [bits %#08x] = %g, want %g", x, b, exp32(x), float32(math.Exp(float64(x))))
		}
		if fb {
			fallbacks = append(fallbacks, uint32(b))
		}
	}
	return fallbacks
}

// TestExp32MatchesMathExp checks exp32 against float32(math.Exp) bit for
// bit: every 2^12-th bit pattern with its ±3 neighbours, then complete
// windows where the fast path changes hands — the range ends -87 and 88,
// ±0, both signs' subnormals — and around every sampled input that took
// the midpoint fallback.
func TestExp32MatchesMathExp(t *testing.T) {
	var fallbacks []uint32
	for b := uint64(0); b < 1<<32; b += 1 << 12 {
		lo := uint32(max(b, 3) - 3)
		fallbacks = append(fallbacks, checkExp32Range(t, lo, lo+6)...)
	}
	const w = 1 << 16
	for _, x := range []float32{expMin, expMax, -expMin, -expMax} {
		for _, sign := range []uint32{0, 1 << 31} {
			c := math.Float32bits(x) | sign
			fallbacks = append(fallbacks, checkExp32Range(t, c-w, c+w)...)
		}
	}
	for _, sign := range []uint32{0, 1 << 31} {
		// ±0 and every subnormal, then the smallest normals above them.
		fallbacks = append(fallbacks, checkExp32Range(t, sign, sign|(1<<23+w))...)
	}
	if len(fallbacks) == 0 {
		t.Fatal("no sampled input took the midpoint fallback")
	}
	for _, b := range fallbacks {
		checkExp32Range(t, b-256, b+256)
	}
	t.Logf("%d sampled inputs took the midpoint fallback", len(fallbacks))
}

func FuzzExp32(f *testing.F) {
	for _, x := range []float32{0, 1, -1, expMin, expMax, -104, 89, float32(math.Inf(1)), float32(math.NaN())} {
		f.Add(math.Float32bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint32) {
		if bad, _ := exp32Mismatch(bits); bad {
			x := math.Float32frombits(bits)
			t.Fatalf("exp32(%g) [bits %#08x] = %g, want %g", x, bits, exp32(x), float32(math.Exp(float64(x))))
		}
	})
}
