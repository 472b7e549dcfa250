//go:build !purego

package tensor

// The AVX2 body of matMulRange (matmul_amd64.s). A start-up probe picks
// it, and the attention leaves' AVX2 bodies (attend_amd64.go), when the
// CPU has AVX2 and FMA (the exp lanes' float64 steps use it) and the OS
// saves the ymm registers; the purego build tag leaves this file out, so
// both run the Go bodies.

func init() {
	if hasAVX2FMA() {
		vectorISA = "avx2"
		matMulVector = matMulRangeAVX2
		attendVector = true
	}
}

// hasAVX2FMA reports whether the CPU implements AVX2 (CPUID leaf 7) and
// FMA (leaf 1), and the OS has enabled the xmm and ymm state (OSXSAVE,
// then XGETBV).
func hasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if ecx1&fma == 0 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// matMulRangeAVX2 is matMulRange's vector body. Its columns [lo, hi8),
// eight to a ymm register, go through matMulRows2AVX2 two rows at a
// time, so each weight vector is loaded once per pair of rows; an odd
// last row goes through matMulRowAVX2. The fewer than eight columns left
// over go through the Go body, which starts its four-column runs at hi8,
// on the same grid as from lo. Every output is the same one sum whichever
// leaf computes it.
func matMulRangeAVX2(dst, a, b *Matrix, lo, hi int) {
	hi8 := lo + (hi-lo)&^7
	if hi8 > lo {
		// Every weight the vector rows read, bounds-checked once; with
		// no terms (k == 0) they read none.
		var w []float32
		if k := a.Cols; k > 0 {
			w = b.Data[lo : (k-1)*b.Cols+hi8]
		}
		i := 0
		for ; i+2 <= a.Rows; i += 2 {
			d0, d1 := dst.Row(i)[lo:hi8], dst.Row(i + 1)[lo:hi8]
			matMulRows2AVX2(d0, d1, a.Row(i), a.Row(i+1), w, b.Cols)
		}
		if i < a.Rows {
			matMulRowAVX2(dst.Row(i)[lo:hi8], a.Row(i), w, b.Cols)
		}
	}
	if hi8 < hi {
		matMulRangeGo(dst, a, b, hi8, hi)
	}
}

// matMulRowAVX2 sets d[j] = Σ_p x[p]·w[p·m+j] for j < len(d), a multiple
// of 8, summing ascending in p from +0 with one multiply and one add per
// term (lane = column, no FMA), as matMulRangeGo does per column. It
// walks 32-column strips in four accumulators, then runs of 8.
//
//go:noescape
func matMulRowAVX2(d, x, w []float32, m int)

// matMulRows2AVX2 is matMulRowAVX2 for two rows, d0 from x0 and d1 from
// x1 (len(d1) == len(d0), len(x1) == len(x0)): each weight vector it
// loads is multiplied by both rows' x[p]. It walks 32-column strips in
// eight accumulators, then one 16-column tier, then a run of 8, so
// widths of 32k + 16 (the FFN's 176 and 688) run no 8-column tail.
//
//go:noescape
func matMulRows2AVX2(d0, d1, x0, x1, w []float32, m int)

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the OS-enabled register state.
func xgetbv() (eax, edx uint32)
