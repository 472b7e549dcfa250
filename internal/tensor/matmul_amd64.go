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

// matMulRangeAVX2 is matMulRange's vector body. Each row's columns
// [lo, hi8) go through matMulRowAVX2, eight columns to a ymm register;
// the fewer than eight left over go through the Go body, which starts
// its four-column runs at hi8, on the same grid as from lo.
func matMulRangeAVX2(dst, a, b *Matrix, lo, hi int) {
	hi8 := lo + (hi-lo)&^7
	if hi8 > lo {
		// Every weight the vector rows read, bounds-checked once; with
		// no terms (k == 0) they read none.
		var w []float32
		if k := a.Cols; k > 0 {
			w = b.Data[lo : (k-1)*b.Cols+hi8]
		}
		for i := 0; i < a.Rows; i++ {
			matMulRowAVX2(dst.Row(i)[lo:hi8], a.Row(i), w, b.Cols)
		}
	}
	if hi8 < hi {
		matMulRangeGo(dst, a, b, hi8, hi)
	}
}

// matMulRowAVX2 sets d[j] = Σ_p x[p]·w[p·m+j] for j < len(d), a multiple
// of 8, summing ascending in p from +0 with one multiply and one add per
// term (lane = column, no FMA), as matMulRangeGo does per column.
//
//go:noescape
func matMulRowAVX2(d, x, w []float32, m int)

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the OS-enabled register state.
func xgetbv() (eax, edx uint32)
