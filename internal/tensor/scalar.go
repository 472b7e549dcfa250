package tensor

// scalarBackend is the reference implementation: every kernel runs
// sequentially on the calling goroutine, in the canonical accumulation
// order all other backends must reproduce bit-for-bit. The bodies are
// the package-level routines this engine has always run on.
type scalarBackend struct{}

func (*scalarBackend) Name() string { return "scalar" }

func (*scalarBackend) Workers() int { return 1 }

func (*scalarBackend) MatMul(dst, a, b *Matrix) {
	checkMatMul(dst, a, b)
	matMulRange(dst, a, b, 0, b.Cols)
}

func (*scalarBackend) MatVecT(dst []float32, w *Matrix, h []float32) {
	checkMatVecT(dst, w, h)
	matMulRange(rowOf(dst), rowOf(h), w, 0, w.Cols)
}

func (*scalarBackend) Dot(a, b []float32) float32 { return Dot(a, b) }

func (*scalarBackend) Dot2(a, b0, b1 []float32) (float32, float32) { return Dot2(a, b0, b1) }

func (*scalarBackend) Dot4(a, b0, b1, b2, b3 []float32) (float32, float32, float32, float32) {
	return Dot4(a, b0, b1, b2, b3)
}

func (*scalarBackend) AttendRowBlock(a *AttendArgs) {
	checkAttendArgs(a)
	attendUnits(a, a.Scores, 0, attendUnitCount(a))
}

func (*scalarBackend) OutputHead(dsts [][]float32, emb *Matrix, hs [][]float32) {
	if len(hs) == 0 {
		return
	}
	checkOutputHead(dsts, emb, hs)
	outputHeadRange(dsts, emb, hs, 0, emb.Rows)
}

func (*scalarBackend) Softmax(x []float32) { Softmax(x) }

func (*scalarBackend) RMSNorm(dst, x, weight []float32, eps float32) { RMSNorm(dst, x, weight, eps) }

func (*scalarBackend) LayerNorm(dst, x, gamma, beta []float32, eps float32) {
	LayerNorm(dst, x, gamma, beta, eps)
}

func (*scalarBackend) SiLU(x []float32) { SiLU(x) }

func (*scalarBackend) GELU(x []float32) { GELU(x) }
