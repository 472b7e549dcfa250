//go:build !amd64 || purego

package tensor

// Without assembly attendVector stays false, so these are never called;
// they only let the Go bodies name the vector bodies on every build.

func scoreBlocksAVX2(s, q, k []float32, width int, inv float32, lanes *[8]float32) {
	panic("tensor: no vector attention body")
}

func scoreBlocks2AVX2(s0, s1, q0, q1, k []float32, width int, inv float32, lanes *[16]float32) {
	panic("tensor: no vector attention body")
}

func scoreBlocks4AVX2(s, q *[4][]float32, off, n int, k []float32, width int, inv float32, lanes *[32]float32) (done int) {
	panic("tensor: no vector attention body")
}

func combineAVX2(o, t, v []float32, width int, inv float32) {
	panic("tensor: no vector attention body")
}

func combine2AVX2(o0, o1, t0, t1, v []float32, width int, inv0, inv1 float32) {
	panic("tensor: no vector attention body")
}

func combine4AVX2(o, t *[4][]float32, off, n int, v []float32, width int, inv *[4]float32) (done int) {
	panic("tensor: no vector attention body")
}

func expSumAVX2(x []float32, m, sum float32) (n int, s float32) {
	panic("tensor: no vector attention body")
}

func siluAVX2(x []float32) (n int) {
	panic("tensor: no vector attention body")
}
