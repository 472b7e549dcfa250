package tensor

import (
	"testing"

	"repro/internal/rng"
)

// Kernel microbenchmarks per backend, for measuring while you work; the
// benchmark of record's tensor.* per-layer metrics are the checked
// numbers. Run with
// `go test -bench 'MatMul|MatVec|AttendRowBlock|Softmax' ./internal/tensor/`.

func benchBackends(b *testing.B, run func(b *testing.B, bk Backend)) {
	for _, name := range Backends() {
		bk, err := Select(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) { run(b, bk) })
	}
}

// BenchmarkMatMul runs a square prefill-sized product, the benchmark
// model's FFN weights over a 256-row prefill block (w1/w3 64×176, w2
// 176×64), and its output head (1, 4 and 5 rows by the transposed
// embedding, dim 64 × vocab 2,308; 5 is a verify step's width).
func BenchmarkMatMul(b *testing.B) {
	for _, sh := range []struct {
		name    string
		n, k, m int
	}{
		{"128x256x256", 128, 256, 256},
		{"ffn_256x64x176", 256, 64, 176},
		{"ffn_256x176x64", 256, 176, 64},
		{"head_1x64x2308", 1, 64, 2308},
		{"head_4x64x2308", 4, 64, 2308},
		{"head_5x64x2308", 5, 64, 2308},
	} {
		r := rng.NewString("bench/matmul/" + sh.name)
		a, m := NewMatrix(sh.n, sh.k), NewMatrix(sh.k, sh.m)
		r.FillNormal(a.Data, 1)
		r.FillNormal(m.Data, 1)
		dst := NewMatrix(sh.n, sh.m)
		b.Run(sh.name, func(b *testing.B) {
			benchBackends(b, func(b *testing.B, bk Backend) {
				for i := 0; i < b.N; i++ {
					bk.MatMul(dst, a, m)
				}
			})
		})
	}
}

func BenchmarkMatVec(b *testing.B) {
	r := rng.NewString("bench/matvect")
	w := NewMatrix(2048, 512)
	r.FillNormal(w.Data, 1)
	h := make([]float32, 2048)
	r.FillNormal(h, 1)
	dst := make([]float32, 512)
	benchBackends(b, func(b *testing.B, bk Backend) {
		for i := 0; i < b.N; i++ {
			bk.MatVecT(dst, w, h)
		}
	})
}

// BenchmarkAttendRowBlock runs the attention kernel at the benchmark
// workloads' shapes (llama-style: 4 heads, GQA 2, head dim 16) plus one
// MHA shape.
func BenchmarkAttendRowBlock(b *testing.B) {
	for _, sh := range []struct {
		name           string
		n, past, group int
	}{
		{"doc_qa_suffix_16on2000", 16, 2000, 2},
		{"doc_qa_decode_1on2000", 1, 2000, 2},
		{"chat_prefill_256on32", 256, 32, 2},
		{"mha_32on256", 32, 256, 1},
	} {
		a := buildAttend(rng.NewString("bench/attend/"+sh.name),
			attendShape{n: sh.n, past: sh.past, nHeads: 4, group: sh.group, headDim: 16})
		b.Run(sh.name, func(b *testing.B) {
			benchBackends(b, func(b *testing.B, bk Backend) {
				for i := 0; i < b.N; i++ {
					bk.AttendRowBlock(a)
				}
			})
		})
	}
}

// BenchmarkSoftmax runs Softmax over one 2,000-key score row, the length
// of a doc_qa pair's row.
func BenchmarkSoftmax(b *testing.B) {
	src := make([]float32, 2000)
	rng.NewString("bench/softmax").FillNormal(src, 2)
	x := make([]float32, len(src))
	for i := 0; i < b.N; i++ {
		copy(x, src)
		Softmax(x)
	}
}
