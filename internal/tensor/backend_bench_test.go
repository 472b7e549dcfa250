package tensor

import (
	"testing"

	"repro/internal/rng"
)

// Kernel microbenchmarks per backend, for measuring while you work; the
// benchmark of record's tensor.* per-layer metrics are the checked
// numbers. Run with
// `go test -bench 'MatMul|MatVec|OutputHead|AttendRowBlock' ./internal/tensor/`.

func benchBackends(b *testing.B, run func(b *testing.B, bk Backend)) {
	for _, name := range Backends() {
		bk, err := Select(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) { run(b, bk) })
	}
}

func BenchmarkMatMul(b *testing.B) {
	r := rng.NewString("bench/matmul")
	a, m := NewMatrix(128, 256), NewMatrix(256, 256)
	r.FillNormal(a.Data, 1)
	r.FillNormal(m.Data, 1)
	dst := NewMatrix(128, 256)
	benchBackends(b, func(b *testing.B, bk Backend) {
		for i := 0; i < b.N; i++ {
			bk.MatMul(dst, a, m)
		}
	})
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

func BenchmarkOutputHead(b *testing.B) {
	r := rng.NewString("bench/outputhead")
	const vocab, dim, lanes = 8192, 64, 4
	emb := NewMatrix(vocab, dim)
	r.FillNormal(emb.Data, 1)
	hs := make([][]float32, lanes)
	dsts := make([][]float32, lanes)
	for k := range hs {
		hs[k] = make([]float32, dim)
		r.FillNormal(hs[k], 1)
		dsts[k] = make([]float32, vocab)
	}
	benchBackends(b, func(b *testing.B, bk Backend) {
		for i := 0; i < b.N; i++ {
			bk.OutputHead(dsts, emb, hs)
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
