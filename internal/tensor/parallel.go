package tensor

import "sync"

// Work thresholds (in multiply-adds) below which the parallel backend
// stays sequential: a goroutine spawn+join costs on the order of
// microseconds, so every shard must carry enough arithmetic to amortize
// it.
const (
	// matMulParallelThreshold gates column-sharding of MatMul and
	// MatVecT.
	matMulParallelThreshold = 32 * 1024
	// outputHeadParallelThreshold gates vocab-sharding of the output
	// head (vocab × dim × lanes), which decode calls once per generated
	// token.
	outputHeadParallelThreshold = 32 * 1024
	// attendParallelThreshold gates unit-sharding of an attention row
	// block, counted as score+combine multiply-adds.
	attendParallelThreshold = 32 * 1024
)

// parallelBackend tiles the scalar kernels across goroutines. The
// tiling is always across independent output elements — matrix product
// columns, output-head vocab ranges, (query tile, KV head) attention
// units — never inside a reduction, so every element is produced by the
// exact scalar code (attendUnits, matMulRange, outputHeadRange) and
// results are bit-identical to the scalar backend on every input.
// Elementwise kernels and the dot-product family are inherited from
// the embedded scalar reference unchanged.
type parallelBackend struct {
	scalarBackend
	workers int
}

func (*parallelBackend) Name() string { return "parallel" }

func (p *parallelBackend) Workers() int { return p.workers }

// shard runs fn over [0, n) split into contiguous ranges across at most
// workers goroutines (one range per worker, the last possibly short).
// workers <= 1 or n <= 1 runs inline.
func shard(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// boundedWorkers caps the fan-out so each shard carries at least
// minWork multiply-adds of the given total.
func boundedWorkers(workers, totalWork, minWork int) int {
	if totalWork < minWork || workers <= 1 {
		return 1
	}
	if maxW := totalWork / minWork; workers > maxW {
		workers = maxW
	}
	return workers
}

func (p *parallelBackend) MatMul(dst, a, b *Matrix) {
	checkMatMul(dst, a, b)
	p.matMul(dst, a, b)
}

func (p *parallelBackend) MatVecT(dst []float32, w *Matrix, h []float32) {
	checkMatVecT(dst, w, h)
	p.matMul(rowOf(dst), rowOf(h), w)
}

// matMul shards dst = a×b by output columns, in runs of eight so only
// the last shard has a ragged run: each worker computes its columns of
// every row, reading only its stripe of b, and each element is still
// the one ascending sum — the boundary slices the output, never the
// reduction. Columns rather than rows, so a one-row decode step and a
// many-row prefill split the same way.
func (p *parallelBackend) matMul(dst, a, b *Matrix) {
	workers := boundedWorkers(p.workers, a.Rows*a.Cols*b.Cols, matMulParallelThreshold)
	if workers <= 1 {
		matMulRange(dst, a, b, 0, b.Cols)
		return
	}
	shard((b.Cols+7)/8, workers, func(lo, hi int) { matMulRange(dst, a, b, 8*lo, min(8*hi, b.Cols)) })
}

func (p *parallelBackend) OutputHead(dsts [][]float32, emb *Matrix, hs [][]float32) {
	if len(hs) == 0 {
		return
	}
	checkOutputHead(dsts, emb, hs)
	workers := boundedWorkers(p.workers, emb.Rows*emb.Cols*len(hs), outputHeadParallelThreshold)
	shard(emb.Rows, workers, func(lo, hi int) { outputHeadRange(dsts, emb, hs, lo, hi) })
}

// attendScores pools per-worker score buffers for sharded attention;
// the caller-provided scratch only serves the sequential path.
var attendScores = sync.Pool{New: func() any { return new([]float32) }}

func (p *parallelBackend) AttendRowBlock(a *AttendArgs) {
	checkAttendArgs(a)
	n := a.Q.Rows
	// Score + combine work across the block: token i touches Past+i+1
	// rows twice per head, HeadDim wide.
	rowSum := n*a.Past + n*(n+1)/2
	workers := boundedWorkers(p.workers, 2*rowSum*a.HeadDim*a.NHeads, attendParallelThreshold)
	units := attendUnitCount(a)
	if workers <= 1 {
		attendUnits(a, a.Scores, 0, units)
		return
	}
	// Contiguous ranges of tile-major units: a worker owns whole query
	// tiles unless there are fewer tiles than workers. Splitting one row's
	// heads across workers makes them write adjacent output columns, the
	// same cache lines, once per key.
	size := min(attendTile, n) * a.Group * (a.Past + n)
	shard(units, workers, func(lo, hi int) {
		buf := attendScores.Get().(*[]float32)
		if cap(*buf) < size {
			*buf = make([]float32, size)
		}
		attendUnits(a, (*buf)[:size], lo, hi)
		attendScores.Put(buf)
	})
}
