package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEq(a, b, tol float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	dst := NewMatrix(2, 2)
	NewBackend(1).MatMul(dst, a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if !almostEq(dst.Data[i], w, 1e-5) {
			t.Fatalf("MatMul[%d] = %v, want %v", i, dst.Data[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := rng.New(5)
	const n = 17
	a := NewMatrix(n, n)
	r.FillNormal(a.Data, 1)
	id := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		id.Set(i, i, 1)
	}
	dst := NewMatrix(n, n)
	NewBackend(1).MatMul(dst, a, id)
	if MaxAbsDiff(dst.Data, a.Data) > 1e-6 {
		t.Fatal("A*I != A")
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// Above the parallel threshold, the result must be identical to the
	// serial path (same summation order per row).
	r := rng.New(6)
	a := NewMatrix(80, 96)
	b := NewMatrix(96, 80)
	r.FillNormal(a.Data, 1)
	r.FillNormal(b.Data, 1)
	par := NewMatrix(80, 80)
	ser := NewMatrix(80, 80)
	NewBackend(4).MatMul(par, a, b) // 80*80 = 6400 >= threshold
	NewBackend(1).MatMul(ser, a, b)
	if MaxAbsDiff(par.Data, ser.Data) != 0 {
		t.Fatal("parallel and serial matmul differ")
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	NewBackend(1).MatMul(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 2))
}

func TestMatMulAssociativityProperty(t *testing.T) {
	// (A·B)·C ≈ A·(B·C) for random small matrices.
	r := rng.New(7)
	check := func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		n := rr.IntRange(1, 8)
		k := rr.IntRange(1, 8)
		m := rr.IntRange(1, 8)
		p := rr.IntRange(1, 8)
		a := NewMatrix(n, k)
		b := NewMatrix(k, m)
		c := NewMatrix(m, p)
		r.FillNormal(a.Data, 1)
		r.FillNormal(b.Data, 1)
		r.FillNormal(c.Data, 1)
		ab := NewMatrix(n, m)
		NewBackend(1).MatMul(ab, a, b)
		abc1 := NewMatrix(n, p)
		NewBackend(1).MatMul(abc1, ab, c)
		bc := NewMatrix(k, p)
		NewBackend(1).MatMul(bc, b, c)
		abc2 := NewMatrix(n, p)
		NewBackend(1).MatMul(abc2, a, bc)
		return MaxAbsDiff(abc1.Data, abc2.Data) < 1e-3
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestMatVecMatchesMatMul: MatVecT is MatMul with a one-row left
// operand, and a row of a many-row MatMul does not depend on its
// neighbours — the property that lets one layer body serve a decode
// step (one row) and a prefill (many) with the same bits.
func TestMatVecMatchesMatMul(t *testing.T) {
	r := rng.New(8)
	w := NewMatrix(13, 7)
	r.FillNormal(w.Data, 1)
	a := NewMatrix(6, 13)
	fillSigned(r, a.Data)
	block := NewMatrix(6, 7)
	NewBackend(1).MatMul(block, a, w)
	for i := 0; i < a.Rows; i++ {
		got := make([]float32, 7)
		NewBackend(1).MatVecT(got, w, a.Row(i))
		if j, ok := bitsEqual(got, block.Row(i)); !ok {
			t.Fatalf("row %d: MatVecT differs from the block MatMul at column %d", i, j)
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	check := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		n := r.IntRange(1, 64)
		x := make([]float32, n)
		r.FillUniform(x, -20, 20)
		Softmax(x)
		var sum float32
		for _, v := range x {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return almostEq(sum, 1, 1e-4)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	a := []float32{1, 2, 3, 4}
	b := []float32{101, 102, 103, 104}
	Softmax(a)
	Softmax(b)
	if MaxAbsDiff(a, b) > 1e-5 {
		t.Fatal("softmax not shift invariant")
	}
}

func TestSoftmaxLargeValuesStable(t *testing.T) {
	x := []float32{1000, 1000, 1000}
	Softmax(x)
	for _, v := range x {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax overflowed on large inputs")
		}
		if !almostEq(v, 1.0/3.0, 1e-5) {
			t.Fatalf("expected uniform, got %v", v)
		}
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	Softmax(nil) // must not panic
}

func TestRMSNorm(t *testing.T) {
	x := []float32{3, 4}
	w := []float32{1, 1}
	dst := make([]float32, 2)
	RMSNorm(dst, x, w, 0)
	// rms = sqrt((9+16)/2) = sqrt(12.5)
	rms := float32(math.Sqrt(12.5))
	if !almostEq(dst[0], 3/rms, 1e-5) || !almostEq(dst[1], 4/rms, 1e-5) {
		t.Fatalf("RMSNorm = %v", dst)
	}
}

func TestRMSNormUnitOutputRMS(t *testing.T) {
	check := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		n := r.IntRange(2, 128)
		x := make([]float32, n)
		r.FillNormal(x, 3)
		w := make([]float32, n)
		for i := range w {
			w[i] = 1
		}
		dst := make([]float32, n)
		RMSNorm(dst, x, w, 1e-6)
		var ss float64
		for _, v := range dst {
			ss += float64(float64(v) * float64(v))
		}
		out := math.Sqrt(ss / float64(n))
		return math.Abs(out-1) < 1e-2
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLayerNormZeroMeanUnitVar(t *testing.T) {
	r := rng.New(10)
	n := 64
	x := make([]float32, n)
	r.FillNormal(x, 5)
	gamma := make([]float32, n)
	beta := make([]float32, n)
	for i := range gamma {
		gamma[i] = 1
	}
	dst := make([]float32, n)
	LayerNorm(dst, x, gamma, beta, 1e-6)
	var mean, variance float64
	for _, v := range dst {
		mean += float64(v)
	}
	mean = float64(mean / float64(n))
	for _, v := range dst {
		d := float64(v) - mean
		variance += float64(d * d)
	}
	variance = float64(variance / float64(n))
	if math.Abs(mean) > 1e-4 {
		t.Fatalf("LayerNorm mean %v != 0", mean)
	}
	if math.Abs(variance-1) > 1e-3 {
		t.Fatalf("LayerNorm variance %v != 1", variance)
	}
}

func TestSiLU(t *testing.T) {
	x := []float32{0, 1, -1}
	SiLU(x)
	if !almostEq(x[0], 0, 1e-6) {
		t.Fatalf("SiLU(0) = %v", x[0])
	}
	if !almostEq(x[1], 0.731058, 1e-4) {
		t.Fatalf("SiLU(1) = %v", x[1])
	}
	if !almostEq(x[2], -0.268941, 1e-4) {
		t.Fatalf("SiLU(-1) = %v", x[2])
	}
}

func TestGELU(t *testing.T) {
	x := []float32{0, 1, -1, 3}
	GELU(x)
	if !almostEq(x[0], 0, 1e-6) {
		t.Fatalf("GELU(0) = %v", x[0])
	}
	if !almostEq(x[1], 0.841192, 1e-3) {
		t.Fatalf("GELU(1) = %v", x[1])
	}
	if !almostEq(x[2], -0.158808, 1e-3) {
		t.Fatalf("GELU(-1) = %v", x[2])
	}
	if !almostEq(x[3], 2.9964, 1e-3) {
		t.Fatalf("GELU(3) = %v", x[3])
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float32{1, 5, 3}); got != 1 {
		t.Fatalf("ArgMax = %d", got)
	}
	// Tie breaks low.
	if got := ArgMax([]float32{2, 7, 7}); got != 1 {
		t.Fatalf("ArgMax tie = %d", got)
	}
	if got := ArgMax([]float32{-3}); got != 0 {
		t.Fatalf("ArgMax single = %d", got)
	}
}

func TestAddMul(t *testing.T) {
	a := []float32{1, 2, 3}
	Add(a, []float32{10, 20, 30})
	if a[2] != 33 {
		t.Fatalf("Add = %v", a)
	}
	Mul(a, []float32{2, 2, 2})
	if a[0] != 22 {
		t.Fatalf("Mul = %v", a)
	}
}

func TestDotOrthogonal(t *testing.T) {
	if Dot([]float32{1, 0}, []float32{0, 1}) != 0 {
		t.Fatal("orthogonal dot != 0")
	}
}

func TestCosineSimilarity(t *testing.T) {
	if got := CosineSimilarity([]float32{1, 0}, []float32{1, 0}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("cos same = %v", got)
	}
	if got := CosineSimilarity([]float32{1, 0}, []float32{0, 1}); math.Abs(got) > 1e-9 {
		t.Fatalf("cos orth = %v", got)
	}
	if got := CosineSimilarity([]float32{0, 0}, []float32{1, 1}); got != 0 {
		t.Fatalf("cos zero = %v", got)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	if got := MaxAbsDiff([]float32{1, 2}, []float32{1, 5}); got != 3 {
		t.Fatalf("MaxAbsDiff = %v", got)
	}
}
