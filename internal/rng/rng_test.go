package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestNewStringDeterministic(t *testing.T) {
	if NewString("layer0").Uint64() != NewString("layer0").Uint64() {
		t.Fatal("NewString not deterministic")
	}
	if NewString("layer0").Uint64() == NewString("layer1").Uint64() {
		t.Fatal("distinct labels produced identical streams")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first values")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for n := 1; n < 50; n++ {
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(9)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(10, 20)
		if v < 10 || v >= 20 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(17)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.normFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(23)
	items := []int{1, 2, 3, 4, 5, 6, 7, 8}
	s := Sample(r, items, 5)
	if len(s) != 5 {
		t.Fatalf("Sample returned %d items, want 5", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if seen[v] {
			t.Fatalf("duplicate %d in sample", v)
		}
		seen[v] = true
	}
	// Over-ask returns everything.
	if got := Sample(r, items, 100); len(got) != len(items) {
		t.Fatalf("over-sample returned %d items", len(got))
	}
}

func TestChoiceCoversAll(t *testing.T) {
	r := New(29)
	items := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		seen[Choice(r, items)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Choice only hit %d/3 items", len(seen))
	}
}

func TestFillNormalStd(t *testing.T) {
	r := New(31)
	buf := make([]float32, 50000)
	r.FillNormal(buf, 0.02)
	var sumsq float64
	for _, v := range buf {
		sumsq += float64(v) * float64(v)
	}
	std := math.Sqrt(sumsq / float64(len(buf)))
	if math.Abs(std-0.02) > 0.002 {
		t.Fatalf("FillNormal std %v, want ~0.02", std)
	}
}

func TestFillUniformBounds(t *testing.T) {
	r := New(37)
	buf := make([]float32, 10000)
	r.FillUniform(buf, -1, 1)
	for _, v := range buf {
		if v < -1 || v >= 1 {
			t.Fatalf("FillUniform out of bounds: %v", v)
		}
	}
}

func TestShuffleDeterministic(t *testing.T) {
	run := func() []int {
		r := New(41)
		a := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		r.shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		return a
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Shuffle not deterministic for identical seed")
		}
	}
}
