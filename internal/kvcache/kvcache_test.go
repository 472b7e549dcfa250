package kvcache

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// fill appends n tokens with recognizable values to a cache.
func fill(c *Cache, n, posBase int, seed uint64) {
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		for l := 0; l < c.NLayers; l++ {
			k := make([]float32, c.KVDim)
			v := make([]float32, c.KVDim)
			r.FillNormal(k, 1)
			r.FillNormal(v, 1)
			c.AppendToken(l, k, v)
		}
		c.AppendPos(posBase + i)
	}
}

func TestAppendAndLen(t *testing.T) {
	c := New(2, 4, 8)
	fill(c, 3, 0, 1)
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if len(c.K[0]) != 3*4 || len(c.V[1]) != 3*4 {
		t.Fatal("layer buffers wrong size")
	}
}

func TestPositionsTracked(t *testing.T) {
	c := New(1, 2, 4)
	fill(c, 3, 100, 2)
	want := []int{100, 101, 102}
	for i, p := range c.Pos {
		if p != want[i] {
			t.Fatalf("Pos[%d] = %d, want %d", i, p, want[i])
		}
	}
	if c.MaxPos() != 102 {
		t.Fatalf("MaxPos = %d", c.MaxPos())
	}
}

func TestMaxPosEmpty(t *testing.T) {
	if New(1, 2, 0).MaxPos() != -1 {
		t.Fatal("empty MaxPos should be -1")
	}
}

func TestCloneIndependence(t *testing.T) {
	c := New(2, 4, 4)
	fill(c, 2, 0, 3)
	cl := c.Clone()
	cl.K[0][0] = 999
	cl.Pos[0] = 999
	if c.K[0][0] == 999 || c.Pos[0] == 999 {
		t.Fatal("Clone aliases original")
	}
}

func TestSliceCopies(t *testing.T) {
	c := New(1, 2, 8)
	fill(c, 5, 10, 4)
	s := c.Slice(1, 4)
	if s.Len() != 3 {
		t.Fatalf("slice len = %d", s.Len())
	}
	if s.Pos[0] != 11 || s.Pos[2] != 13 {
		t.Fatalf("slice pos = %v", s.Pos)
	}
	if s.KeyRow(0, 0)[0] != c.KeyRow(0, 1)[0] {
		t.Fatal("slice row mismatch")
	}
	s.K[0][0] = 777
	if c.K[0][2] == 777 {
		t.Fatal("Slice must deep-copy")
	}
}

func TestSliceBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := New(1, 2, 2)
	fill(c, 2, 0, 5)
	c.Slice(1, 5)
}

func TestConcatOrderAndContent(t *testing.T) {
	a := New(2, 3, 4)
	b := New(2, 3, 4)
	fill(a, 2, 0, 6)
	fill(b, 3, 50, 7)
	out := Concat(a, b)
	if out.Len() != 5 {
		t.Fatalf("concat len = %d", out.Len())
	}
	wantPos := []int{0, 1, 50, 51, 52}
	for i, p := range out.Pos {
		if p != wantPos[i] {
			t.Fatalf("concat pos[%d] = %d", i, p)
		}
	}
	// Content preserved per layer.
	for l := 0; l < 2; l++ {
		if out.KeyRow(l, 0)[0] != a.KeyRow(l, 0)[0] {
			t.Fatal("concat lost a's content")
		}
		if out.ValueRow(l, 2)[1] != b.ValueRow(l, 0)[1] {
			t.Fatal("concat lost b's content")
		}
	}
}

func TestAppendCacheGrowsWithoutRealloc(t *testing.T) {
	// With sufficient pre-reserved capacity, AppendCache must not move
	// the underlying buffer (buffered concat, §4.2).
	base := New(1, 4, 100)
	fill(base, 10, 0, 8)
	ptrBefore := &base.K[0][0]
	add := New(1, 4, 10)
	fill(add, 10, 10, 9)
	base.AppendCache(add)
	if &base.K[0][0] != ptrBefore {
		t.Fatal("AppendCache reallocated despite spare capacity")
	}
	if base.Len() != 20 {
		t.Fatalf("len = %d", base.Len())
	}
}

func TestAppendCacheShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := New(1, 4, 1)
	b := New(2, 4, 1)
	a.AppendCache(b)
}

func TestTruncate(t *testing.T) {
	c := New(2, 2, 8)
	fill(c, 5, 0, 10)
	c.Truncate(2)
	if c.Len() != 2 || len(c.K[1]) != 2*2 {
		t.Fatal("Truncate failed")
	}
}

func TestBytes(t *testing.T) {
	c := New(4, 8, 4)
	fill(c, 3, 0, 11)
	// 3 tokens * 4 layers * 8 kvdim * 2 (K and V) * 2 bytes
	if got := c.Bytes(2); got != 3*4*8*2*2 {
		t.Fatalf("Bytes = %d", got)
	}
}

func TestConcatPreservesTotalProperty(t *testing.T) {
	check := func(n1, n2 uint8) bool {
		a := New(1, 2, int(n1))
		b := New(1, 2, int(n2))
		fill(a, int(n1%32), 0, uint64(n1)+1)
		fill(b, int(n2%32), 1000, uint64(n2)+2)
		if a.Len() == 0 && b.Len() == 0 {
			return Concat(a, b).Len() == 0
		}
		return Concat(a, b).Len() == a.Len()+b.Len()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
