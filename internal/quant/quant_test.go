package quant

import (
	"testing"
	"testing/quick"

	"repro/internal/kvcache"
	"repro/internal/rng"
)

func randKV(nLayers, kvDim, tokens int, seed uint64) *kvcache.Cache {
	r := rng.New(seed)
	kv := kvcache.New(nLayers, kvDim, tokens)
	k := make([]float32, kvDim)
	v := make([]float32, kvDim)
	for i := 0; i < tokens; i++ {
		for l := 0; l < nLayers; l++ {
			r.FillNormal(k, 1)
			r.FillNormal(v, 1)
			kv.AppendToken(l, k, v)
		}
		kv.AppendPos(i * 3) // gapped positions survive compression
	}
	return kv
}

func TestRoundTripErrorBounded(t *testing.T) {
	kv := randKV(4, 32, 50, 1)
	maxErr, err := MaxError(kv)
	if err != nil {
		t.Fatal(err)
	}
	// Per-row symmetric int8: error ≤ scale/2 = max|row|/254. With unit
	// normals, |row| rarely exceeds ~5.
	if maxErr > 0.03 {
		t.Fatalf("round-trip error %v too large", maxErr)
	}
	if maxErr == 0 {
		t.Fatal("suspiciously exact round trip")
	}
}

func TestErrorBoundProperty(t *testing.T) {
	// Per-row guarantee: |x - q·s| ≤ s/2 where s = max|row|/127.
	check := func(seed uint16) bool {
		r := rng.New(uint64(seed) + 7)
		row := make([]float32, 24)
		r.FillUniform(row, -10, 10)
		q := make([]int8, len(row))
		scale := quantizeRow(q, row)
		for i, v := range row {
			rec := float32(q[i]) * scale
			d := v - rec
			if d < 0 {
				d = -d
			}
			if d > scale/2+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPositionsPreserved(t *testing.T) {
	kv := randKV(2, 8, 10, 2)
	rec := Compress(kv).Decompress()
	if rec.Len() != kv.Len() {
		t.Fatalf("len %d != %d", rec.Len(), kv.Len())
	}
	for i := range kv.Pos {
		if rec.Pos[i] != kv.Pos[i] {
			t.Fatal("positions corrupted")
		}
	}
}

func TestCompressionRatio(t *testing.T) {
	kv := randKV(4, 64, 100, 3)
	ratio := float64(kv.Bytes(4)) / float64(Compress(kv).Bytes())
	// fp32 (4 B) → int8 (1 B) + 1 scale per 64-wide row: 8/(2+8/64·4)≈3.76
	if ratio < 3.5 || ratio > 4.0 {
		t.Fatalf("compression ratio %.2f, want ~3.8", ratio)
	}
}

func TestBytesAccounting(t *testing.T) {
	kv := randKV(2, 16, 5, 4)
	c := Compress(kv)
	want := int64(5*2*16*2) + int64(5*2*2*4)
	if c.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", c.Bytes(), want)
	}
	empty := &Compressed{NLayers: 2, KVDim: 16}
	if empty.Bytes() != 0 {
		t.Fatal("empty should be 0 bytes")
	}
}

func TestZeroRow(t *testing.T) {
	kv := kvcache.New(1, 4, 1)
	kv.AppendToken(0, []float32{0, 0, 0, 0}, []float32{0, 0, 0, 0})
	kv.AppendPos(0)
	rec := Compress(kv).Decompress()
	for _, v := range rec.K[0] {
		if v != 0 {
			t.Fatal("zero row must survive exactly")
		}
	}
}

func TestExtremeValuesClamped(t *testing.T) {
	row := []float32{1e30, -1e30, 0.5, -0.5}
	q := make([]int8, 4)
	scale := quantizeRow(q, row)
	if q[0] != 127 || q[1] != -127 {
		t.Fatalf("extremes not at rails: %v", q)
	}
	if scale <= 0 {
		t.Fatal("scale must be positive")
	}
}

func TestMaxErrorEmptyCache(t *testing.T) {
	if _, err := MaxError(kvcache.New(1, 2, 0)); err == nil {
		t.Fatal("expected error for empty cache")
	}
}

func TestDeterministic(t *testing.T) {
	kv := randKV(2, 8, 6, 9)
	a := Compress(kv)
	b := Compress(kv)
	for l := 0; l < 2; l++ {
		for i := range a.kq[l] {
			if a.kq[l][i] != b.kq[l][i] {
				t.Fatal("compression nondeterministic")
			}
		}
	}
}

func BenchmarkCompress(b *testing.B) {
	kv := randKV(4, 64, 256, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(kv)
	}
}

func BenchmarkDecompress(b *testing.B) {
	c := Compress(randKV(4, 64, 256, 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Decompress()
	}
}
