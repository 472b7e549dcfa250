package quant

import (
	"testing"
	"testing/quick"

	"repro/internal/kvcache"
	"repro/internal/rng"
)

func TestInt4RoundTripErrorBounded(t *testing.T) {
	kv := randKV(4, 32, 50, 21)
	rec := CompressInt4(kv).Decompress()
	var maxErr, maxScale float32
	for l := 0; l < kv.NLayers; l++ {
		for i := 0; i < kv.Len(); i++ {
			row := kv.KeyRow(l, i)
			var rowMax float32
			for _, v := range row {
				if v < 0 {
					v = -v
				}
				if v > rowMax {
					rowMax = v
				}
			}
			scale := rowMax / 7
			if scale > maxScale {
				maxScale = scale
			}
			got := rec.KeyRow(l, i)
			for j := range row {
				d := row[j] - got[j]
				if d < 0 {
					d = -d
				}
				if d > maxErr {
					maxErr = d
				}
				if d > scale/2+1e-5 {
					t.Fatalf("layer %d token %d: error %v exceeds half-scale %v", l, i, d, scale/2)
				}
			}
		}
	}
	if maxErr == 0 {
		t.Fatal("suspiciously exact int4 round trip")
	}
}

func TestInt4ErrorBoundProperty(t *testing.T) {
	check := func(seed uint16) bool {
		r := rng.New(uint64(seed) + 99)
		row := make([]float32, 23) // odd width exercises the last nibble
		r.FillUniform(row, -8, 8)
		packed := make([]byte, 12)
		scale := quantizeRow4(packed, row)
		out := make([]float32, 23)
		unpackRow4(out, packed, scale)
		for i := range row {
			d := row[i] - out[i]
			if d < 0 {
				d = -d
			}
			if d > scale/2+1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInt4CompressionRatio(t *testing.T) {
	kv := randKV(4, 64, 100, 23)
	ratio := RatioInt4(kv)
	// fp32 4B/elem → 0.5B/elem + scale overhead: 8/(1+8·4/64)≈5.3…
	// exact: per row 64 elems: orig 256B; packed 32B + 4B scale → 7.1x
	if ratio < 6.5 || ratio > 7.5 {
		t.Fatalf("int4 ratio %.2f, want ~7.1", ratio)
	}
	// int4 strictly beats int8 on size.
	if int8Ratio := float64(kv.Bytes(4)) / float64(Compress(kv).Bytes()); ratio <= int8Ratio {
		t.Fatalf("int4 ratio %.2f should exceed int8's %.2f", ratio, int8Ratio)
	}
}

func TestInt4PositionsAndZeros(t *testing.T) {
	kv := kvcache.New(1, 4, 2)
	kv.AppendToken(0, []float32{0, 0, 0, 0}, []float32{1, -1, 0.5, 0})
	kv.AppendPos(7)
	kv.AppendToken(0, []float32{2, -2, 0, 1}, []float32{0, 0, 0, 0})
	kv.AppendPos(19)
	rec := CompressInt4(kv).Decompress()
	if rec.Pos[0] != 7 || rec.Pos[1] != 19 {
		t.Fatal("positions corrupted")
	}
	for _, v := range rec.KeyRow(0, 0) {
		if v != 0 {
			t.Fatal("zero row must survive exactly")
		}
	}
}

func TestInt4Int8FidelityOrdering(t *testing.T) {
	// int8 reconstructs strictly better (not worse) than int4 on the
	// same data.
	kv := randKV(2, 16, 30, 29)
	err8, err := MaxError(kv)
	if err != nil {
		t.Fatal(err)
	}
	rec4 := CompressInt4(kv).Decompress()
	var err4 float32
	for l := 0; l < kv.NLayers; l++ {
		for i := range kv.K[l] {
			d := kv.K[l][i] - rec4.K[l][i]
			if d < 0 {
				d = -d
			}
			if d > err4 {
				err4 = d
			}
		}
	}
	if err4 <= err8 {
		t.Fatalf("int4 error %v should exceed int8's %v", err4, err8)
	}
}
