package quant

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/kvcache"
	"repro/internal/rng"
)

var quantized = []Codec{CodecInt8, CodecInt4}

// roundTrip encodes kv under codec and decodes the blob, returning the
// decoded cache and the blob's size.
func roundTrip(t testing.TB, kv *kvcache.Cache, codec Codec) (*kvcache.Cache, int) {
	t.Helper()
	var buf bytes.Buffer
	n, err := EncodeKV(&buf, kv, codec)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("%v: reported %d bytes, wrote %d", codec, n, buf.Len())
	}
	size := buf.Len()
	got, c, err := DecodeKV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c != codec {
		t.Fatalf("decoded codec %v, want %v", c, codec)
	}
	if got.NLayers != kv.NLayers || got.KVDim != kv.KVDim || got.Len() != kv.Len() {
		t.Fatalf("%v: shape %d/%d/%d, want %d/%d/%d", codec,
			got.NLayers, got.KVDim, got.Len(), kv.NLayers, kv.KVDim, kv.Len())
	}
	return got, size
}

// maxError returns the largest elementwise |a-b| over both caches' K and
// V states.
func maxError(a, b *kvcache.Cache) float32 {
	var maxErr float32
	for l := 0; l < a.NLayers; l++ {
		for _, pair := range [2][2][]float32{{a.K[l], b.K[l]}, {a.V[l], b.V[l]}} {
			for i, x := range pair[0] {
				if d := float32(math.Abs(float64(x - pair[1][i]))); d > maxErr {
					maxErr = d
				}
			}
		}
	}
	return maxErr
}

// checkHalfScale fails unless every decoded element of every row is
// within scale/2 of the original, scale = max|row|/qmax.
func checkHalfScale(t testing.TB, codec Codec, orig, rec *kvcache.Cache) {
	t.Helper()
	for l := 0; l < orig.NLayers; l++ {
		for i := 0; i < orig.Len(); i++ {
			for _, rows := range [2][2][]float32{
				{kvRow(orig, orig.K, l, i), kvRow(rec, rec.K, l, i)},
				{kvRow(orig, orig.V, l, i), kvRow(rec, rec.V, l, i)},
			} {
				var rowMax float32
				for _, v := range rows[0] {
					rowMax = max(rowMax, float32(math.Abs(float64(v))))
				}
				half := rowMax / codec.qmax() / 2
				for j, v := range rows[0] {
					if d := float32(math.Abs(float64(v - rows[1][j]))); d > half*(1+1e-5) {
						t.Fatalf("%v layer %d token %d elem %d: error %v exceeds half-scale %v",
							codec, l, i, j, d, half)
					}
				}
			}
		}
	}
}

// TestCodecRoundTripQuantized: each quantized codec's decoded blob is
// within scale/2 of the original per element, and lossy at all.
func TestCodecRoundTripQuantized(t *testing.T) {
	kv := randomKV(t, 2, 6, 23, 2)
	for _, codec := range quantized {
		t.Run(codec.String(), func(t *testing.T) {
			rec, _ := roundTrip(t, kv, codec)
			checkHalfScale(t, codec, kv, rec)
			if maxError(kv, rec) == 0 {
				t.Fatal("suspiciously exact round trip")
			}
		})
	}
}

// TestRoundTripErrorBounded: int8 error ≤ max|row|/254 per element.
// Unit normals rarely exceed ~5, which bounds K rows by 0.03; randomKV's
// V rows are 3σ normals, so the bound over both triples.
func TestRoundTripErrorBounded(t *testing.T) {
	kv := randomKV(t, 4, 32, 50, 1)
	rec, _ := roundTrip(t, kv, CodecInt8)
	checkHalfScale(t, CodecInt8, kv, rec)
	if maxErr := maxError(kv, rec); maxErr > 0.09 || maxErr == 0 {
		t.Fatalf("round-trip error %v, want in (0, 0.09]", maxErr)
	}
}

// TestInt4RoundTripErrorBounded: int4's coarser grid still holds the
// per-element scale/2 bound, scale = max|row|/7.
func TestInt4RoundTripErrorBounded(t *testing.T) {
	kv := randomKV(t, 4, 32, 50, 21)
	rec, _ := roundTrip(t, kv, CodecInt4)
	checkHalfScale(t, CodecInt4, kv, rec)
	if maxError(kv, rec) == 0 {
		t.Fatal("suspiciously exact int4 round trip")
	}
}

// errorBoundProperty checks the half-scale bound on random single-token
// caches of the given row width and value range.
func errorBoundProperty(t *testing.T, codec Codec, width int, lim float32) {
	check := func(seed uint16) bool {
		r := rng.New(uint64(seed) + 7)
		kv := kvcache.New(1, width, 1)
		k, v := make([]float32, width), make([]float32, width)
		r.FillUniform(k, -lim, lim)
		r.FillUniform(v, -lim, lim)
		kv.AppendToken(0, k, v)
		kv.AppendPos(int(seed))
		rec, _ := roundTrip(t, kv, codec)
		checkHalfScale(t, codec, kv, rec)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestErrorBoundProperty: per-row guarantee |x - q·s| ≤ s/2, s = max|row|/127.
func TestErrorBoundProperty(t *testing.T) { errorBoundProperty(t, CodecInt8, 24, 10) }

// TestInt4ErrorBoundProperty: the same with s = max|row|/7; the odd width
// exercises the last, half-filled byte.
func TestInt4ErrorBoundProperty(t *testing.T) { errorBoundProperty(t, CodecInt4, 23, 8) }

// TestPositionsPreserved: discontinuous positions survive every codec.
func TestPositionsPreserved(t *testing.T) {
	kv := randomKV(t, 2, 8, 10, 2)
	for _, codec := range []Codec{CodecFP32, CodecInt8, CodecInt4} {
		rec, _ := roundTrip(t, kv, codec)
		for i := range kv.Pos {
			if rec.Pos[i] != kv.Pos[i] {
				t.Fatalf("%v: positions corrupted", codec)
			}
		}
	}
}

// TestZeroRow: an all-zero int8 row decodes exactly.
func TestZeroRow(t *testing.T) {
	kv := kvcache.New(1, 4, 1)
	kv.AppendToken(0, []float32{0, 0, 0, 0}, []float32{0, 0, 0, 0})
	kv.AppendPos(0)
	rec, _ := roundTrip(t, kv, CodecInt8)
	for _, v := range append(rec.K[0], rec.V[0]...) {
		if v != 0 {
			t.Fatal("zero row must survive exactly")
		}
	}
}

// TestInt4PositionsAndZeros: int4 keeps positions and zero rows exact,
// next to nonzero rows in the same layer.
func TestInt4PositionsAndZeros(t *testing.T) {
	kv := kvcache.New(1, 4, 2)
	kv.AppendToken(0, []float32{0, 0, 0, 0}, []float32{1, -1, 0.5, 0})
	kv.AppendPos(7)
	kv.AppendToken(0, []float32{2, -2, 0, 1}, []float32{0, 0, 0, 0})
	kv.AppendPos(19)
	rec, _ := roundTrip(t, kv, CodecInt4)
	if rec.Pos[0] != 7 || rec.Pos[1] != 19 {
		t.Fatal("positions corrupted")
	}
	for _, v := range append(kvRow(rec, rec.K, 0, 0), kvRow(rec, rec.V, 0, 1)...) {
		if v != 0 {
			t.Fatal("zero row must survive exactly")
		}
	}
}

// TestExtremeValuesClamped: an outlier row's extremes decode at the ±qmax
// rails and its small values quantize to zero.
func TestExtremeValuesClamped(t *testing.T) {
	row := []float32{1e30, -1e30, 0.5, -0.5}
	kv := kvcache.New(1, 4, 1)
	kv.AppendToken(0, row, row)
	kv.AppendPos(0)
	for _, codec := range quantized {
		rec, _ := roundTrip(t, kv, codec)
		rail := codec.qmax() * (row[0] / codec.qmax())
		if got := kvRow(rec, rec.K, 0, 0); got[0] != rail || got[1] != -rail || got[2] != 0 || got[3] != 0 {
			t.Fatalf("%v: extremes decoded as %v, want rails ±%v and zeros", codec, got, rail)
		}
	}
}

// TestDeterministic: encoding the same states twice yields the same blob.
func TestDeterministic(t *testing.T) {
	kv := randomKV(t, 2, 8, 6, 9)
	for _, codec := range quantized {
		var a, b bytes.Buffer
		if _, err := EncodeKV(&a, kv, codec); err != nil {
			t.Fatal(err)
		}
		if _, err := EncodeKV(&b, kv, codec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%v: encoding is nondeterministic", codec)
		}
	}
}

// TestBytesAccounting: a quantized blob is the 24-byte header, 8 bytes
// of position per token and, per layer, K and V each as one fp32 scale
// plus one encoded row per token; an empty cache is the header alone.
func TestBytesAccounting(t *testing.T) {
	kv := randomKV(t, 2, 16, 5, 4)
	for _, codec := range quantized {
		if _, size := roundTrip(t, kv, codec); size != 24+8*5+2*2*(4*5+5*codec.rowBytes(16)) {
			t.Fatalf("%v blob is %d bytes", codec, size)
		}
		if rec, size := roundTrip(t, kvcache.New(2, 16, 0), codec); size != 24 || rec.Len() != 0 {
			t.Fatalf("%v: empty cache encodes to %d bytes and %d tokens, want 24 and 0", codec, size, rec.Len())
		}
	}
}

// blobRatio returns kv's fp32 footprint over its blob size under codec.
func blobRatio(t *testing.T, kv *kvcache.Cache, codec Codec) float64 {
	_, size := roundTrip(t, kv, codec)
	return float64(kv.Bytes(4)) / float64(size)
}

// TestCompressionRatio: fp32 (4 B) → int8 (1 B) plus one scale per
// 64-wide row and 8 B of position per token: 512/(2·64+8+8/4)≈3.7.
func TestCompressionRatio(t *testing.T) {
	if ratio := blobRatio(t, randomKV(t, 4, 64, 100, 3), CodecInt8); ratio < 3.5 || ratio > 4.0 {
		t.Fatalf("compression ratio %.2f, want ~3.7", ratio)
	}
}

// TestInt4CompressionRatio: 512/(2·32+8+8/4)≈7.0, and int4 strictly
// beats int8 on size.
func TestInt4CompressionRatio(t *testing.T) {
	kv := randomKV(t, 4, 64, 100, 23)
	ratio := blobRatio(t, kv, CodecInt4)
	if ratio < 6.5 || ratio > 7.5 {
		t.Fatalf("int4 ratio %.2f, want ~7.0", ratio)
	}
	if int8Ratio := blobRatio(t, kv, CodecInt8); ratio <= int8Ratio {
		t.Fatalf("int4 ratio %.2f should exceed int8's %.2f", ratio, int8Ratio)
	}
}

// TestInt4Int8FidelityOrdering: on the same states int4 reconstructs
// strictly worse than int8.
func TestInt4Int8FidelityOrdering(t *testing.T) {
	kv := randomKV(t, 2, 16, 30, 29)
	rec8, _ := roundTrip(t, kv, CodecInt8)
	rec4, _ := roundTrip(t, kv, CodecInt4)
	if err4, err8 := maxError(kv, rec4), maxError(kv, rec8); err4 <= err8 {
		t.Fatalf("int4 error %v should exceed int8's %v", err4, err8)
	}
}

func BenchmarkEncodeKV(b *testing.B) {
	kv := randomKV(b, 4, 64, 256, 11)
	for _, codec := range []Codec{CodecFP32, CodecInt8, CodecInt4} {
		b.Run(codec.String(), func(b *testing.B) {
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if _, err := EncodeKV(&buf, kv, codec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeKV(b *testing.B) {
	kv := randomKV(b, 4, 64, 256, 12)
	for _, codec := range []Codec{CodecFP32, CodecInt8, CodecInt4} {
		b.Run(codec.String(), func(b *testing.B) {
			var buf bytes.Buffer
			if _, err := EncodeKV(&buf, kv, codec); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, _, err := DecodeKV(bytes.NewReader(buf.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
