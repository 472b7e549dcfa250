package quant

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/kvcache"
)

func randomKV(t testing.TB, layers, dim, tokens int, seed int64) *kvcache.Cache {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	kv := kvcache.New(layers, dim, tokens)
	k := make([]float32, dim)
	v := make([]float32, dim)
	for i := 0; i < tokens; i++ {
		for l := 0; l < layers; l++ {
			for j := 0; j < dim; j++ {
				k[j] = float32(rng.NormFloat64())
				v[j] = float32(rng.NormFloat64() * 3)
			}
			kv.AppendToken(l, k, v)
		}
		kv.AppendPos(i*3 + 1) // discontinuous positions, as modules have
	}
	return kv
}

// TestCodecRoundTripFP32: the fp32 codec is bit-lossless.
func TestCodecRoundTripFP32(t *testing.T) {
	kv := randomKV(t, 3, 8, 17, 1)
	got, _ := roundTrip(t, kv, CodecFP32)
	for l := 0; l < kv.NLayers; l++ {
		for i := range kv.K[l] {
			if got.K[l][i] != kv.K[l][i] || got.V[l][i] != kv.V[l][i] {
				t.Fatalf("layer %d element %d differs", l, i)
			}
		}
	}
	for i, p := range kv.Pos {
		if got.Pos[i] != p {
			t.Fatalf("pos[%d] = %d, want %d", i, got.Pos[i], p)
		}
	}
}

// pinnedKV is the fixed payload TestCodecBlobPinned encodes: seeded
// normals at an odd width (int4's last nibble is half a byte), plus a
// zero row, a row whose outlier clamps the rest to zero, and a row of
// exact int4 half-way ties (max 7, so the int4 scale is exactly 1).
func pinnedKV(t testing.TB) *kvcache.Cache {
	kv := randomKV(t, 3, 9, 11, 35)
	copy(kvRow(kv, kv.K, 0, 0), make([]float32, 9))
	copy(kvRow(kv, kv.V, 1, 4), []float32{1e30, -1e30, 0.5, -0.5, 3, -3, 1e-3, 0, 7})
	copy(kvRow(kv, kv.K, 2, 7), []float32{7, 0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 3.5, -7})
	return kv
}

// kvRow returns a view of cached token i's layer-l state in states, kv's
// K or V.
func kvRow(kv *kvcache.Cache, states [][]float32, l, i int) []float32 {
	return states[l][i*kv.KVDim : (i+1)*kv.KVDim : (i+1)*kv.KVDim]
}

// TestCodecBlobPinned pins the on-disk format: the sha256 of each codec's
// blob for pinnedKV. Every spilled module's content hash and every
// SaveAll directory depends on these bytes, so a refactor of the encoder
// must leave them unchanged; a deliberate format change bumps
// codecVersion and replaces the constants.
func TestCodecBlobPinned(t *testing.T) {
	want := map[Codec]string{
		CodecFP32: "4b5247fef9eabc92e01f358e868f14ea57115f93bbdebde221e4ca561480b984",
		CodecInt8: "d0769617302145b582a0804f073d32a34df4d2230db34246f8053c7ad59522a5",
		CodecInt4: "79bc81db39dcf8283b44074c735bfb3b88bd089cd3dbae716dd6f15f7f089d42",
	}
	kv := pinnedKV(t)
	for _, codec := range []Codec{CodecFP32, CodecInt8, CodecInt4} {
		var buf bytes.Buffer
		if _, err := EncodeKV(&buf, kv, codec); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[codec] {
			t.Errorf("%v blob sha256 = %s, want %s", codec, got, want[codec])
		}
	}
}

// TestCodecSizeOrdering: int4 < int8 < fp32 on real payloads.
func TestCodecSizeOrdering(t *testing.T) {
	kv := randomKV(t, 4, 16, 64, 3)
	sizes := map[Codec]int{}
	for _, codec := range []Codec{CodecFP32, CodecInt8, CodecInt4} {
		var buf bytes.Buffer
		if _, err := EncodeKV(&buf, kv, codec); err != nil {
			t.Fatal(err)
		}
		sizes[codec] = buf.Len()
	}
	if !(sizes[CodecInt4] < sizes[CodecInt8] && sizes[CodecInt8] < sizes[CodecFP32]) {
		t.Fatalf("size ordering violated: %v", sizes)
	}
}

// TestCodecCorruptInput: corrupt and truncated payloads return errors,
// never panic, for every codec and at every truncation point.
func TestCodecCorruptInput(t *testing.T) {
	kv := randomKV(t, 2, 4, 9, 4)
	for _, codec := range []Codec{CodecFP32, CodecInt8, CodecInt4} {
		var buf bytes.Buffer
		if _, err := EncodeKV(&buf, kv, codec); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()
		// Truncations at a spread of points, including mid-header.
		for _, n := range []int{0, 1, 4, 8, 11, 12, 20, len(full) / 2, len(full) - 1} {
			if n > len(full) {
				continue
			}
			if _, _, err := DecodeKV(bytes.NewReader(full[:n])); err == nil {
				t.Fatalf("%v: truncation at %d decoded successfully", codec, n)
			}
		}
		// Flipped magic, version, codec and shape fields.
		for _, off := range []int{0, 4, 8, 12, 16, 20} {
			if off+4 > len(full) {
				continue
			}
			bad := append([]byte(nil), full...)
			bad[off] ^= 0xff
			bad[off+3] ^= 0x7f
			// A bit flip may still decode (e.g. in float payloads); it
			// must simply never panic.
			_, _, _ = DecodeKV(bytes.NewReader(bad))
		}
	}
}

// TestDecodeCorruptShapeAllocatesLittle: a header that claims a payload
// near the decoder's bounds, followed by a few bytes, fails without
// allocating what it claims: buffers grow only with the bytes that
// arrive, so a fuzzed or corrupt blob cannot exhaust memory.
func TestDecodeCorruptShapeAllocatesLittle(t *testing.T) {
	u32 := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	blobs := map[string][]byte{
		// kvcache stream: 48 layers × 4 wide × 3M tokens.
		"fp32": append(u32(codecMagic, codecVersion, uint32(CodecFP32), 0x504b4356, 1, 48, 4, 3<<20), make([]byte, 64)...),
		// 1 layer × 2^20 wide × 1K tokens, positions present.
		"int8": append(u32(codecMagic, codecVersion, uint32(CodecInt8), 1, 1<<20, 1<<10), make([]byte, 8<<10+64)...),
		"int4": append(u32(codecMagic, codecVersion, uint32(CodecInt4), 1, 1<<20, 1<<10), make([]byte, 8<<10+64)...),
	}
	for name, blob := range blobs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeKV(bytes.NewReader(blob))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: truncated blob decoded", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
			t.Fatalf("%s: decoding a %d-byte blob allocated %d bytes", name, len(blob), got)
		}
	}
}

// TestParseCodec: names round-trip and junk is rejected.
func TestParseCodec(t *testing.T) {
	for _, codec := range []Codec{CodecFP32, CodecInt8, CodecInt4} {
		got, err := ParseCodec(codec.String())
		if err != nil || got != codec {
			t.Fatalf("ParseCodec(%q) = %v, %v", codec.String(), got, err)
		}
	}
	if _, err := ParseCodec("fp16"); err == nil {
		t.Fatal("unknown codec should fail")
	}
}

// FuzzDecodeKV: arbitrary bytes must never panic the decoder — they
// either fail with an error or decode to a structurally valid cache.
func FuzzDecodeKV(f *testing.F) {
	for _, codec := range []Codec{CodecFP32, CodecInt8, CodecInt4} {
		kv := randomKV(f, 2, 4, 5, int64(codec))
		var buf bytes.Buffer
		if _, err := EncodeKV(&buf, kv, codec); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("SQCP garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		kv, _, err := DecodeKV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if kv == nil {
			t.Fatal("nil cache without error")
		}
		if kv.Len() != len(kv.Pos) {
			t.Fatalf("inconsistent decoded cache: len %d, pos %d", kv.Len(), len(kv.Pos))
		}
		for l := 0; l < kv.NLayers; l++ {
			if len(kv.K[l]) != kv.Len()*kv.KVDim || len(kv.V[l]) != kv.Len()*kv.KVDim {
				t.Fatalf("layer %d buffers inconsistent with token count", l)
			}
		}
	})
}
