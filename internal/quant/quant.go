// Package quant is the one quantization seam for cached prompt modules:
// the blob codec of the disk tier and of SaveAll snapshots. The paper
// keeps module attention states at full precision in memory (§4.1) and
// leaves compression to future work (§6); this engine follows both
// halves. Resident states stay fp32, so every splice is zero-copy and
// bit-identical to a cold encode, and states are quantized only where
// they leave memory — the storage boundary, where CacheGen (Liu et al.
// 2024) places KV compression too.
//
// The quantized codecs are symmetric per row: each cached token's K row
// and V row (per layer) gets one fp32 scale = max|x|/qmax, and each
// element stores round-half-even(x/scale) clamped to ±qmax. int8 has
// qmax 127 and one byte per value; int4 has qmax 7 and packs two values
// per byte as nibbles biased by 8. Reconstruction error is at most
// scale/2 per element, and per-row (rather than per-tensor) scales keep
// an outlier token from coarsening the whole module.
package quant

import "math"

// qmax returns the largest code magnitude of a quantized codec.
func (c Codec) qmax() float32 {
	if c == CodecInt4 {
		return 7
	}
	return 127
}

// rowBytes returns the encoded width of one kvDim-wide row under a
// quantized codec.
func (c Codec) rowBytes(kvDim int) int {
	if c == CodecInt4 {
		return (kvDim + 1) / 2
	}
	return kvDim
}

// quantizeRow writes src's codes into dst (codec.rowBytes(len(src))
// bytes) and returns the row's scale. An all-zero row has scale 0 and
// zero codes; a NaN element codes as 0.
func quantizeRow(codec Codec, dst []byte, src []float32) float32 {
	var maxAbs float32
	for _, v := range src {
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	if maxAbs == 0 {
		zero := byte(0)
		if codec == CodecInt4 {
			zero = 0x88 // two biased zero nibbles
		}
		for i := range dst {
			dst[i] = zero
		}
		return 0
	}
	scale := maxAbs / codec.qmax()
	inv := 1 / scale
	qmax := float64(codec.qmax())
	for i, v := range src {
		q := math.RoundToEven(float64(v * inv))
		switch {
		case q > qmax:
			q = qmax
		case q < -qmax:
			q = -qmax
		case q != q:
			q = 0
		}
		switch {
		case codec == CodecInt8:
			dst[i] = byte(int8(q))
		case i%2 == 0:
			// High nibble first; an odd-width row leaves the last low
			// nibble 0.
			dst[i/2] = byte(int(q)+8) << 4
		default:
			dst[i/2] |= byte(int(q) + 8)
		}
	}
	return scale
}

// dequantizeRow writes code×scale into dst for each of src's codes.
func dequantizeRow(codec Codec, dst []float32, src []byte, scale float32) {
	if codec == CodecInt8 {
		for i := range dst {
			dst[i] = float32(int8(src[i])) * scale
		}
		return
	}
	for i := range dst {
		nib := src[i/2] & 0x0f
		if i%2 == 0 {
			nib = src[i/2] >> 4
		}
		dst[i] = float32(int(nib)-8) * scale
	}
}
