// Package quant implements attention-state compression for cached prompt
// modules, the §6 future-work direction ("integration of compression
// techniques in the KV cache" to cut Table 2's per-token footprint and
// the host-to-device copy volume).
//
// The scheme is symmetric per-row int8 quantization: each cached token's
// K row and V row (per layer) gets one fp32 scale = max|x|/127, and the
// elements are stored as int8. That is a 3.9× size reduction versus the
// engine's fp32 states (1.95× versus the paper's fp16 accounting), with
// reconstruction error bounded by scale/2 per element. Per-row (rather
// than per-tensor) scales keep outlier tokens from poisoning the whole
// module — the same granularity KV-quantization systems use in practice.
package quant

import (
	"fmt"
	"math"

	"repro/internal/kvcache"
)

// Compressed holds one module's quantized attention states.
type Compressed struct {
	NLayers int
	KVDim   int
	Pos     []int

	// kq[l] and vq[l] are [len × KVDim] int8 payloads; kScale[l][i] is
	// the scale of token i's K row in layer l.
	kq, vq         [][]int8
	kScale, vScale [][]float32
}

// Len returns the number of cached tokens.
func (c *Compressed) Len() int { return len(c.Pos) }

// Bytes returns the compressed storage footprint: int8 payloads plus one
// fp32 scale per row, plus positions.
func (c *Compressed) Bytes() int64 {
	if c.Len() == 0 {
		return 0
	}
	payload := int64(c.Len()) * int64(c.NLayers) * int64(c.KVDim) * 2 // K and V, 1 byte each
	scales := int64(c.Len()) * int64(c.NLayers) * 2 * 4
	return payload + scales
}

// Compress quantizes a KV cache to int8 with per-row scales.
func Compress(kv *kvcache.Cache) *Compressed {
	n := kv.Len()
	c := &Compressed{
		NLayers: kv.NLayers,
		KVDim:   kv.KVDim,
		Pos:     append([]int(nil), kv.Pos...),
		kq:      make([][]int8, kv.NLayers),
		vq:      make([][]int8, kv.NLayers),
		kScale:  make([][]float32, kv.NLayers),
		vScale:  make([][]float32, kv.NLayers),
	}
	for l := 0; l < kv.NLayers; l++ {
		c.kq[l] = make([]int8, n*kv.KVDim)
		c.vq[l] = make([]int8, n*kv.KVDim)
		c.kScale[l] = make([]float32, n)
		c.vScale[l] = make([]float32, n)
		for i := 0; i < n; i++ {
			c.kScale[l][i] = quantizeRow(c.kq[l][i*kv.KVDim:(i+1)*kv.KVDim], kv.KeyRow(l, i))
			c.vScale[l][i] = quantizeRow(c.vq[l][i*kv.KVDim:(i+1)*kv.KVDim], kv.ValueRow(l, i))
		}
	}
	return c
}

// quantizeRow writes round(x/scale) into dst and returns the scale.
func quantizeRow(dst []int8, src []float32) float32 {
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
		return 0
	}
	scale := maxAbs / 127
	inv := 1 / scale
	for i, v := range src {
		q := math.RoundToEven(float64(v * inv))
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[i] = int8(q)
	}
	return scale
}

// Decompress reconstructs a KV cache from the quantized states.
func (c *Compressed) Decompress() *kvcache.Cache {
	kv := kvcache.New(c.NLayers, c.KVDim, c.Len())
	krow := make([]float32, c.KVDim)
	vrow := make([]float32, c.KVDim)
	for i := 0; i < c.Len(); i++ {
		for l := 0; l < c.NLayers; l++ {
			dequantizeRow(krow, c.kq[l][i*c.KVDim:(i+1)*c.KVDim], c.kScale[l][i])
			dequantizeRow(vrow, c.vq[l][i*c.KVDim:(i+1)*c.KVDim], c.vScale[l][i])
			kv.AppendToken(l, krow, vrow)
		}
		kv.AppendPos(c.Pos[i])
	}
	return kv
}

func dequantizeRow(dst []float32, src []int8, scale float32) {
	for i, q := range src {
		dst[i] = float32(q) * scale
	}
}

// MaxError returns the largest elementwise reconstruction error between
// the original cache and its compress→decompress round trip.
//
//pclint:ignore unreached test oracle: the int8 codec tests bound reconstruction error with it
func MaxError(orig *kvcache.Cache) (float32, error) {
	if orig.Len() == 0 {
		return 0, fmt.Errorf("quant: empty cache")
	}
	rec := Compress(orig).Decompress()
	var maxErr float32
	for l := 0; l < orig.NLayers; l++ {
		for i := range orig.K[l] {
			d := orig.K[l][i] - rec.K[l][i]
			if d < 0 {
				d = -d
			}
			if d > maxErr {
				maxErr = d
			}
			d = orig.V[l][i] - rec.V[l][i]
			if d < 0 {
				d = -d
			}
			if d > maxErr {
				maxErr = d
			}
		}
	}
	return maxErr, nil
}
