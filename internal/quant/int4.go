package quant

import (
	"repro/internal/kvcache"
)

// Compressed4 holds int4-quantized attention states: two values per byte
// with a per-row fp32 scale, for a ~7x reduction versus the engine's fp32
// (≈3.5x versus fp16). The coarser grid costs more reconstruction error
// than int8; both points let users pick their spot on the §6
// memory/fidelity curve.
type Compressed4 struct {
	NLayers int
	KVDim   int
	Pos     []int

	kq, vq         [][]byte // packed nibbles, ceil(KVDim/2) bytes per row
	kScale, vScale [][]float32
}

// Len returns the number of cached tokens.
func (c *Compressed4) Len() int { return len(c.Pos) }

// rowBytes returns the packed row width.
func (c *Compressed4) rowBytes() int { return (c.KVDim + 1) / 2 }

// bytes returns the compressed footprint.
func (c *Compressed4) bytes() int64 {
	if c.Len() == 0 {
		return 0
	}
	payload := int64(c.Len()) * int64(c.NLayers) * int64(c.rowBytes()) * 2
	scales := int64(c.Len()) * int64(c.NLayers) * 2 * 4
	return payload + scales
}

// CompressInt4 quantizes a KV cache to packed int4 with per-row scales.
func CompressInt4(kv *kvcache.Cache) *Compressed4 {
	n := kv.Len()
	c := &Compressed4{
		NLayers: kv.NLayers,
		KVDim:   kv.KVDim,
		Pos:     append([]int(nil), kv.Pos...),
		kq:      make([][]byte, kv.NLayers),
		vq:      make([][]byte, kv.NLayers),
		kScale:  make([][]float32, kv.NLayers),
		vScale:  make([][]float32, kv.NLayers),
	}
	rb := c.rowBytes()
	for l := 0; l < kv.NLayers; l++ {
		c.kq[l] = make([]byte, n*rb)
		c.vq[l] = make([]byte, n*rb)
		c.kScale[l] = make([]float32, n)
		c.vScale[l] = make([]float32, n)
		for i := 0; i < n; i++ {
			c.kScale[l][i] = quantizeRow4(c.kq[l][i*rb:(i+1)*rb], kv.KeyRow(l, i))
			c.vScale[l][i] = quantizeRow4(c.vq[l][i*rb:(i+1)*rb], kv.ValueRow(l, i))
		}
	}
	return c
}

// quantizeRow4 packs round(x/scale) ∈ [-7, 7] into nibbles (biased by 8)
// and returns the scale.
func quantizeRow4(dst []byte, src []float32) float32 {
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
		for i := range dst {
			dst[i] = 0x88 // two biased zeros
		}
		return 0
	}
	scale := maxAbs / 7
	inv := 1 / scale
	for i := range dst {
		dst[i] = 0
	}
	for i, v := range src {
		q := int(roundHalfEven(v * inv))
		if q > 7 {
			q = 7
		} else if q < -7 {
			q = -7
		}
		nib := byte(q + 8)
		if i%2 == 0 {
			dst[i/2] |= nib << 4
		} else {
			dst[i/2] |= nib
		}
	}
	return scale
}

func roundHalfEven(x float32) float32 {
	f := float64(x)
	floor := float64(int64(f))
	if f < 0 {
		floor = float64(int64(f - 0.9999999))
	}
	diff := f - floor
	switch {
	case diff > 0.5:
		floor++
	case diff == 0.5:
		if int64(floor)%2 != 0 {
			floor++
		}
	}
	return float32(floor)
}

// Decompress reconstructs a KV cache from int4 states.
func (c *Compressed4) Decompress() *kvcache.Cache {
	kv := kvcache.New(c.NLayers, c.KVDim, c.Len())
	rb := c.rowBytes()
	krow := make([]float32, c.KVDim)
	vrow := make([]float32, c.KVDim)
	for i := 0; i < c.Len(); i++ {
		for l := 0; l < c.NLayers; l++ {
			unpackRow4(krow, c.kq[l][i*rb:(i+1)*rb], c.kScale[l][i])
			unpackRow4(vrow, c.vq[l][i*rb:(i+1)*rb], c.vScale[l][i])
			kv.AppendToken(l, krow, vrow)
		}
		kv.AppendPos(c.Pos[i])
	}
	return kv
}

func unpackRow4(dst []float32, src []byte, scale float32) {
	for i := range dst {
		var nib byte
		if i%2 == 0 {
			nib = src[i/2] >> 4
		} else {
			nib = src[i/2] & 0x0f
		}
		dst[i] = float32(int(nib)-8) * scale
	}
}

// RatioInt4 returns original fp32 bytes / int4 bytes.
func RatioInt4(orig *kvcache.Cache) float64 {
	c := CompressInt4(orig)
	if c.bytes() == 0 {
		return 0
	}
	return float64(orig.Bytes(4)) / float64(c.bytes())
}
