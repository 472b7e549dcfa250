package quant

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/kvcache"
)

// Codec selects the storage precision of a serialized KV payload — the
// knob the disk tier turns to trade blob size against reconstruction
// fidelity. CodecFP32 is the bit-exact passthrough for deployments that
// cannot tolerate quantization error; CodecInt8 and CodecInt4 reuse the
// in-memory compression schemes (per-row scales) at ~3.9× and ~7×
// reduction respectively.
type Codec int

const (
	// CodecFP32 stores full-precision states (lossless, largest).
	CodecFP32 Codec = iota
	// CodecInt8 stores per-row-scaled int8 states (~3.9× smaller,
	// error bounded by scale/2 per element).
	CodecInt8
	// CodecInt4 stores packed per-row-scaled int4 states (~7× smaller,
	// coarser error bound).
	CodecInt4
)

// String implements fmt.Stringer.
func (c Codec) String() string {
	switch c {
	case CodecFP32:
		return "fp32"
	case CodecInt8:
		return "int8"
	case CodecInt4:
		return "int4"
	}
	return fmt.Sprintf("codec(%d)", int(c))
}

// ParseCodec maps a codec name ("fp32", "int8", "int4") to its Codec.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "fp32":
		return CodecFP32, nil
	case "int8":
		return CodecInt8, nil
	case "int4":
		return CodecInt4, nil
	}
	return 0, fmt.Errorf("quant: unknown codec %q (want fp32, int8 or int4)", s)
}

// Serialized spill format (little-endian):
//
//	magic   uint32  'P''C''Q''S'
//	version uint32  1
//	codec   uint32  0=fp32 1=int8 2=int4
//	payload
//
// The fp32 payload is the kvcache serialization stream (its own magic
// doubles as an integrity check). Quantized payloads are:
//
//	nLayers uint32
//	kvDim   uint32
//	tokens  uint32
//	pos     tokens × int64
//	layers  nLayers × (kScale tokens×f32, K rows, vScale tokens×f32, V rows)
//
// where a row is kvDim int8 bytes (int8) or ceil(kvDim/2) packed bytes
// (int4). Decoding validates the header bounds and fails with an error —
// never a panic — on truncated or corrupt input.
const (
	codecMagic   = 0x50435153 // "PCQS"
	codecVersion = 1
)

// maxCodecTokens bounds decoding against corrupt headers, mirroring the
// kvcache deserializer.
const maxCodecTokens = 1 << 24

// maxCodecLayers/maxCodecDim bound the shape fields so a corrupt header
// cannot trigger a huge allocation before the payload read fails.
const (
	maxCodecLayers = 1 << 12
	maxCodecDim    = 1 << 20
	// maxCodecElements caps layers×dim×tokens (per K or V): 2^30 fp32
	// elements is a 4 GiB tensor set, beyond any real spill. The encoder
	// enforces the same bound, so the system can never write a blob it
	// would later classify as corrupt. The per-field caps above keep the
	// three-way product ≤ 2^56, so the check cannot wrap int64.
	maxCodecElements = 1 << 30
)

// checkEncodeShape rejects payloads the decoder would refuse to read
// back: spilling something unreadable is strictly worse than failing
// the spill.
func checkEncodeShape(kv *kvcache.Cache) error {
	if kv.NLayers > maxCodecLayers || kv.KVDim > maxCodecDim || kv.Len() > maxCodecTokens ||
		int64(kv.NLayers)*int64(kv.KVDim)*int64(kv.Len()) > maxCodecElements {
		return fmt.Errorf("quant: payload %d×%d×%d exceeds the serializable bounds",
			kv.NLayers, kv.KVDim, kv.Len())
	}
	return nil
}

// EncodeKV serializes kv under the given codec. It returns the number of
// bytes written.
func EncodeKV(w io.Writer, kv *kvcache.Cache, codec Codec) (int64, error) {
	if err := checkEncodeShape(kv); err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	var n int64
	writeU32 := func(vs ...uint32) error {
		for _, v := range vs {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
			n += 4
		}
		return nil
	}
	if err := writeU32(codecMagic, codecVersion, uint32(codec)); err != nil {
		return n, err
	}
	switch codec {
	case CodecFP32:
		m, err := kv.WriteTo(bw)
		n += m
		if err != nil {
			return n, err
		}
	case CodecInt8:
		c := Compress(kv)
		if err := writeU32(uint32(c.NLayers), uint32(c.KVDim), uint32(c.Len())); err != nil {
			return n, err
		}
		if err := writePos(bw, c.Pos, &n); err != nil {
			return n, err
		}
		for l := 0; l < c.NLayers; l++ {
			if err := writeScaledRows(bw, c.kScale[l], int8ToBytes(c.kq[l]), &n); err != nil {
				return n, err
			}
			if err := writeScaledRows(bw, c.vScale[l], int8ToBytes(c.vq[l]), &n); err != nil {
				return n, err
			}
		}
	case CodecInt4:
		c := CompressInt4(kv)
		if err := writeU32(uint32(c.NLayers), uint32(c.KVDim), uint32(c.Len())); err != nil {
			return n, err
		}
		if err := writePos(bw, c.Pos, &n); err != nil {
			return n, err
		}
		for l := 0; l < c.NLayers; l++ {
			if err := writeScaledRows(bw, c.kScale[l], c.kq[l], &n); err != nil {
				return n, err
			}
			if err := writeScaledRows(bw, c.vScale[l], c.vq[l], &n); err != nil {
				return n, err
			}
		}
	default:
		return n, fmt.Errorf("quant: cannot encode with unknown codec %d", codec)
	}
	return n, bw.Flush()
}

// DecodeKV deserializes a payload written by EncodeKV, reconstructing the
// full-precision cache (dequantizing as needed) and reporting which codec
// produced it. Corrupt or truncated input returns an error.
func DecodeKV(r io.Reader) (*kvcache.Cache, Codec, error) {
	br := bufio.NewReader(r)
	var hdr [3]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, 0, fmt.Errorf("quant: reading spill header: %w", err)
		}
	}
	if hdr[0] != codecMagic {
		return nil, 0, fmt.Errorf("quant: bad spill magic %#x", hdr[0])
	}
	if hdr[1] != codecVersion {
		return nil, 0, fmt.Errorf("quant: unsupported spill version %d", hdr[1])
	}
	codec := Codec(hdr[2])
	switch codec {
	case CodecFP32:
		kv, err := kvcache.ReadFrom(br)
		if err != nil {
			return nil, codec, err
		}
		return kv, codec, nil
	case CodecInt8, CodecInt4:
		kv, err := decodeQuantized(br, codec)
		if err != nil {
			return nil, codec, err
		}
		return kv, codec, nil
	}
	return nil, codec, fmt.Errorf("quant: unknown spill codec %d", hdr[2])
}

// decodeQuantized reads a quantized payload into its compressed form and
// dequantizes.
func decodeQuantized(br io.Reader, codec Codec) (*kvcache.Cache, error) {
	var shape [3]uint32
	for i := range shape {
		if err := binary.Read(br, binary.LittleEndian, &shape[i]); err != nil {
			return nil, fmt.Errorf("quant: reading spill shape: %w", err)
		}
	}
	nLayers, kvDim, tokens := int(shape[0]), int(shape[1]), int(shape[2])
	if nLayers <= 0 || nLayers > maxCodecLayers || kvDim <= 0 || kvDim > maxCodecDim ||
		tokens < 0 || tokens > maxCodecTokens {
		return nil, fmt.Errorf("quant: implausible spill shape layers=%d kvDim=%d tokens=%d", nLayers, kvDim, tokens)
	}
	// Bound the total payload too: the per-field limits still admit
	// shapes whose buffers a corrupt header should not get allocated
	// before the (doomed) payload read fails.
	if int64(nLayers)*int64(kvDim)*int64(tokens) > maxCodecElements {
		return nil, fmt.Errorf("quant: implausible spill payload %d×%d×%d", nLayers, kvDim, tokens)
	}
	pos, err := readPos(br, tokens)
	if err != nil {
		return nil, err
	}
	rowBytes := kvDim
	if codec == CodecInt4 {
		rowBytes = (kvDim + 1) / 2
	}
	readLayer := func() ([]float32, []byte, error) {
		scales, err := readFloat32s(br, tokens)
		if err != nil {
			return nil, nil, err
		}
		rows := make([]byte, tokens*rowBytes)
		if _, err := io.ReadFull(br, rows); err != nil {
			return nil, nil, err
		}
		return scales, rows, nil
	}
	if codec == CodecInt8 {
		c := &Compressed{
			NLayers: nLayers, KVDim: kvDim, Pos: pos,
			kq: make([][]int8, nLayers), vq: make([][]int8, nLayers),
			kScale: make([][]float32, nLayers), vScale: make([][]float32, nLayers),
		}
		for l := 0; l < nLayers; l++ {
			var krows, vrows []byte
			if c.kScale[l], krows, err = readLayer(); err != nil {
				return nil, fmt.Errorf("quant: spill layer %d keys: %w", l, err)
			}
			if c.vScale[l], vrows, err = readLayer(); err != nil {
				return nil, fmt.Errorf("quant: spill layer %d values: %w", l, err)
			}
			c.kq[l] = bytesToInt8(krows)
			c.vq[l] = bytesToInt8(vrows)
		}
		return c.Decompress(), nil
	}
	c := &Compressed4{
		NLayers: nLayers, KVDim: kvDim, Pos: pos,
		kq: make([][]byte, nLayers), vq: make([][]byte, nLayers),
		kScale: make([][]float32, nLayers), vScale: make([][]float32, nLayers),
	}
	for l := 0; l < nLayers; l++ {
		if c.kScale[l], c.kq[l], err = readLayer(); err != nil {
			return nil, fmt.Errorf("quant: spill layer %d keys: %w", l, err)
		}
		if c.vScale[l], c.vq[l], err = readLayer(); err != nil {
			return nil, fmt.Errorf("quant: spill layer %d values: %w", l, err)
		}
	}
	return c.Decompress(), nil
}

func writePos(w io.Writer, pos []int, n *int64) error {
	buf := make([]byte, 8*len(pos))
	for i, p := range pos {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(int64(p)))
	}
	m, err := w.Write(buf)
	*n += int64(m)
	return err
}

func readPos(r io.Reader, tokens int) ([]int, error) {
	buf := make([]byte, 8*tokens)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("quant: reading spill positions: %w", err)
	}
	pos := make([]int, tokens)
	for i := range pos {
		pos[i] = int(int64(binary.LittleEndian.Uint64(buf[8*i:])))
	}
	return pos, nil
}

func writeScaledRows(w io.Writer, scales []float32, rows []byte, n *int64) error {
	if err := writeFloat32s(w, scales, n); err != nil {
		return err
	}
	m, err := w.Write(rows)
	*n += int64(m)
	return err
}

func writeFloat32s(w io.Writer, xs []float32, n *int64) error {
	buf := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
	}
	m, err := w.Write(buf)
	*n += int64(m)
	return err
}

func readFloat32s(r io.Reader, n int) ([]float32, error) {
	buf := make([]byte, 4*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out, nil
}

// int8ToBytes reinterprets an int8 slice as bytes for bulk writing. The
// copy keeps the codec free of unsafe; spill encoding is not on the serve
// hot path.
func int8ToBytes(xs []int8) []byte {
	out := make([]byte, len(xs))
	for i, x := range xs {
		out[i] = byte(x)
	}
	return out
}

func bytesToInt8(bs []byte) []int8 {
	out := make([]int8, len(bs))
	for i, b := range bs {
		out[i] = int8(b)
	}
	return out
}

// MaxErrorInt4 returns the largest elementwise reconstruction error of
// the int4 compress→decompress round trip — the int4 counterpart of
// MaxError, so callers can verify the codec they picked against its
// actual error on their states.
//
//pclint:ignore unreached test oracle: the int4 codec tests bound reconstruction error with it
func MaxErrorInt4(orig *kvcache.Cache) (float32, error) {
	if orig.Len() == 0 {
		return 0, fmt.Errorf("quant: empty cache")
	}
	rec := CompressInt4(orig).Decompress()
	var maxErr float32
	for l := 0; l < orig.NLayers; l++ {
		for i := range orig.K[l] {
			if d := absDiff(orig.K[l][i], rec.K[l][i]); d > maxErr {
				maxErr = d
			}
			if d := absDiff(orig.V[l][i], rec.V[l][i]); d > maxErr {
				maxErr = d
			}
		}
	}
	return maxErr, nil
}

func absDiff(a, b float32) float32 {
	d := a - b
	if d < 0 {
		return -d
	}
	return d
}
