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
// cannot tolerate quantization error; CodecInt8 and CodecInt4 quantize
// per row (see the package doc). `pcbench quant` measures blobs 3.49×
// (int8) and 6.14× (int4) smaller than fp32 on the seeded model's doc
// module (396,320 → 113,688 / 64,536 bytes): the per-row scale and the
// per-token position weigh more on narrow rows, so the ratios approach
// 4× and 8× only on wide K/V rows.
type Codec int

const (
	// CodecFP32 stores full-precision states (lossless, largest).
	CodecFP32 Codec = iota
	// CodecInt8 stores per-row-scaled int8 states (3.49× smaller on
	// the seeded model, error bounded by scale/2 per element).
	CodecInt8
	// CodecInt4 stores packed per-row-scaled int4 states (6.14×
	// smaller on the seeded model, coarser error bound).
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

// EncodeKV serializes kv under the given codec, quantizing each row
// straight into the blob. It returns the number of bytes written.
func EncodeKV(w io.Writer, kv *kvcache.Cache, codec Codec) (int64, error) {
	if err := checkEncodeShape(kv); err != nil {
		return 0, err
	}
	if codec != CodecFP32 && codec != CodecInt8 && codec != CodecInt4 {
		return 0, fmt.Errorf("quant: cannot encode with unknown codec %d", codec)
	}
	bw := bufio.NewWriter(w)
	hdr := appendU32(nil, codecMagic, codecVersion, uint32(codec))
	// bufio.Writer errors are sticky: a failed Write fails every later
	// write and the final Flush, which reports it.
	if codec == CodecFP32 {
		bw.Write(hdr)
		m, err := kv.WriteTo(bw)
		if err == nil {
			err = bw.Flush()
		}
		return int64(len(hdr)) + m, err
	}
	tokens, kvDim := kv.Len(), kv.KVDim
	hdr = appendU32(hdr, uint32(kv.NLayers), uint32(kvDim), uint32(tokens))
	for _, p := range kv.Pos {
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(int64(p)))
	}
	bw.Write(hdr)
	n := int64(len(hdr))
	rb := codec.rowBytes(kvDim)
	scales := make([]byte, 4*tokens)
	rows := make([]byte, tokens*rb)
	writeRows := func(x []float32) {
		for i := 0; i < tokens; i++ {
			s := quantizeRow(codec, rows[i*rb:(i+1)*rb], x[i*kvDim:(i+1)*kvDim])
			binary.LittleEndian.PutUint32(scales[4*i:], math.Float32bits(s))
		}
		bw.Write(scales)
		bw.Write(rows)
		n += int64(len(scales) + len(rows))
	}
	for l := 0; l < kv.NLayers; l++ {
		writeRows(kv.K[l])
		writeRows(kv.V[l])
	}
	return n, bw.Flush()
}

func appendU32(b []byte, vs ...uint32) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// DecodeKV deserializes a payload written by EncodeKV, dequantizing each
// row straight into the returned full-precision cache, and reports which
// codec produced it. Corrupt or truncated input returns an error.
func DecodeKV(r io.Reader) (*kvcache.Cache, Codec, error) {
	br := bufio.NewReader(r)
	var hdr [3]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, 0, fmt.Errorf("quant: reading spill header: %w", err)
	}
	if hdr[0] != codecMagic {
		return nil, 0, fmt.Errorf("quant: bad spill magic %#x", hdr[0])
	}
	if hdr[1] != codecVersion {
		return nil, 0, fmt.Errorf("quant: unsupported spill version %d", hdr[1])
	}
	codec := Codec(hdr[2])
	var kv *kvcache.Cache
	var err error
	switch codec {
	case CodecFP32:
		kv, err = kvcache.ReadFrom(br)
	case CodecInt8, CodecInt4:
		kv, err = decodeQuantized(br, codec)
	default:
		return nil, codec, fmt.Errorf("quant: unknown spill codec %d", hdr[2])
	}
	if err != nil {
		return nil, codec, err
	}
	return kv, codec, nil
}

// decodeQuantized reads a quantized payload, dequantizing one layer's K
// or V rows at a time.
func decodeQuantized(br io.Reader, codec Codec) (*kvcache.Cache, error) {
	var shape [3]uint32
	if err := binary.Read(br, binary.LittleEndian, &shape); err != nil {
		return nil, fmt.Errorf("quant: reading spill shape: %w", err)
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
	buf, err := kvcache.ReadFull(br, nil, 8*tokens)
	if err != nil {
		return nil, fmt.Errorf("quant: reading spill positions: %w", err)
	}
	kv := kvcache.New(nLayers, kvDim, 0)
	kv.Pos = make([]int, tokens)
	for i := range kv.Pos {
		kv.Pos[i] = int(int64(binary.LittleEndian.Uint64(buf[8*i:])))
	}
	rb := codec.rowBytes(kvDim)
	var scales, rows []byte
	readRows := func() ([]float32, error) {
		var err error
		if scales, err = kvcache.ReadFull(br, scales, 4*tokens); err != nil {
			return nil, err
		}
		if rows, err = kvcache.ReadFull(br, rows, tokens*rb); err != nil {
			return nil, err
		}
		x := make([]float32, tokens*kvDim)
		for i := 0; i < tokens; i++ {
			s := math.Float32frombits(binary.LittleEndian.Uint32(scales[4*i:]))
			dequantizeRow(codec, x[i*kvDim:(i+1)*kvDim], rows[i*rb:(i+1)*rb], s)
		}
		return x, nil
	}
	for l := 0; l < nLayers; l++ {
		if kv.K[l], err = readRows(); err != nil {
			return nil, fmt.Errorf("quant: spill layer %d keys: %w", l, err)
		}
		if kv.V[l], err = readRows(); err != nil {
			return nil, fmt.Errorf("quant: spill layer %d values: %w", l, err)
		}
	}
	return kv, nil
}
