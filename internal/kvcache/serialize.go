package kvcache

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Binary serialization for KV caches, so a serving system can persist
// encoded prompt modules across restarts instead of re-running prompt
// module encoding (§3.3's one-time cost) on every boot.
//
// Format (little-endian):
//
//	magic   uint32  'P''C''K''V'
//	version uint32  1
//	nLayers uint32
//	kvDim   uint32
//	tokens  uint32
//	pos     tokens × int64
//	layers  nLayers × (K payload, V payload), each tokens×kvDim float32

const (
	kvMagic   = 0x504b4356 // "PKCV"
	kvVersion = 1
)

// WriteTo serializes the cache. It returns the number of bytes written.
func (c *Cache) WriteTo(w io.Writer) (int64, error) {
	if c.NLayers > maxSerializedLayers || c.KVDim > maxSerializedDim || c.Len() > maxSerializedTokens ||
		int64(c.NLayers)*int64(c.KVDim)*int64(c.Len()) > maxSerializedElements {
		return 0, fmt.Errorf("kvcache: payload %d×%d×%d exceeds the serializable bounds",
			c.NLayers, c.KVDim, c.Len())
	}
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	hdr := []uint32{kvMagic, kvVersion, uint32(c.NLayers), uint32(c.KVDim), uint32(c.Len())}
	for _, h := range hdr {
		if err := write(h); err != nil {
			return n, err
		}
	}
	for _, p := range c.Pos {
		if err := write(int64(p)); err != nil {
			return n, err
		}
	}
	for l := 0; l < c.NLayers; l++ {
		if err := writeFloats(bw, c.K[l], &n); err != nil {
			return n, err
		}
		if err := writeFloats(bw, c.V[l], &n); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

func writeFloats(w io.Writer, xs []float32, n *int64) error {
	buf := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
	}
	m, err := w.Write(buf)
	*n += int64(m)
	return err
}

// maxSerializedTokens bounds deserialization against corrupt headers.
const maxSerializedTokens = 1 << 24

// Per-field shape caps. They exist for overflow safety as much as
// plausibility: with layers ≤ 2^12, kvDim ≤ 2^20 and tokens ≤ 2^24 the
// three-way product below stays ≤ 2^56, so it cannot wrap int64 and
// sneak a huge allocation past the total bound.
const (
	maxSerializedLayers = 1 << 12
	maxSerializedDim    = 1 << 20
)

// maxSerializedElements bounds the total payload (layers × kvDim ×
// tokens), so a corrupt header cannot demand a multi-gigabyte
// allocation before its payload read fails. WriteTo enforces the same
// bounds, so serialization never produces a stream it would refuse to
// read back.
const maxSerializedElements = 1 << 30

// ReadFrom deserializes a cache produced by WriteTo.
func ReadFrom(r io.Reader) (*Cache, error) {
	br := bufio.NewReader(r)
	var hdr [5]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("kvcache: reading header: %w", err)
		}
	}
	if hdr[0] != kvMagic {
		return nil, fmt.Errorf("kvcache: bad magic %#x", hdr[0])
	}
	if hdr[1] != kvVersion {
		return nil, fmt.Errorf("kvcache: unsupported version %d", hdr[1])
	}
	nLayers, kvDim, tokens := int(hdr[2]), int(hdr[3]), int(hdr[4])
	if nLayers <= 0 || nLayers > maxSerializedLayers || kvDim <= 0 || kvDim > maxSerializedDim ||
		tokens < 0 || tokens > maxSerializedTokens {
		return nil, fmt.Errorf("kvcache: implausible header layers=%d kvDim=%d tokens=%d", nLayers, kvDim, tokens)
	}
	if int64(nLayers)*int64(kvDim)*int64(tokens) > maxSerializedElements {
		return nil, fmt.Errorf("kvcache: implausible payload %d×%d×%d", nLayers, kvDim, tokens)
	}
	buf, err := ReadFull(br, nil, 8*tokens)
	if err != nil {
		return nil, fmt.Errorf("kvcache: reading positions: %w", err)
	}
	c := New(nLayers, kvDim, 0)
	c.Pos = make([]int, tokens)
	for i := range c.Pos {
		c.Pos[i] = int(int64(binary.LittleEndian.Uint64(buf[8*i:])))
	}
	for l := 0; l < nLayers; l++ {
		if c.K[l], buf, err = readFloats(br, buf, tokens*kvDim); err != nil {
			return nil, fmt.Errorf("kvcache: layer %d keys: %w", l, err)
		}
		if c.V[l], buf, err = readFloats(br, buf, tokens*kvDim); err != nil {
			return nil, fmt.Errorf("kvcache: layer %d values: %w", l, err)
		}
	}
	return c, nil
}

// readFloats reads n float32s, reusing buf for the raw bytes.
func readFloats(r io.Reader, buf []byte, n int) ([]float32, []byte, error) {
	buf, err := ReadFull(r, buf, 4*n)
	if err != nil {
		return nil, buf, err
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out, buf, nil
}

// readChunk is the most a read allocates before any of its bytes arrive.
const readChunk = 1 << 20

// ReadFull reads exactly n bytes from r into buf's storage and returns
// the n-byte slice. Past buf's capacity the buffer grows only as bytes
// arrive, so a corrupt length field cannot demand a huge allocation
// before its read fails.
func ReadFull(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		k := min(n-len(buf), max(len(buf), readChunk))
		buf = slices.Grow(buf, k)
		m, err := io.ReadFull(r, buf[len(buf):len(buf)+k])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}
