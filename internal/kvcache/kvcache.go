// Package kvcache implements the key/value attention-state containers the
// engine and Prompt Cache share: a growable per-layer KV cache that tracks
// the position ID of every cached token, a segmented zero-copy view (Seq)
// that splices cached module states into a serve without copying a row —
// one step past the paper's buffered concatenation (§4.2), whose
// materializing operators (AppendCache/Concat) remain for snapshots and
// owned storage. Requests that import the same module share its states
// (§3.4) simply by viewing the same Cache. The KV interface is the read/append surface the model works against;
// both *Cache and *Seq satisfy it.
package kvcache

import (
	"fmt"
)

// Cache holds the key and value attention states for every layer of a
// model, together with the position ID assigned to each cached token.
// Rows are tokens; columns are the flattened (kvHeads × headDim) state.
//
// The Pos slice is what makes Prompt Cache possible: unlike a vanilla KV
// cache whose positions are implicitly 0..n-1, cached prompt modules carry
// explicit, possibly discontinuous position IDs (§3.3).
//
// A Cache is not synchronized: one goroutine appends at a time. Any
// number of goroutines may read a cache concurrently once no more writes
// occur — this is how encoded module states are spliced into many serves
// at once; appends never mutate existing rows, only extend the buffers.
type Cache struct {
	NLayers int
	KVDim   int // kvHeads * headDim

	// K[l] and V[l] are flattened [len × KVDim] buffers for layer l.
	// They grow with amortized doubling so that appending decode steps
	// and concatenating modules does not reallocate per token.
	K, V [][]float32

	Pos []int // position ID per cached token, shared by all layers
}

// New returns an empty cache for a model with nLayers layers and kvDim
// key/value width, pre-reserving capacity for capTokens tokens.
func New(nLayers, kvDim, capTokens int) *Cache {
	if nLayers <= 0 || kvDim <= 0 {
		panic(fmt.Sprintf("kvcache: invalid dims layers=%d kvDim=%d", nLayers, kvDim))
	}
	c := &Cache{
		NLayers: nLayers,
		KVDim:   kvDim,
		K:       make([][]float32, nLayers),
		V:       make([][]float32, nLayers),
		Pos:     make([]int, 0, capTokens),
	}
	for l := 0; l < nLayers; l++ {
		c.K[l] = make([]float32, 0, capTokens*kvDim)
		c.V[l] = make([]float32, 0, capTokens*kvDim)
	}
	return c
}

// Len returns the number of cached tokens.
func (c *Cache) Len() int { return len(c.Pos) }

// Bytes returns the memory footprint of the cached states, assuming
// bytesPerScalar bytes per element (2 for the paper's fp16 accounting,
// 4 for this engine's fp32).
func (c *Cache) Bytes(bytesPerScalar int) int64 {
	return int64(c.Len()) * int64(c.NLayers) * int64(c.KVDim) * 2 * int64(bytesPerScalar)
}

// AppendToken appends one token's K/V rows for layer l. The caller must
// append the same token to every layer and then record its position with
// AppendPos exactly once.
func (c *Cache) AppendToken(l int, k, v []float32) {
	if len(k) != c.KVDim || len(v) != c.KVDim {
		panic(fmt.Sprintf("kvcache: AppendToken width %d/%d, want %d", len(k), len(v), c.KVDim))
	}
	c.K[l] = append(c.K[l], k...)
	c.V[l] = append(c.V[l], v...)
}

// AppendPos records the position ID of the token whose per-layer states
// were just appended.
func (c *Cache) AppendPos(pos int) { c.Pos = append(c.Pos, pos) }

// AppendCache appends all of src's tokens to c. This is the buffered
// concatenation operator of §4.2: c's buffers grow amortized-doubling, so
// concatenating k module states performs O(total) copying and no
// per-module reallocation once capacity is reached, unlike a naive
// concat-into-fresh-tensor which reallocates the full prefix each time.
func (c *Cache) AppendCache(src *Cache) {
	if src.NLayers != c.NLayers || src.KVDim != c.KVDim {
		panic(fmt.Sprintf("kvcache: AppendCache shape mismatch (%d,%d) vs (%d,%d)",
			src.NLayers, src.KVDim, c.NLayers, c.KVDim))
	}
	c.Pos = append(c.Pos, src.Pos...)
	for l := 0; l < c.NLayers; l++ {
		c.K[l] = append(c.K[l], src.K[l]...)
		c.V[l] = append(c.V[l], src.V[l]...)
	}
}

// Truncate discards all cached tokens from index n onward.
func (c *Cache) Truncate(n int) {
	if n < 0 || n > c.Len() {
		panic(fmt.Sprintf("kvcache: Truncate(%d) of %d tokens", n, c.Len()))
	}
	c.Pos = c.Pos[:n]
	for l := 0; l < c.NLayers; l++ {
		c.K[l] = c.K[l][:n*c.KVDim]
		c.V[l] = c.V[l][:n*c.KVDim]
	}
}

// MaxPos returns the largest position ID in the cache, or -1 if empty.
func (c *Cache) MaxPos() int {
	max := -1
	for _, p := range c.Pos {
		if p > max {
			max = p
		}
	}
	return max
}
