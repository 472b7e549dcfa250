package kvcache

import (
	"fmt"
)

// Segment is one contiguous run of cached rows at a single layer: K and V
// are flattened [rows × width] buffers and Pos carries the matching
// position IDs. Attention loops walk segments instead of calling a
// per-row accessor through an interface, so the zero-copy view path is
// as tight as the flat-cache path.
type Segment struct {
	K, V []float32
	Pos  []int
}

// KV is the attention-state surface the model reads and extends during
// prefill and decode. Two implementations exist:
//
//   - *Cache: a flat, owned buffer (encoding, baselines, materialized
//     states).
//   - *Seq: an ordered list of immutable segment views into pinned module
//     caches plus one private mutable tail — the zero-copy serve path
//     (§3.4 without the memcpy).
//
// Appends always go to memory the implementation owns; views are never
// written through.
type KV interface {
	// Len returns the number of cached tokens.
	Len() int
	// MaxPos returns the largest position ID, or -1 when empty.
	MaxPos() int
	// Positions returns all position IDs in row order. The slice may
	// alias internal state; callers must not modify it.
	Positions() []int
	// AppendToken appends one token's K/V rows for layer l; the caller
	// appends the same token to every layer and then records its
	// position with AppendPos exactly once.
	AppendToken(l int, k, v []float32)
	// AppendPos records the position ID of the token just appended.
	AppendPos(pos int)
	// Truncate discards cached tokens from index n onward. A Seq can
	// only truncate within its mutable tail.
	Truncate(n int)
	// AppendSegments appends the contiguous segments covering rows
	// [0, rows) of layer l to dst and returns it. Segment boundaries are
	// stable for a given view; the returned buffers alias live state.
	AppendSegments(dst []Segment, l, rows int) []Segment
}

// Compile-time interface checks.
var (
	_ KV = (*Cache)(nil)
	_ KV = (*Seq)(nil)
)

// window is one immutable [lo,hi) token view into a source cache.
type window struct {
	src    *Cache
	lo, hi int
	start  int // global row index of lo
}

// Seq is a segmented, read-only view over precomputed attention states
// plus a private mutable tail. Serving builds one per request: each
// pinned module's cache contributes windows (excluded parameter rows
// become window splits, not copies), and the request's own prefill and
// decode tokens land in the tail. The cached prefix costs O(#segments)
// stitching instead of O(prefix × layers × width) memcpy.
//
// A Seq is not synchronized: one goroutine appends at a time, any number
// may read concurrently once writes stop. The viewed caches must stay
// immutable (and alive — see the engine's pin accounting) for the Seq's
// lifetime.
type Seq struct {
	nLayers int
	width   int

	wins    []window
	base    int // total rows across wins
	basePos int // max position ID across wins, -1 when none

	tail *Cache
}

// NewSeq returns an empty segmented view shaped for nLayers layers and
// width-wide K/V rows, reserving tail capacity for tailCap tokens.
func NewSeq(nLayers, width, tailCap int) *Seq {
	if nLayers <= 0 || width <= 0 {
		panic(fmt.Sprintf("kvcache: invalid Seq dims layers=%d width=%d", nLayers, width))
	}
	return &Seq{
		nLayers: nLayers,
		width:   width,
		basePos: -1,
		tail:    New(nLayers, width, tailCap),
	}
}

// AddView appends tokens [lo,hi) of src as an immutable segment view.
// Views must all be added before the first tail append; src must not be
// mutated for the Seq's lifetime. Empty windows are dropped.
func (s *Seq) AddView(src *Cache, lo, hi int) {
	if src.NLayers != s.nLayers || src.KVDim != s.width {
		panic(fmt.Sprintf("kvcache: AddView shape mismatch (%d,%d) vs (%d,%d)",
			src.NLayers, src.KVDim, s.nLayers, s.width))
	}
	if lo < 0 || hi > src.Len() || lo > hi {
		panic(fmt.Sprintf("kvcache: AddView[%d:%d) of %d tokens", lo, hi, src.Len()))
	}
	if s.tail.Len() > 0 {
		panic("kvcache: AddView after tail appends")
	}
	if lo == hi {
		return
	}
	// Merge with the previous window when the views are contiguous in the
	// same source: exclusion splits that turn out adjacent, or modules
	// stored back to back, collapse into one segment.
	if n := len(s.wins); n > 0 {
		if w := &s.wins[n-1]; w.src == src && w.hi == lo {
			w.hi = hi
			s.extendBase(src, lo, hi)
			return
		}
	}
	s.wins = append(s.wins, window{src: src, lo: lo, hi: hi, start: s.base})
	s.extendBase(src, lo, hi)
}

func (s *Seq) extendBase(src *Cache, lo, hi int) {
	s.base += hi - lo
	for _, p := range src.Pos[lo:hi] {
		if p > s.basePos {
			s.basePos = p
		}
	}
}

// ViewLen returns the number of tokens held by immutable views (the
// cached prefix); Len() - ViewLen() tokens live in the mutable tail.
func (s *Seq) ViewLen() int { return s.base }

// Len returns the number of cached tokens (views + tail).
func (s *Seq) Len() int { return s.base + s.tail.Len() }

// MaxPos returns the largest position ID in the view, or -1 when empty.
func (s *Seq) MaxPos() int {
	if t := s.tail.MaxPos(); t > s.basePos {
		return t
	}
	return s.basePos
}

// Positions returns all position IDs in row order (freshly allocated).
func (s *Seq) Positions() []int {
	out := make([]int, 0, s.Len())
	for _, w := range s.wins {
		out = append(out, w.src.Pos[w.lo:w.hi]...)
	}
	return append(out, s.tail.Pos...)
}

// AppendToken appends one token's K/V rows for layer l to the tail.
func (s *Seq) AppendToken(l int, k, v []float32) { s.tail.AppendToken(l, k, v) }

// AppendPos records the position of the token just appended to the tail.
func (s *Seq) AppendPos(pos int) { s.tail.AppendPos(pos) }

// Truncate discards cached tokens from index n onward. Truncating into
// the immutable views panics: they are shared, pinned state — Materialize
// first if a shorter prefix is really needed.
func (s *Seq) Truncate(n int) {
	if n < s.base {
		panic(fmt.Sprintf("kvcache: Truncate(%d) into immutable views (%d rows); Materialize first", n, s.base))
	}
	s.tail.Truncate(n - s.base)
}

// AppendSegments appends the contiguous layer-l segments covering rows
// [0, rows) to dst and returns it.
func (s *Seq) AppendSegments(dst []Segment, l, rows int) []Segment {
	for _, w := range s.wins {
		if rows <= 0 {
			return dst
		}
		n := w.hi - w.lo
		if n > rows {
			n = rows
		}
		dst = append(dst, Segment{
			K:   w.src.K[l][w.lo*s.width : (w.lo+n)*s.width],
			V:   w.src.V[l][w.lo*s.width : (w.lo+n)*s.width],
			Pos: w.src.Pos[w.lo : w.lo+n],
		})
		rows -= n
	}
	if rows > 0 {
		dst = append(dst, Segment{
			K:   s.tail.K[l][:rows*s.width],
			V:   s.tail.V[l][:rows*s.width],
			Pos: s.tail.Pos[:rows],
		})
	}
	return dst
}

// Materialize copies the full sequence — views and tail — into one flat,
// owned Cache. It is the escape hatch from view lifetime rules: the
// result outlives the viewed modules (pins can be released) and supports
// arbitrary Truncate. Snapshots and very long-lived sessions want this;
// ordinary serves never need it.
func (s *Seq) Materialize() *Cache {
	out := New(s.nLayers, s.width, s.Len())
	for _, w := range s.wins {
		out.Pos = append(out.Pos, w.src.Pos[w.lo:w.hi]...)
		for l := 0; l < s.nLayers; l++ {
			out.K[l] = append(out.K[l], w.src.K[l][w.lo*s.width:w.hi*s.width]...)
			out.V[l] = append(out.V[l], w.src.V[l][w.lo*s.width:w.hi*s.width]...)
		}
	}
	out.AppendCache(s.tail)
	return out
}

// Cache-side implementations of the KV surface that the flat type did
// not already have.
// Positions returns the position IDs in row order. The slice aliases the
// cache's own storage; callers must not modify it.
func (c *Cache) Positions() []int { return c.Pos }

// AppendSegments appends the single contiguous segment covering rows
// [0, rows) of layer l to dst and returns it.
func (c *Cache) AppendSegments(dst []Segment, l, rows int) []Segment {
	if rows <= 0 {
		return dst
	}
	return append(dst, Segment{
		K:   c.K[l][:rows*c.KVDim],
		V:   c.V[l][:rows*c.KVDim],
		Pos: c.Pos[:rows],
	})
}
