// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the repository for weight
// initialization and synthetic workload generation.
//
// Determinism matters here: every experiment in the paper reproduction is
// seeded, so that baseline and Prompt Cache runs see exactly the same
// model weights and the same workloads, and so that every `pcbench`
// report can be regenerated bit-for-bit. The generator is
// SplitMix64 (Steele et al., "Fast Splittable Pseudorandom Number
// Generators"), which is tiny, fast, and passes BigCrush when used as a
// 64-bit stream.
package rng

import "math"

// RNG is a deterministic SplitMix64 pseudo-random generator.
// The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// NewString returns a generator seeded from a string label, so that
// independent subsystems (e.g. per-layer weight init) can derive
// independent streams from human-readable names.
func NewString(label string) *RNG {
	// FNV-1a 64-bit.
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	return New(h)
}

// Split derives an independent child generator. The parent advances by one
// step; the child is seeded with a decorrelated function of that step.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a uniform int in [lo, hi). It panics if hi <= lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi <= lo {
		panic("rng: IntRange with hi <= lo")
	}
	return lo + r.Intn(hi-lo)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / float32(1<<24)
}

// normFloat64 returns a standard normal variate using the Box-Muller
// transform. Two uniforms are consumed per call; no state is cached so the
// stream stays splittable.
func (r *RNG) normFloat64() float64 {
	// Avoid log(0).
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// shuffle permutes the first n elements using the provided swap function.
func (r *RNG) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Choice returns a uniformly chosen element of items. It panics on an
// empty slice.
func Choice[T any](r *RNG, items []T) T {
	if len(items) == 0 {
		panic("rng: Choice on empty slice")
	}
	return items[r.Intn(len(items))]
}

// Sample returns k distinct elements of items in random order. If
// k >= len(items), a shuffled copy of all items is returned.
func Sample[T any](r *RNG, items []T, k int) []T {
	cp := make([]T, len(items))
	copy(cp, items)
	r.shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
	if k > len(cp) {
		k = len(cp)
	}
	return cp[:k]
}

// FillNormal fills dst with normal(0, std) float32 variates.
func (r *RNG) FillNormal(dst []float32, std float32) {
	for i := range dst {
		dst[i] = float32(r.normFloat64()) * std
	}
}

// FillUniform fills dst with uniform [lo, hi) float32 variates.
//
//pclint:ignore unreached test input generator: the quant and tensor kernel tests draw their operands from it
func (r *RNG) FillUniform(dst []float32, lo, hi float32) {
	for i := range dst {
		dst[i] = lo + float32(r.Float32()*(hi-lo))
	}
}
