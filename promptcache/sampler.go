package promptcache

import (
	"repro/internal/model"
	"repro/internal/rng"
)

// Sampler selects the next token from logits. It aliases the engine's
// sampler interface, so any engine sampler satisfies it and custom
// implementations need only this package.
type Sampler = model.Sampler

// The engine's samplers, re-exported so GenConfig.Sampler can be populated
// without importing internal packages.
type (
	// GreedySampler picks the argmax token — the paper's deterministic
	// default (§5.3), and the default when GenConfig.Sampler is nil.
	GreedySampler = model.GreedySampler
	// TemperatureSampler draws from the softmax distribution at a
	// temperature; construct with NewTemperatureSampler for a seeded RNG.
	TemperatureSampler = model.TemperatureSampler
	// TopKSampler samples among the k highest logits; construct with
	// NewTopKSampler for a seeded RNG.
	TopKSampler = model.TopKSampler
	// RepetitionPenalty wraps a sampler, penalizing recently generated
	// tokens.
	RepetitionPenalty = model.RepetitionPenalty
)

// NewTemperatureSampler returns a seeded temperature sampler.
func NewTemperatureSampler(temperature float32, seed uint64) *TemperatureSampler {
	return &TemperatureSampler{Temperature: temperature, RNG: rng.New(seed)}
}

// NewTopKSampler returns a seeded top-k sampler.
func NewTopKSampler(k int, temperature float32, seed uint64) *TopKSampler {
	return &TopKSampler{K: k, Temperature: temperature, RNG: rng.New(seed)}
}
