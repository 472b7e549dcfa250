package model

import (
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
)

// Sampler selects the next token from logits.
type Sampler interface {
	Sample(logits []float32) int
}

// GreedySampler picks the argmax token. The paper uses deterministic
// (greedy) sampling for all accuracy comparisons (§5.3) so baseline and
// cached runs are directly comparable; so do we.
type GreedySampler struct{}

// Sample returns the argmax token id.
func (GreedySampler) Sample(logits []float32) int { return tensor.ArgMax(logits) }

// TemperatureSampler draws from the softmax distribution at the given
// temperature using a seeded generator.
type TemperatureSampler struct {
	Temperature float32
	RNG         *rng.RNG
}

// Sample draws a token proportional to exp(logit/T).
func (s *TemperatureSampler) Sample(logits []float32) int {
	t := s.Temperature
	if t <= 0 {
		return tensor.ArgMax(logits)
	}
	scaled := make([]float32, len(logits))
	for i, v := range logits {
		scaled[i] = v / t
	}
	tensor.Softmax(scaled)
	u := s.RNG.Float32()
	var acc float32
	for i, p := range scaled {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(scaled) - 1
}

// TopKSampler samples among the k highest logits at the given
// temperature, the truncation strategy most serving systems default to.
type TopKSampler struct {
	K           int
	Temperature float32
	RNG         *rng.RNG
}

// Sample draws from the renormalized top-k distribution.
func (s *TopKSampler) Sample(logits []float32) int {
	k := s.K
	if k <= 0 || k > len(logits) {
		k = len(logits)
	}
	// Partial selection of the top-k indices.
	idx := make([]int, len(logits))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if logits[idx[j]] > logits[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	top := make([]float32, k)
	t := s.Temperature
	if t <= 0 {
		return idx[0]
	}
	for i := 0; i < k; i++ {
		top[i] = logits[idx[i]] / t
	}
	tensor.Softmax(top)
	u := s.RNG.Float32()
	var acc float32
	for i, p := range top {
		acc += p
		if u < acc {
			return idx[i]
		}
	}
	return idx[k-1]
}

// RepetitionPenalty is greedy sampling that divides the logits of
// recently-generated tokens by Penalty (> 1) first — the standard
// mitigation for the token loops untrained and small models fall into.
type RepetitionPenalty struct {
	Penalty float32
	Window  int // how many recent tokens to penalize (0 = all)

	recent []int
}

// Sample applies the penalty and picks the highest adjusted logit.
func (r *RepetitionPenalty) Sample(logits []float32) int {
	if r.Penalty <= 1 || len(r.recent) == 0 {
		tok := GreedySampler{}.Sample(logits)
		r.remember(tok)
		return tok
	}
	adjusted := make([]float32, len(logits))
	copy(adjusted, logits)
	for _, t := range r.recent {
		if t < 0 || t >= len(adjusted) {
			continue
		}
		if adjusted[t] > 0 {
			adjusted[t] /= r.Penalty
		} else {
			adjusted[t] *= r.Penalty
		}
	}
	tok := GreedySampler{}.Sample(adjusted)
	r.remember(tok)
	return tok
}

func (r *RepetitionPenalty) remember(tok int) {
	r.recent = append(r.recent, tok)
	if r.Window > 0 && len(r.recent) > r.Window {
		r.recent = r.recent[len(r.recent)-r.Window:]
	}
}

// SpecOpts carries per-generation speculation controls. Speculation never
// changes output — accepted drafts are exactly the tokens plain decode
// would have sampled — so these knobs trade verify-step width against
// wasted work, not quality. The zero value speculates exactly when the
// engine has a draft source.
type SpecOpts struct {
	// Off opts this generation out of speculation.
	Off bool
	// MaxDraft bounds draft tokens verified per step; zero leaves the
	// engine's draft-source width in force.
	MaxDraft int
}

// GenerateOpts controls autoregressive generation. The decode loop that
// honors it lives in internal/core; this package provides the step it
// drives (DecodeLane, DecodeStepBatchMulti) and the samplers.
type GenerateOpts struct {
	MaxTokens int
	Sampler   Sampler
	// StopToken ends generation when sampled (defaults to tokenizer.EosID).
	StopToken int
	// Speculation configures draft-and-verify decode; it takes effect when
	// the engine has a draft source installed.
	Speculation SpecOpts
}

// Defaults fills unset fields with their documented defaults; the decode
// loop applies it to every request.
func (o *GenerateOpts) Defaults() {
	if o.MaxTokens <= 0 {
		o.MaxTokens = 32
	}
	if o.Sampler == nil {
		o.Sampler = GreedySampler{}
	}
	if o.StopToken == 0 {
		o.StopToken = tokenizer.EosID
	}
}
