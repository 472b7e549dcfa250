package core

import "repro/internal/mining"

// DraftOpts is WithSpeculation's argument. It has no fields: the draft
// source runs on the mining package's defaults (a 3-token context, 4
// drafts per step, 2 hits before a transition is proposed).
type DraftOpts struct{}

// WithSpeculation enables draft-and-verify speculative decoding: retired
// generations train a per-serving-class n-gram draft source, and decode
// lanes verify its proposals in widened steps, accepting exactly the
// prefix plain decode would have produced — output is bit-identical with
// or without it. It runs on either decode driver, fused
// (WithDecodeScheduler) or inline; per-request policy (model.SpecOpts)
// can opt individual generations out or narrow their draft width.
func WithSpeculation(DraftOpts) Option {
	return func(c *Cache) { c.draft = &mining.DraftConfig{} }
}

// SpecStats is the stats document's speculation block: the draft
// source's table statistics plus the decode loop's verify counters.
type SpecStats struct {
	// Enabled is always true: the block is present only when speculation
	// runs. It stays for the /v1/stats contract.
	Enabled bool `json:"enabled"`
	// Observed counts accepted token streams fed to the draft source.
	Observed uint64 `json:"observed"`
	// Classes and Contexts size the n-gram table.
	Classes  int `json:"classes"`
	Contexts int `json:"contexts"`
	// SpecSteps counts steps that verified at least one draft token;
	// DraftProposed and DraftAccepted count draft tokens verified and
	// accepted across all lanes.
	SpecSteps     int64 `json:"spec_steps"`
	DraftProposed int64 `json:"draft_proposed"`
	DraftAccepted int64 `json:"draft_accepted"`
	// AcceptRate is DraftAccepted / DraftProposed (0 before any
	// proposal) — how often the draft source guesses the sampler's next
	// token.
	AcceptRate float64 `json:"accept_rate"`
}
