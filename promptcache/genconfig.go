package promptcache

import "repro/internal/model"

// SpecConfig is the per-request speculative-decoding surface inside
// GenConfig.
type SpecConfig struct {
	// Enabled false opts this generation out. nil and true both defer
	// to the serving side: speculate exactly when the engine was built
	// WithSpeculation. The pointer keeps "unset" distinct from "off"
	// across JSON round trips.
	Enabled *bool `json:"enabled,omitempty"`
	// MaxDraft bounds draft tokens verified per step; zero leaves the
	// engine's width of 4, which a request can narrow but never exceed.
	// Output never depends on it — larger drafts trade wasted verify
	// width for more tokens per step when the draft source is right.
	MaxDraft int `json:"max_draft,omitempty"`
}

// GenConfig is the single generation-options surface: every entry point
// that decodes — Request (Client.Infer), Session.Send, BatchRequest, and
// all three server JSON shapes — accepts the same knobs through this one
// struct, so a setting like speculation lands once and flows everywhere.
// The zero value means "all defaults": 32 tokens, greedy sampling, EOS
// stop, interactive SLO, speculation deferred to the engine.
//
// JSON tags make GenConfig directly embeddable in wire shapes; Sampler
// is process-local state and never crosses the wire.
type GenConfig struct {
	// MaxTokens bounds generation (default 32).
	MaxTokens int `json:"max_tokens,omitempty"`
	// Sampler selects next tokens (default greedy, as in the paper §5.3).
	Sampler Sampler `json:"-"`
	// StopToken ends generation when sampled (default EOS).
	StopToken int `json:"stop_token,omitempty"`
	// SLO classifies the request's latency objective: SLOInteractive
	// (the zero value) is admitted ahead of SLOBatch backfill. On the
	// wire it is the class name ("interactive", "batch"; "" means
	// interactive).
	SLO SLOClass `json:"slo,omitempty"`
	// Speculation carries the draft-and-verify controls.
	Speculation SpecConfig `json:"speculation,omitzero"`
}

// generateOpts is the one conversion from the public generation surface
// to the model's decode options — the single place request knobs map to
// engine knobs.
func (g GenConfig) generateOpts() model.GenerateOpts {
	return model.GenerateOpts{
		MaxTokens: g.MaxTokens,
		Sampler:   g.Sampler,
		StopToken: g.StopToken,
		Speculation: model.SpecOpts{
			Off:      g.Speculation.Enabled != nil && !*g.Speculation.Enabled,
			MaxDraft: g.Speculation.MaxDraft,
		},
	}
}
