package promptcache

import (
	"fmt"

	"repro/internal/pml"
)

// Request consolidates everything one inference call can ask for. The
// zero value plus a Prompt is a valid cached completion with default
// generation settings.
type Request struct {
	// Prompt is the PML prompt source, referencing a registered schema.
	Prompt string
	// Parsed short-circuits parsing for callers that already hold a
	// *pml.Prompt; it takes precedence over Prompt.
	Parsed *pml.Prompt

	// Baseline disables attention reuse and runs a full prefill — the
	// paper's KV-Cache baseline, for comparisons.
	Baseline bool
	// DisableScaffolds skips scaffold override even when every member of
	// a scaffold is imported (the §3.3 masking-effect ablation).
	DisableScaffolds bool
	// PrefillOnly stops after assembling attention states: no decode.
	// The Response then carries reuse statistics and logits but no text.
	// This is the TTFT-measurement mode.
	PrefillOnly bool

	// Gen carries the generation options: token budget, sampler, stop
	// condition, SLO class, and speculation. The zero value means "all
	// defaults".
	Gen GenConfig

	// Stream, when set, receives each generated token's text as soon as
	// it is sampled; returning false stops generation early. The full
	// Response is still returned at the end.
	Stream func(text string) bool
}

func (r *Request) validate() error {
	if r.Prompt == "" && r.Parsed == nil {
		return fmt.Errorf("%w: request has neither Prompt nor Parsed", ErrBadPrompt)
	}
	return nil
}

// Response carries a completed inference: the generation (unless the
// request was prefill-only) plus the reuse accounting that is the
// paper's headline metric.
type Response struct {
	// Text is the detokenized generation; empty for prefill-only runs.
	Text string
	// Tokens are the generated token ids.
	Tokens []int
	// CachedTokens counts tokens whose attention states were reused from
	// the cache; NewTokens counts tokens computed at serve time. The
	// TTFT saving is the story of this ratio (§3.4).
	CachedTokens, NewTokens int
	// Modules lists imported modules in position order; Scaffolds lists
	// scaffold overrides applied.
	Modules, Scaffolds []string
	// Logits are the serve-time final-token logits, kept for accuracy
	// comparisons between cached and baseline runs.
	Logits []float32
}
