package core

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/mining"
)

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

// classFieldSep/classGroupSep build class keys. Neither byte can appear
// in schema or module names (PML tags are letters, digits, '-', '_',
// '.'), so keys cannot collide across field boundaries.
const (
	classFieldSep = "\x1f"
	classGroupSep = "\x1e"
)

// servingClass derives the stream-comparison class of a planned serve:
// everything that determines the attention context the uncached tokens
// see. The draft source keys its n-gram tables on it, so proposals learned
// in one attention context are never offered in another.
func servingClass(schemaName string, plan *servePlan) string {
	var b strings.Builder
	b.WriteString(schemaName)
	b.WriteString(classFieldSep)
	for _, m := range plan.included {
		b.WriteString(m)
		b.WriteString(classFieldSep)
	}
	b.WriteString(classGroupSep)
	for _, s := range plan.scaffolds {
		b.WriteString(s)
		b.WriteString(classFieldSep)
	}
	b.WriteString(classGroupSep)
	ex := make([]int, 0, len(plan.excluded))
	for p := range plan.excluded {
		ex = append(ex, p)
	}
	sort.Ints(ex)
	for _, p := range ex {
		b.WriteString(strconv.Itoa(p))
		b.WriteString(classFieldSep)
	}
	return b.String()
}

// classPrefix is the class-key prefix shared by every class of one
// schema — what dropSchemaLocked hands the draft source to forget a
// schema's traffic.
func classPrefix(schemaName string) string { return schemaName + classFieldSep }
