package core

import "repro/internal/mining"

// withDraft is WithSpeculation with the given draft-source config.
func withDraft(cfg mining.DraftConfig) Option {
	return func(c *Cache) { c.draft = &cfg }
}
