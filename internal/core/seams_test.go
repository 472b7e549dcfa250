package core

import "repro/internal/mining"

// withMining is WithModuleMining at the given observer thresholds: the
// tests promote short prefixes after two serves, well under the
// defaults the public option uses.
func withMining(cfg mining.Config) Option {
	return func(c *Cache) { c.miner = mining.New(cfg) }
}

// withDraft is WithSpeculation with the given draft-source config.
func withDraft(cfg mining.DraftConfig) Option {
	return func(c *Cache) { c.draft = &cfg }
}
