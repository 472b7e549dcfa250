package core

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/kvcache"
	"repro/internal/mining"
)

// Module mining (automatic prefix promotion) glues the observer in
// internal/mining into the serve path. The paper's reuse is explicit —
// a PML schema declares what is shared — but live traffic is full of
// undeclared shared prefixes. With WithModuleMining, every cached
// serve's uncached (token, position) stream feeds a radix-tree
// observer; prefixes hot enough to clear the configured thresholds are
// promoted into *anonymous modules* — EncodedModules named "~mined/N",
// registered in the tier store under the owning schema. They run through
// the same tier state machine as declared modules and scaffolds
// (tierStore, resolvePart, SaveAll's cut and write); the kinds
// differ only in data on the EncodedModule — the stream, the spill
// codec, and what unavailable states mean (a mined module cannot
// re-encode, so it is removed and the serve misses). A later serve
// whose stream starts with a mined prefix splices the module's pinned
// states exactly like a schema hit and prefills only the remainder.
//
// Correctness: a serve's uncached-token states depend on everything the
// tail attends to, so streams are only compared within a *class* —
// schema plus included modules, applied scaffolds and excluded
// positions — and keyed by (token, position) pairs. Within a class the
// spliced rows are bit-identical to what the serve would have computed,
// so mined hits change latency, never output. To keep that guarantee
// absolute, mined states spill fp32 whatever the disk tier's codec (like
// scaffolds, they exist for exactness); in memory every module is fp32.

// minedPrefixTag prefixes every anonymous mined module's name. PML tag
// names cannot contain '~' or '/', so mined names never collide with a
// schema's declared modules.
const minedPrefixTag = "~mined/"

// classFieldSep/classGroupSep build class keys. Neither byte can appear
// in schema or module names (PML tags are letters, digits, '-', '_',
// '.'), so keys cannot collide across field boundaries.
const (
	classFieldSep = "\x1f"
	classGroupSep = "\x1e"
)

// WithModuleMining enables automatic module mining: cached serves feed
// a radix-tree traffic observer, and prefixes that clear the mining
// package's default thresholds (3 observations, 16 tokens, 64 live
// modules) are promoted to anonymous modules spliced into later
// matching serves.
func WithModuleMining() Option {
	return func(c *Cache) { c.miner = mining.New(mining.Config{}) }
}

// MinedPrefix records where an anonymous mined module's states are
// valid: the serving class its prefix was observed in. The prefix itself
// is the module's stream (EncodedModule.Toks, Pos).
type MinedPrefix struct {
	Class string
}

// MiningStats is the stats document's mining block: the observer's tree
// statistics plus the engine's mined-serving counters.
type MiningStats struct {
	// Observed counts streams fed to the observer.
	Observed uint64 `json:"observed"`
	// Classes and Nodes size the radix tree.
	Classes int `json:"classes"`
	Nodes   int `json:"nodes"`
	// Candidates counts tree nodes past the promotion threshold but not
	// yet promoted.
	Candidates int `json:"candidates"`
	// LiveModules is the number of mined modules currently registered.
	LiveModules int `json:"live_modules"`
	// Promotions and Demotions are lifetime counts of mined modules
	// created and garbage-collected.
	Promotions int `json:"promotions"`
	Demotions  int `json:"demotions"`
	// Hits counts serves that spliced a mined module; HitTokens is the
	// prefill tokens those splices skipped (the saving).
	Hits      int `json:"hits"`
	HitTokens int `json:"hit_tokens_saved"`
	// SnapshotSkipped counts mined modules dropped at SaveAll/OpenDir
	// boundaries (no states to persist, or restoring without mining).
	SnapshotSkipped int `json:"snapshot_skipped"`
}

// servingClass derives the stream-comparison class of a planned serve:
// everything that determines the attention context the uncached tokens
// see. Two serves in the same class with the same (token, position)
// stream prefix compute bit-identical states for that prefix — the
// precondition for splicing mined states.
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
// schema — what dropSchemaLocked hands the observer to forget a
// schema's traffic.
func classPrefix(schemaName string) string { return schemaName + classFieldSep }

// spliceMined finds the longest promoted mined prefix of the serve's
// uncached stream and appends its module to the plan as a no-exclusion
// part (mined rows include computed argument states at excluded
// positions and must not be filtered). The module goes through the same
// tier state machine as a declared import — tierStore.acquire, then
// resolvePart for a disk-resident one — so it pins, promotes, reads
// through and retries blob reads exactly like one. It returns the module
// name and matched token count; the caller trims the stream by n and
// prefills the rest. A mined splice never fails a serve: any trouble —
// module vanished, blob unreadable, states gone — degrades to a miss
// (n = 0).
func (c *Cache) spliceMined(plan *servePlan, schemaName, class string, toks, pos []int) (string, int) {
	if len(toks) < 2 {
		return "", 0 // the serve must keep at least one uncached token
	}
	name, n, ok := c.miner.Lookup(class, toks, pos, len(toks)-1)
	if !ok || n <= 0 {
		return "", 0
	}
	key := schemaName + "/" + name

	c.mu.Lock()
	em := c.store.modules[key]
	if em == nil || em.Mined == nil || em.rows() != n {
		c.mu.Unlock()
		// The cache no longer holds what the observer promised (schema
		// replaced, module GC'd mid-lookup): stop matching it.
		c.miner.Demoted(name)
		return "", 0
	}
	part, err := c.store.acquire(key)
	c.mu.Unlock()
	if err == nil && part.pending != nil {
		part, err = c.resolvePart(part)
	}
	if err != nil {
		return "", 0
	}
	// The spliced rows also land in TokensReused via CachedTokens, like
	// any cached prefix; MinedHitTokens isolates the mined share.
	c.mu.Lock()
	c.stats.MinedHits++
	c.stats.MinedHitTokens += n
	c.mu.Unlock()
	part.noExclude = true
	if part.em != nil {
		plan.pinned = append(plan.pinned, part.em)
	}
	plan.parts = append(plan.parts, part)
	return name, n
}

// observeServe feeds one successful cached serve to the observer and
// acts on its verdicts: promoting a nominated prefix by copying its
// rows out of this serve's assembled KV (zero extra prefill) and
// garbage-collecting mined modules that went cold. Runs off the cache
// lock, after the prefill, while the serve's pins are still held (so
// the KV's view rows are stable). toks/pos are the full uncached
// stream, before any mined trim.
func (c *Cache) observeServe(schemaName, class string, toks, pos []int, kv kvcache.KV) {
	res := c.miner.Observe(class, toks, pos)
	if res.Promote != nil {
		c.promoteMined(schemaName, res.Promote, toks, kv)
	}
	for _, name := range res.Demote {
		c.demoteMined(schemaName, name)
	}
}

// promoteMined turns a nomination into a registered anonymous module by
// copying the candidate prefix's attention states out of the serve's
// KV. Row j of the observed stream is row kv.Len()-len(toks)+j: the
// uncached stream lands contiguously at the end of the sequence (a
// mined view, when one was spliced, sits immediately before the tail),
// so the copy is uniform whether a prefix row came from this serve's
// prefill or from an earlier mined splice.
func (c *Cache) promoteMined(schemaName string, cand *mining.Candidate, toks []int, kv kvcache.KV) {
	d := len(cand.Toks)
	if d == 0 || d > len(toks) || d > kv.Len() {
		cand.PromoteFailed()
		return
	}
	base := kv.Len() - len(toks)
	states := kvcache.New(c.m.Cfg.NLayers, c.m.Cfg.KVDim(), d)
	for j := 0; j < d; j++ {
		for l := 0; l < c.m.Cfg.NLayers; l++ {
			states.AppendToken(l, kv.KeyRow(l, base+j), kv.ValueRow(l, base+j))
		}
		states.AppendPos(cand.Pos[j])
	}

	c.mu.Lock()
	e := c.schemas[schemaName]
	if e == nil {
		c.mu.Unlock()
		cand.PromoteFailed()
		return
	}
	em := &EncodedModule{
		Name:   minedPrefixTag + strconv.Itoa(c.minedSeq),
		Schema: schemaName,
		Toks:   cand.Toks,
		Pos:    cand.Pos,
		Mined:  &MinedPrefix{Class: cand.Class},
	}
	// A pool that cannot make room evicts nothing: the promotion fails.
	if err := c.store.place(em, states); err != nil {
		c.mu.Unlock()
		cand.PromoteFailed()
		return
	}
	c.minedSeq++
	c.stats.MinedPromotions++
	c.mu.Unlock()
	cand.Promoted(em.Name)
}

// demoteMined garbage-collects one cold mined module. A pinned module
// (an open serve still views its states) is left alone; the observer
// re-offers it on a later observation.
func (c *Cache) demoteMined(schemaName, name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	em := c.store.modules[schemaName+"/"+name]
	if em == nil || em.Mined == nil {
		// Already gone from the cache; make sure the observer agrees.
		c.miner.Demoted(name)
		return
	}
	if em.pins > 0 {
		return
	}
	c.store.removeMined(em)
}

// adoptMinedLocked re-registers one persisted mined module from a
// snapshot manifest: states stay on disk (like declared modules) and
// the observer adopts the prefix so lookups match again. The entry is
// checked in full — name, prefix, row count, codec and a key no module
// holds yet — before the observer adopts it, so an entry that cannot be
// restored is skipped (counted) without leaving a prefix the cache has no
// module for.
func (c *Cache) adoptMinedLocked(schemaName string, mm manifestMined) {
	em := &EncodedModule{
		Name:   mm.Name,
		Schema: schemaName,
		Toks:   mm.Toks,
		Pos:    mm.Pos,
		Mined:  &MinedPrefix{Class: mm.Class},
	}
	de, err := mm.diskEntry(em.rows())
	if c.miner == nil || err != nil || !strings.HasPrefix(mm.Name, minedPrefixTag) ||
		c.store.modules[em.key()] != nil ||
		len(mm.Toks) != len(mm.Pos) || len(mm.Toks) == 0 ||
		c.miner.Adopt(mm.Class, mm.Toks, mm.Pos, mm.Name) != nil {
		c.stats.MinedSnapshotSkipped++
		return
	}
	c.store.restore(em, de)
	// Keep the name sequence past every restored id so new promotions
	// cannot collide.
	if id, err := strconv.Atoi(strings.TrimPrefix(mm.Name, minedPrefixTag)); err == nil && id >= c.minedSeq {
		c.minedSeq = id + 1
	}
}
