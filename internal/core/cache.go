// Package core implements Prompt Cache itself (§3): schema registration
// and prompt-module encoding (§3.3), storage of encoded modules in a
// simulated memory tier with LRU eviction, scaffolding, and cached
// inference (§3.4) that splices precomputed attention states into new
// prompts, computing attention only for uncached text.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/evict"
	"repro/internal/faultinject"
	"repro/internal/kvcache"
	"repro/internal/memory"
	"repro/internal/mining"
	"repro/internal/model"
	"repro/internal/pml"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
)

// EncodedModule is one prompt module's precomputed attention states.
type EncodedModule struct {
	Name   string
	Schema string
	// KV holds the module's own tokens' attention states (text and
	// parameter <unk> buffers; nested children are cached separately).
	// Positions are absolute per the schema layout. When the cache runs
	// with int8 storage, KV is nil and Quant holds the states.
	KV *kvcache.Cache
	// Quant is the compressed form (§6 compression direction); non-nil
	// only under WithInt8Modules.
	Quant *quant.Compressed
	// Layout is the module's compiled layout entry; nil for mined
	// (anonymous) modules, which have no PML source.
	Layout *pml.ModuleLayout
	// Mined marks an anonymous module promoted by the traffic observer
	// (WithModuleMining): it records the serving class and the
	// (token, position) stream prefix the states reproduce. Mined states
	// are always fp32 (they exist for exactness) and cannot re-encode —
	// eviction past the last tier removes the module instead.
	Mined *MinedPrefix
	state moduleState
	// pins counts open serves whose KV views read this module's states
	// outside the cache lock. Guarded by Cache.mu; evictOneLocked never
	// selects a pinned module as a victim, so the viewed buffers stay
	// intact from planning until every ServeResult holding a view is
	// closed (or materialized).
	pins int
}

// moduleState tracks where a module's states live.
type moduleState int

const (
	// stateResident: states are in the primary (GPU) pool.
	stateResident moduleState = iota
	// stateDemoted: states were evicted from the primary pool but kept
	// in the host pool (§4.1's two-tier configuration); reuse promotes
	// them back without re-encoding.
	stateDemoted
	// stateDropped: states are gone; reuse must re-encode.
	stateDropped
	// stateDisk: states were evicted to the durable disk tier (quantized
	// per the tier's codec); reuse reads them back and promotes without
	// re-encoding.
	stateDisk
)

// Bytes returns the storage footprint: compressed size under int8
// storage, fp32 otherwise.
func (m *EncodedModule) Bytes() int64 {
	if m.Quant != nil {
		return m.Quant.Bytes()
	}
	return m.KV.Bytes(4)
}

// States materializes the module's attention states (decompressing if
// stored quantized).
func (m *EncodedModule) States() *kvcache.Cache {
	if m.Quant != nil {
		return m.Quant.Decompress()
	}
	return m.KV
}

// EncodedScaffold is a set of modules co-encoded with a shared attention
// span (§3.3). When all members are imported, it overrides their
// individual states.
type EncodedScaffold struct {
	Name    string
	Members []string
	KV      *kvcache.Cache
}

// schemaEntry is one registered schema with its compiled layout and
// encoded modules.
type schemaEntry struct {
	schema    *pml.Schema
	layout    *pml.Layout
	modules   map[string]*EncodedModule
	scaffolds map[string]*EncodedScaffold
	// src is the schema's PML source, kept so SaveAll can persist a
	// restartable snapshot (OpenDir re-compiles the layout from it).
	src string
}

// Stats counts cache activity.
type Stats struct {
	ModulesEncoded  int // prompt module encodings performed (incl. re-encodes)
	ModulesReused   int // cache hits at serve time
	ModulesEvicted  int // evictions from the primary pool
	ModulesReloaded int // re-encodes forced by earlier eviction
	ModulesRestored int // modules loaded from a schema snapshot
	ModulesDemoted  int // evictions that kept states in the host pool
	ModulesPromoted int // demoted modules pulled back on reuse
	TokensEncoded   int // tokens run through prefill during encoding
	TokensReused    int // cached tokens spliced into served prompts

	ModulesSpilled    int // evictions that wrote states to the disk tier
	DiskHits          int // module states read back from the disk tier
	DiskLoadErrors    int // unreadable disk blobs (fell back to re-encode)
	DiskRetries       int // transient blob-read failures recovered by backoff retry
	TierAccountErrors int // tier bookkeeping failures; nonzero means occupancy counters drifted

	MinedPromotions      int // hot prefixes promoted to anonymous modules (WithModuleMining)
	MinedDemotions       int // mined modules garbage-collected (cold, evicted, or schema dropped)
	MinedHits            int // serves that spliced a mined module's states
	MinedHitTokens       int // prefill tokens skipped by mined splices
	MinedSnapshotSkipped int // mined modules not round-tripped through SaveAll/OpenDir
}

// Cache is the Prompt Cache: it owns a model, a tokenizer, a chat
// template, registered schemas, and the memory pool module states live in.
//
// It is safe for concurrent use, and serving is genuinely parallel: mu
// guards only metadata (schema registry, module residency, eviction
// policy, stats). A serve holds it just long enough to validate the
// prompt and pin the modules it needs, then stitches zero-copy views
// over their states and runs the prefill outside the lock; pinned
// modules are immune to eviction until the serve's result closes (views
// read module memory in place). Encoding always happens under the
// lock — it is the deliberate one-time cost (§3.3) — whether triggered
// by RegisterSchema or by a serve restoring a dropped module,
// so a planning phase can stall behind an in-progress encode; serves
// past planning (prefilling) never stall and never stall each other.
type Cache struct {
	m    *model.Model
	tok  *tokenizer.Tokenizer
	tmpl *pml.Template
	pool *memory.Pool
	// hostPool, when set, receives evicted module states instead of
	// dropping them (two-tier §4.1); nil disables demotion.
	hostPool *memory.Pool
	// disk, when set, is the durable third tier below the host pool:
	// modules that would otherwise drop spill to content-addressed files
	// (quantized per the tier's codec) and read back on reuse instead of
	// re-encoding. nil disables spilling.
	disk *diskTier

	compress bool

	// sched, when non-nil, fuses concurrent decode loops into shared
	// model steps (continuous batching); Generate/GenerateStream route
	// through it. It synchronizes itself and never takes mu.
	sched *Scheduler

	// miner, when non-nil, observes serve-time token streams and
	// promotes hot shared prefixes to anonymous modules
	// (WithModuleMining). It synchronizes itself and never calls back
	// into the cache, so it may be used both under and outside mu.
	miner *mining.Miner

	// draft, when non-nil, is the speculative-decoding draft source
	// (WithSpeculation): retired generations train it, decode lanes
	// propose from it. Like the miner it synchronizes itself and never
	// calls back into the cache. NewCache hands it to the scheduler;
	// without a scheduler it is inert.
	draft *mining.Draft

	// adm, when non-nil, bounds concurrent serving (WithAdmission):
	// requests acquire a slot before any engine work and excess load is
	// shed with ErrOverloaded. It synchronizes itself and never takes mu.
	adm *admission

	// inject, when non-nil, is the fault-injection hook layer
	// (WithFaultInjection): the disk tier consults it before blob IO so
	// tests drive slow-IO, corruption, ENOSPC and transient-error paths
	// deterministically. Nil in production; Fire on nil is a no-op.
	inject *faultinject.Injector

	mu      sync.Mutex
	schemas map[string]*schemaEntry
	// minedSeq names promoted modules ~mined/0, ~mined/1, ... within
	// this cache's lifetime (warm restarts advance it past restored ids).
	minedSeq int
	// policy ranks module keys ("schema/module") for eviction when the
	// pool fills (§6's cache-replacement direction; default LRU).
	// Scaffold states are pinned: they exist for output exactness.
	policy evict.Policy
	stats  Stats
}

// Option configures a Cache.
type Option func(*Cache)

// WithPool stores module states in the given memory pool, enabling
// capacity limits and LRU eviction (§4.1's GPU-memory configuration).
func WithPool(p *memory.Pool) Option { return func(c *Cache) { c.pool = p } }

// WithHostPool enables two-tier storage (§4.1): modules evicted from the
// primary pool demote into this host pool with their states intact, and
// promote back on reuse without re-encoding. Pass an uncapped pool to
// model terabyte-scale host DRAM.
func WithHostPool(p *memory.Pool) Option { return func(c *Cache) { c.hostPool = p } }

// WithEvictionPolicy selects the cache-replacement policy for module
// states under a capacity-limited pool (default: evict.NewLRU()).
func WithEvictionPolicy(p evict.Policy) Option { return func(c *Cache) { c.policy = p } }

// WithDiskTier adds a durable disk tier below the host pool (or directly
// below the device pool when no host tier is configured): a module whose
// eviction would otherwise drop its states spills them to a
// content-addressed file under dir, quantized per codec (CodecFP32 for
// bit-exact spills), and the next serve that needs it reads the file back
// and promotes it like any host-tier hit — no re-encode. The same dir is
// what SaveAll/OpenDir persist warm-restart snapshots into.
func WithDiskTier(dir string, codec Codec) Option {
	return func(c *Cache) { c.disk = newDiskTier(dir, codec) }
}

// WithInt8Modules stores module states quantized to int8 with per-row
// scales (§6's compression direction): ~3.8× less storage and copy
// volume, at a bounded reconstruction error paid on each use.
// Scaffold states stay full precision (they exist for exactness).
func WithInt8Modules() Option { return func(c *Cache) { c.compress = true } }

// WithDecodeScheduler enables continuous-batching decode: concurrent
// Generate/GenerateStream calls (and everything built on them — Infer,
// sessions, streaming, batches) fuse into shared model steps, so N
// active generations cost one layer walk per token instead of N.
// maxBatch bounds the fused-step width (non-positive selects
// DefaultMaxDecodeBatch); requests beyond it queue and join as lanes
// retire. Per-request output is bit-identical to solo decoding.
func WithDecodeScheduler(maxBatch int) Option {
	return func(c *Cache) { c.sched = newScheduler(c.m, maxBatch) }
}

// WithFaultInjection installs a fault injector consulted by the disk
// tier before blob reads and writes, so robustness tests drive the
// degrade paths (retry, re-encode, spill fallthrough) deterministically.
// Production caches run without one at zero cost.
//
//pclint:ignore unreached test seam: the only way robustness tests reach the disk tier's fault points
func WithFaultInjection(in *faultinject.Injector) Option {
	return func(c *Cache) { c.inject = in }
}

// WithBackend pins the model's kernel backend (default: tensor.Auto(),
// one worker per CPU). Outputs are bit-identical at any worker count —
// the choice affects core utilization and latency, never outputs — so
// cached module states encoded under one backend are valid under any
// other. Applies at construction; like model.SetBackend it must not
// change after serving begins.
func WithBackend(b tensor.Backend) Option {
	return func(c *Cache) { c.m.SetBackend(b) }
}

// NewCache builds a Prompt Cache around a model.
func NewCache(m *model.Model, opts ...Option) *Cache {
	c := &Cache{
		m:       m,
		tok:     tokenizer.New(m.Cfg.VocabSize),
		tmpl:    pml.TemplateFor(m.Cfg.Name),
		schemas: make(map[string]*schemaEntry),
	}
	for _, o := range opts {
		o(c)
	}
	if c.pool == nil {
		c.pool = memory.NewPool(memory.Device{Name: "unbounded", Kind: memory.DRAM})
	}
	if c.policy == nil {
		c.policy = evict.NewLRU()
	}
	// Option order must not matter: wire the injector into the disk tier
	// and the draft source into the scheduler after all options ran,
	// whichever order they came in.
	if c.disk != nil {
		c.disk.inject = c.inject
	}
	if c.sched != nil {
		c.sched.draft = c.draft
	}
	return c
}

// Model returns the underlying model.
func (c *Cache) Model() *model.Model { return c.m }

// Tokenizer returns the cache's tokenizer.
func (c *Cache) Tokenizer() *tokenizer.Tokenizer { return c.tok }

// Stats returns a snapshot of cache activity counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// PoolUsed returns the bytes of module states currently resident.
func (c *Cache) PoolUsed() int64 { return c.pool.Used() }

// HostUsed returns the bytes of module states currently demoted to the
// host tier (0 when no host pool is configured).
func (c *Cache) HostUsed() int64 {
	if c.hostPool == nil {
		return 0
	}
	return c.hostPool.Used()
}

// DiskUsed returns the bytes of module blobs tracked by the disk tier
// (0 when no disk tier is configured).
func (c *Cache) DiskUsed() int64 {
	if c.disk == nil {
		return 0
	}
	return c.disk.pool.Used()
}

// DiskModules returns the number of modules with a durable blob in the
// disk tier.
func (c *Cache) DiskModules() int {
	if c.disk == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.disk.index)
}

// SchedEnabled reports whether a decode scheduler is configured — the
// cheap check for callers that branch on it per request (no lock, no
// stats snapshot).
func (c *Cache) SchedEnabled() bool { return c.sched != nil }

// SchedStats returns a snapshot of decode-scheduler activity. With no
// scheduler configured it returns the zero snapshot (Enabled false).
func (c *Cache) SchedStats() SchedStats {
	if c.sched == nil {
		return SchedStats{}
	}
	return c.sched.Stats()
}

// SchemaNames returns the registered schema names, sorted. It is the
// authoritative registry; transports list schemas by querying it rather
// than tracking their own copy.
func (c *Cache) SchemaNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.schemas))
	for name := range c.schemas {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RegisterSchema parses a PML schema, compiles its position layout, and
// eagerly encodes every prompt module and scaffold (§3.3: "Prompt Cache
// populates its cache when a schema is loaded"). Re-registering a schema
// name replaces the old entry.
func (c *Cache) RegisterSchema(src string) (*pml.Layout, error) {
	schema, err := pml.ParseSchema(src)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSchema, err)
	}
	layout, err := pml.Compile(schema, c.tok, c.tmpl)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSchema, err)
	}
	if layout.TotalLen > c.m.Cfg.MaxSeq {
		return nil, fmt.Errorf("%w: schema %q needs %d positions, model max is %d",
			ErrPromptTooLong, schema.Name, layout.TotalLen, c.m.Cfg.MaxSeq)
	}
	entry := &schemaEntry{
		schema:    schema,
		layout:    layout,
		modules:   make(map[string]*EncodedModule),
		scaffolds: make(map[string]*EncodedScaffold),
		src:       src,
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.schemas[schema.Name]; ok {
		c.dropSchemaLocked(schema.Name, old)
	}
	c.schemas[schema.Name] = entry
	for _, name := range layout.Order {
		if _, err := c.encodeModuleLocked(schema.Name, entry, name); err != nil {
			c.dropSchemaLocked(schema.Name, entry)
			return nil, err
		}
	}
	for _, sc := range schema.Scaffolds {
		if err := c.encodeScaffoldLocked(schema.Name, entry, sc); err != nil {
			c.dropSchemaLocked(schema.Name, entry)
			return nil, err
		}
	}
	return layout, nil
}

// freeTracked releases a pool reservation, counting (rather than
// silently discarding) bookkeeping failures: a failed Free means the
// tier's occupancy counter no longer reflects reality, and
// TierAccountErrors is how that drift surfaces in /v1/stats instead of
// going unnoticed.
func (c *Cache) freeTracked(p *memory.Pool, key string) {
	if err := p.Free(key); err != nil {
		c.stats.TierAccountErrors++
	}
}

// dropSchemaLocked releases all pool reservations of a schema.
func (c *Cache) dropSchemaLocked(name string, e *schemaEntry) {
	if c.draft != nil {
		// The draft source's learned phrasing dies with the schema too.
		c.draft.DropClassPrefix(classPrefix(name))
	}
	if c.miner != nil {
		// Forget the schema's observed traffic; mined modules counted
		// here are also in e.modules and release their tiers below.
		for range c.miner.DropClassPrefix(classPrefix(name)) {
			c.stats.MinedDemotions++
		}
	}
	for mod := range e.modules {
		key := name + "/" + mod
		if c.pool.Has(key) {
			c.freeTracked(c.pool, key)
		}
		if c.hostPool != nil && c.hostPool.Has(key) {
			c.freeTracked(c.hostPool, key)
		}
		if c.disk != nil {
			c.removeDiskLocked(key)
		}
		c.policy.Remove(key)
	}
	for sc := range e.scaffolds {
		key := name + "/scaffold/" + sc
		if c.pool.Has(key) {
			c.freeTracked(c.pool, key)
		}
	}
	delete(c.schemas, name)
}

// moduleTokens gathers a module's own token/position streams (text plus
// <unk> parameter buffers, excluding nested children).
func moduleTokens(ml *pml.ModuleLayout) (toks, pos []int) {
	for _, seg := range ml.Segments {
		if seg.Kind == pml.SegChild {
			continue
		}
		toks = append(toks, seg.Tokens...)
		pos = append(pos, seg.Pos...)
	}
	return toks, pos
}

// encodeStatesLocked runs a module's encoding prefill — the module's own
// tokens into an empty cache, which confines attention to the module
// span (the §3.3 masking effect) — and returns the states plus the token
// count. Storage and stats are the caller's: the resident and transient
// encode paths share this body so they cannot drift.
func (c *Cache) encodeStatesLocked(schema string, e *schemaEntry, name string) (*kvcache.Cache, int, error) {
	ml, ok := e.layout.Modules[name]
	if !ok {
		return nil, 0, fmt.Errorf("%w: schema %q has no module %q", ErrBadPrompt, schema, name)
	}
	toks, pos := moduleTokens(ml)
	kv := c.m.NewCache(len(toks))
	if len(toks) > 0 {
		//pclint:ignore lockscope registration-time encode is the documented one-time cost under the lock (§3.3); serves never reach this
		if _, err := c.m.Prefill(toks, pos, kv); err != nil {
			return nil, 0, fmt.Errorf("core: encoding %s/%s: %w", schema, name, err)
		}
	}
	return kv, len(toks), nil
}

// encodeModuleLocked computes and stores one module's attention states.
func (c *Cache) encodeModuleLocked(schema string, e *schemaEntry, name string) (*EncodedModule, error) {
	kv, nToks, err := c.encodeStatesLocked(schema, e, name)
	if err != nil {
		return nil, err
	}
	em := &EncodedModule{Name: name, Schema: schema, Layout: e.layout.Modules[name]}
	if c.compress && kv.Len() > 0 {
		em.Quant = quant.Compress(kv)
	} else {
		em.KV = kv
	}
	key := schema + "/" + name
	if err := c.reserveLocked(key, em.Bytes()); err != nil {
		return nil, err
	}
	e.modules[name] = em
	c.policy.Touch(key, em.Bytes())
	c.stats.ModulesEncoded++
	c.stats.TokensEncoded += nToks
	return em, nil
}

// encodeScaffoldLocked co-encodes a scaffold's members with a shared
// attention span: one prefill over the concatenation of all member
// tokens, in schema order, at their absolute positions.
func (c *Cache) encodeScaffoldLocked(schema string, e *schemaEntry, sc pml.Scaffold) error {
	var toks, pos []int
	for _, name := range e.layout.Order { // schema order
		if !slices.Contains(sc.Modules, name) {
			continue
		}
		t, p := moduleTokens(e.layout.Modules[name])
		toks = append(toks, t...)
		pos = append(pos, p...)
	}
	if len(toks) == 0 {
		return fmt.Errorf("%w: scaffold %q has no tokens", ErrBadSchema, sc.Name)
	}
	kv := c.m.NewCache(len(toks))
	//pclint:ignore lockscope scaffolds co-encode at registration, the documented one-time cost under the lock
	if _, err := c.m.Prefill(toks, pos, kv); err != nil {
		return fmt.Errorf("core: encoding scaffold %s/%s: %w", schema, sc.Name, err)
	}
	es := &EncodedScaffold{Name: sc.Name, Members: sc.Modules, KV: kv}
	key := schema + "/scaffold/" + sc.Name
	if err := c.reserveLocked(key, kv.Bytes(4)); err != nil {
		return err
	}
	e.scaffolds[sc.Name] = es
	c.stats.ModulesEncoded++
	c.stats.TokensEncoded += len(toks)
	return nil
}

// reserveLocked reserves pool space, evicting least-recently-used modules
// until the reservation fits (§4.1: "a caching mechanism that leverages
// both CPU and GPU memory... cache replacement").
func (c *Cache) reserveLocked(key string, size int64) error {
	for {
		err := c.pool.Alloc(key, size)
		if err == nil {
			return nil
		}
		if !errors.Is(err, memory.ErrOutOfMemory) {
			return err
		}
		if !c.evictOneLocked(key) {
			return fmt.Errorf("%w: module %s (%d bytes) cannot fit even after eviction: %v", ErrCapacity, key, size, err)
		}
	}
}

// moduleForKeyLocked resolves a policy key back to its encoded module,
// or nil when the key does not name a live module.
func (c *Cache) moduleForKeyLocked(key string) *EncodedModule {
	schema, mod, ok := splitKey(key)
	if !ok {
		return nil
	}
	e := c.schemas[schema]
	if e == nil {
		return nil
	}
	return e.modules[mod]
}

// evictOneLocked drops the policy's next victim (never the module being
// loaded, which is not yet tracked, and never a pinned module — its
// states are being read by an in-flight prefill outside the lock).
// Returns false if nothing can be evicted.
func (c *Cache) evictOneLocked(loading string) bool {
	excluded := func(key string) bool {
		if key == loading {
			return true
		}
		em := c.moduleForKeyLocked(key)
		return em != nil && em.pins > 0
	}
	for {
		key, ok := c.policy.VictimExcluding(excluded)
		if !ok {
			return false
		}
		c.policy.Remove(key)
		if !c.pool.Has(key) {
			continue // stale policy entry; clean up and retry
		}
		em := c.moduleForKeyLocked(key)
		if em != nil {
			// Prefer demotion to the host tier; below it, spill to the
			// disk tier; drop only when both are absent or full.
			switch {
			case c.hostPool != nil && c.hostPool.Alloc(key, em.Bytes()) == nil:
				em.state = stateDemoted
				c.stats.ModulesDemoted++
			case c.disk != nil && c.spillLocked(key, em) == nil:
				em.KV = nil
				em.Quant = nil
				em.state = stateDisk
				c.stats.ModulesSpilled++
			default:
				em.KV = nil
				em.Quant = nil
				em.state = stateDropped
			}
		}
		c.freeTracked(c.pool, key)
		c.stats.ModulesEvicted++
		if em != nil && em.Mined != nil && em.state == stateDropped {
			// A mined module cannot re-encode, so a drop past the last
			// tier is terminal: remove it and tell the observer.
			if schema, _, ok := splitKey(key); ok {
				c.dropMinedLocked(key, schema, em)
			}
		}
		return true
	}
}

func splitKey(key string) (schema, mod string, ok bool) {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			return key[:i], key[i+1:], true
		}
	}
	return "", "", false
}

// promoteLocked moves a demoted module back into the primary pool
// (evicting others if needed) and releases its host reservation. A
// failed host-pool release is counted in TierAccountErrors rather than
// discarded, so the host occupancy counter cannot drift silently.
func (c *Cache) promoteLocked(key string, em *EncodedModule) error {
	if err := c.reserveLocked(key, em.Bytes()); err != nil {
		return err
	}
	c.freeTracked(c.hostPool, key)
	em.state = stateResident
	c.stats.ModulesPromoted++
	return nil
}

// acquireModuleLocked resolves one imported module for the serve
// planning phase: it returns the module's states as a servePart safe to
// read outside the lock. The happy path promotes or re-encodes into the primary pool and
// pins the module, making it immune to eviction until unpinModules runs.
// When the pool cannot hold the serve's whole working set at once — the
// remaining eviction victims are all pinned, typically by this very
// serve — it degrades to a read-through: demoted states are snapshotted
// straight from the host tier and dropped ones are re-encoded
// transiently, without claiming primary-pool residency, so a working set
// larger than the pool still serves.
func (c *Cache) acquireModuleLocked(schemaName string, e *schemaEntry, name string) (servePart, error) {
	em := e.modules[name]
	if em == nil {
		return servePart{}, fmt.Errorf("%w: schema %q has no module %q", ErrBadPrompt, schemaName, name)
	}
	key := schemaName + "/" + name
	switch em.state {
	case stateDropped:
		return c.reencodeForServeLocked(schemaName, e, name, key)
	case stateDemoted:
		if err := c.promoteLocked(key, em); err != nil {
			if !errors.Is(err, ErrCapacity) {
				return servePart{}, err
			}
			// Host-tier read-through without promotion. The snapshot
			// reference stays valid even if the module is later dropped:
			// eviction only clears the module's fields, never the
			// underlying states.
			c.stats.ModulesReused++
			return servePart{key: key, kv: em.States()}, nil
		}
	case stateDisk:
		// The blob read is disk IO and must not run under the cache-wide
		// lock: return a pending part; the serve resolves it off-lock
		// (resolveDiskParts) and re-locks briefly to promote and pin.
		return servePart{key: key, disk: em}, nil
	}
	c.policy.Touch(key, em.Bytes())
	c.stats.ModulesReused++
	em.pins++
	return servePart{key: key, em: em}, nil
}

// reencodeForServeLocked serves a module whose states are unavailable
// (dropped, or a disk blob that failed to read) by re-encoding: pinned
// and resident when the pool holds it, transient otherwise.
func (c *Cache) reencodeForServeLocked(schemaName string, e *schemaEntry, name, key string) (servePart, error) {
	c.stats.ModulesReloaded++
	em2, err := c.encodeModuleLocked(schemaName, e, name)
	if err == nil {
		em2.pins++
		return servePart{key: key, em: em2}, nil
	}
	if !errors.Is(err, ErrCapacity) {
		return servePart{}, err
	}
	kv, terr := c.encodeTransientLocked(schemaName, e, name)
	if terr != nil {
		return servePart{}, terr
	}
	return servePart{key: key, kv: kv}, nil
}

// encodeTransientLocked re-encodes a dropped module without storing it:
// the states go straight into the serve that needs them and no pool
// residency is claimed. Under int8 storage the states take a
// compress/decompress round trip so transient serves stay bit-identical
// to resident ones.
func (c *Cache) encodeTransientLocked(schema string, e *schemaEntry, name string) (*kvcache.Cache, error) {
	kv, nToks, err := c.encodeStatesLocked(schema, e, name)
	if err != nil {
		return nil, err
	}
	c.stats.ModulesEncoded++
	c.stats.TokensEncoded += nToks
	if c.compress && kv.Len() > 0 {
		kv = quant.Compress(kv).Decompress()
	}
	return kv, nil
}

// unpinModules releases serve pins taken during planning, making the
// modules evictable again.
func (c *Cache) unpinModules(ems []*EncodedModule) {
	if len(ems) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, em := range ems {
		em.pins--
	}
}

// Layout returns the compiled layout of a registered schema.
func (c *Cache) Layout(schema string) (*pml.Layout, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.schemas[schema]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSchema, schema)
	}
	return e.layout, nil
}

// SchemaSource returns the PML source a registered schema was compiled
// from: the text given to RegisterSchema, or the copy OpenDir restored.
func (c *Cache) SchemaSource(schema string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.schemas[schema]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownSchema, schema)
	}
	return e.src, nil
}
