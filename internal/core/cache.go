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
	"sync/atomic"

	"repro/internal/evict"
	"repro/internal/faultinject"
	"repro/internal/kvcache"
	"repro/internal/memory"
	"repro/internal/mining"
	"repro/internal/model"
	"repro/internal/pml"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
)

// EncodedModule is one cached attention state: a declared prompt module,
// a scaffold (§3.3), or a mined prefix. Every kind runs through the one
// tier state machine; they differ only in data on the module — the
// stream its states encode (rows, encodeStates), its spill codec
// (spillCodec), and whether unavailable states re-encode
// (unavailableLocked: a declared module or scaffold re-encodes its
// stream; a mined one cannot and is removed).
type EncodedModule struct {
	// Name is the module's name within its schema: a declared module's
	// tag, scaffoldPrefix plus a scaffold's name, or minedPrefixTag plus
	// a sequence number.
	Name   string
	Schema string
	// KV holds the module's attention states (text and parameter <unk>
	// buffers; nested children are cached separately). Positions are
	// absolute per the schema layout. States are fp32 wherever they are
	// resident (§4.1); nil once evicted past the host tier.
	KV *kvcache.Cache
	// Toks and Pos are the (token, position) stream the states encode: a
	// declared module's own tokens (moduleTokens), a scaffold's members'
	// streams in schema order, or a mined module's observed prefix.
	Toks, Pos []int
	// Layout is a declared module's compiled layout entry; nil for
	// scaffolds and mined modules, whose states exist for output
	// exactness and so spill fp32 whatever the disk codec.
	Layout *pml.ModuleLayout
	// Mined marks an anonymous module promoted by the traffic observer
	// (WithModuleMining). Its rows attended to its serving class's
	// context when computed, so they cannot re-encode from the stream
	// alone: eviction past the last tier removes the module instead.
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
	// stateDisk: states were evicted to the durable disk tier (encoded
	// per the tier's codec); reuse decodes them back to fp32 and promotes
	// without re-encoding.
	stateDisk
)

// scaffoldPrefix starts a scaffold module's name, so its key is
// "schema/scaffold/<name>". PML tag names cannot contain '/', so it
// never collides with a declared module.
const scaffoldPrefix = "scaffold/"

// size returns the states' fp32 storage footprint.
func (m *EncodedModule) size() int64 { return m.KV.Bytes(4) }

func (m *EncodedModule) key() string { return m.Schema + "/" + m.Name }

// rows is the number of cached tokens the module's states must hold.
func (m *EncodedModule) rows() int { return len(m.Toks) }

// spillCodec is the codec the module's blob is written with: the tier's
// for a declared module; fp32 for scaffold and mined states, which are
// bit-exact by contract (a scaffold reproduces the full-attention
// baseline, a mined splice the cold serve's logits).
func (m *EncodedModule) spillCodec(tier Codec) Codec {
	if m.Layout == nil {
		return CodecFP32
	}
	return tier
}

// pin is the one place a module gains a serve pin; the returned part
// reads the module's states in place until the pin is released.
func (m *EncodedModule) pin(key string) servePart {
	m.pins++
	return servePart{key: key, em: m}
}

// schemaEntry is one registered schema with its compiled layout and
// encoded modules.
type schemaEntry struct {
	schema *pml.Schema
	layout *pml.Layout
	// modules holds every kind of module by name: declared, scaffold
	// and mined.
	modules map[string]*EncodedModule
	// order names the declared modules in layout order, then the
	// scaffolds in schema order: the order registration encodes them and
	// a snapshot manifest lists them.
	order []string
	// src is the schema's PML source, kept so SaveAll can persist a
	// restartable snapshot (OpenDir re-compiles the layout from it).
	src string
}

// newSchemaEntry builds a compiled schema's entry and its unencoded
// declared modules and scaffolds, in entry order.
func newSchemaEntry(schema *pml.Schema, layout *pml.Layout, src string) (*schemaEntry, []*EncodedModule) {
	e := &schemaEntry{schema: schema, layout: layout, modules: make(map[string]*EncodedModule), src: src}
	var ems []*EncodedModule
	for _, name := range layout.Order {
		ml := layout.Modules[name]
		toks, pos := moduleTokens(ml)
		ems = append(ems, &EncodedModule{Name: name, Schema: schema.Name, Toks: toks, Pos: pos, Layout: ml})
	}
	for _, sc := range schema.Scaffolds {
		em := &EncodedModule{Name: scaffoldPrefix + sc.Name, Schema: schema.Name}
		for _, name := range layout.Order { // schema order
			if slices.Contains(sc.Modules, name) {
				toks, pos := moduleTokens(layout.Modules[name])
				em.Toks = append(em.Toks, toks...)
				em.Pos = append(em.Pos, pos...)
			}
		}
		ems = append(ems, em)
	}
	for _, em := range ems {
		e.order = append(e.order, em.Name)
	}
	return e, ems
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
// read module memory in place). Encoding runs outside the lock too:
// RegisterSchema encodes a schema's modules concurrently and installs
// them under one short hold, and a serve that needs a dropped module
// re-encodes it off the lock like a disk blob read (resolvePart). Only
// SaveAll's stop-the-world snapshot encodes under mu.
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

	// sched is the decode loop Generate/GenerateStream run: fused into
	// shared model steps under WithDecodeScheduler (continuous
	// batching), inline on the caller's goroutine otherwise. It holds
	// the speculation draft source, if any. It synchronizes itself and
	// never takes mu.
	sched *Scheduler

	// miner, when non-nil, observes serve-time token streams and
	// promotes hot shared prefixes to anonymous modules
	// (WithModuleMining). It synchronizes itself and never calls back
	// into the cache, so it may be used both under and outside mu.
	miner *mining.Miner

	// draftOpts, when non-nil, is WithSpeculation's draft-source config;
	// NewCache builds the draft onto sched.
	draftOpts *DraftOpts

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
	// Scaffolds are ranked like any module: a dropped one re-encodes its
	// members' stream bit-identically.
	policy evict.Policy
	// demoted ranks the host tier's occupants by demotion time. A
	// demoted module is never touched until it is promoted, so the
	// oldest demoted is the coldest: hostAllocLocked sends it one tier
	// down to make room for a hotter victim.
	demoted *evict.LRU
	stats   Stats
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

// WithDecodeScheduler enables continuous-batching decode: concurrent
// Generate/GenerateStream calls (and everything built on them — Infer,
// sessions, streaming, batches) fuse into shared model steps, so N
// active generations cost one layer walk per token instead of N.
// maxBatch bounds the fused-step width (non-positive selects
// DefaultMaxDecodeBatch); requests beyond it queue and join as lanes
// retire. Without it each generation runs the same lane state machine
// inline on its caller's goroutine; per-request output is bit-identical
// either way.
func WithDecodeScheduler(maxBatch int) Option {
	return func(c *Cache) { c.sched = newScheduler(c.m, true, maxBatch) }
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
		demoted: evict.NewLRU(),
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
	if c.sched == nil {
		c.sched = newScheduler(m, false, 0)
	}
	// Option order must not matter: wire the injector into the disk tier
	// and build the draft source into the decode loop after all options
	// ran, whichever order they came in.
	if c.disk != nil {
		c.disk.inject = c.inject
	}
	if c.draftOpts != nil {
		c.sched.draft = mining.NewDraft(*c.draftOpts)
	}
	return c
}

// Model returns the underlying model.
func (c *Cache) Model() *model.Model { return c.m }

// Tokenizer returns the cache's tokenizer.
func (c *Cache) Tokenizer() *tokenizer.Tokenizer { return c.tok }

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
// populates its cache when a schema is loaded"). The encodes run outside
// the cache lock, concurrently (encodeAll); one short hold then installs
// them all, so serves keep planning meanwhile. Re-registering a schema
// name replaces the old entry; a replacement that fails — a bad schema,
// a failed encode, or a state eviction cannot make room for (roomLocked)
// — leaves the old entry serving.
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
	entry, ems := newSchemaEntry(schema, layout, src)
	kvs, err := c.encodeAll(ems)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, em := range ems {
		c.countEncodeLocked(em)
	}
	// States the pool could not hold with every evictable byte freed would
	// fail the install below after the old entry is gone: refuse them
	// first.
	old, replacing := c.schemas[schema.Name]
	if c.pool.Capacity() > 0 {
		room := c.roomLocked(old)
		for i, em := range ems {
			if size := kvs[i].Bytes(4); size > room {
				return nil, fmt.Errorf("%w: module %s (%d bytes) cannot fit even after eviction: %d bytes can be freed", ErrCapacity, em.key(), size, room)
			}
		}
	}
	if replacing {
		c.dropSchemaLocked(schema.Name, old)
	}
	c.schemas[schema.Name] = entry
	for i, em := range ems {
		if err := c.installLocked(em, kvs[i]); err != nil {
			c.dropSchemaLocked(schema.Name, entry)
			return nil, err
		}
		c.policy.Touch(em.key(), em.size())
	}
	return layout, nil
}

// roomLocked returns the most bytes one state can claim in the primary
// pool once the entry old (nil for none) is dropped and eviction has
// freed all it can: the capacity less what neither frees — other
// modules held by open serves, and reservations that are no module's.
// The modules a registration installs stay unpinned, so each evicts the
// ones before it if it must; each state fits alone or the install fails.
func (c *Cache) roomLocked(old *schemaEntry) int64 {
	held := c.pool.Used()
	for _, e := range c.schemas {
		for _, em := range e.modules {
			if (e == old || em.pins == 0) && c.pool.Has(em.key()) {
				held -= em.size()
			}
		}
	}
	return c.pool.Capacity() - held
}

// encodeAll encodes every module's states outside the cache lock, at most
// one module per backend worker at a time; a one-module schema (or a
// one-worker backend) encodes inline. The states are the same bits in any
// schedule: each module runs its own prefill over its own stream. Held
// until installed, they are bounded by the schema's MaxSeq rows plus its
// scaffolds' copies.
func (c *Cache) encodeAll(ems []*EncodedModule) ([]*kvcache.Cache, error) {
	kvs := make([]*kvcache.Cache, len(ems))
	errs := make([]error, len(ems))
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(ems) {
				return
			}
			kvs[i], errs[i] = c.encodeStates(ems[i])
		}
	}
	workers := min(c.m.Backend().Workers(), len(ems))
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return kvs, nil
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
	if d := c.sched.draft; d != nil {
		// The draft source's learned phrasing dies with the schema too.
		d.DropClassPrefix(classPrefix(name))
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
		c.freeHostLocked(key)
		if c.disk != nil {
			c.removeDiskLocked(key)
		}
		c.policy.Remove(key)
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

// encodeStates runs a module's encoding prefill — its stream into an
// empty cache, which confines attention to the module span (the §3.3
// masking effect; a scaffold's span is all its members). It reads only
// the module's immutable stream, so it needs no lock, and callers run it
// outside Cache.mu; storage and counting (countEncodeLocked) are the
// caller's: registration, a serve's re-encode of a dropped module and a
// snapshot of dropped states share this one body.
func (c *Cache) encodeStates(em *EncodedModule) (*kvcache.Cache, error) {
	kv := c.m.NewCache(len(em.Toks))
	if len(em.Toks) > 0 {
		if _, err := c.m.Prefill(em.Toks, em.Pos, kv); err != nil {
			return nil, fmt.Errorf("core: encoding %s: %w", em.key(), err)
		}
	}
	return kv, nil
}

// countEncodeLocked counts one encode of a module's stream.
func (c *Cache) countEncodeLocked(em *EncodedModule) {
	c.stats.ModulesEncoded++
	c.stats.TokensEncoded += len(em.Toks)
}

// installLocked makes kv a module's resident states: it reserves
// primary-pool space (evicting others as needed) and registers the
// module in its schema. Ranking the module with the eviction policy is
// the caller's, so each use touches it once: a serve's through
// acquireLocked, an encode or promotion's right after the install.
func (c *Cache) installLocked(em *EncodedModule, kv *kvcache.Cache) error {
	if err := c.reserveLocked(em.key(), kv.Bytes(4)); err != nil {
		return err
	}
	em.KV = kv
	em.state = stateResident
	c.schemas[em.Schema].modules[em.Name] = em
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

// evictOneLocked sends the policy's next victim one tier down (never the
// module being loaded, which is not yet tracked, and never a pinned
// module — its states are being read by an in-flight prefill outside the
// lock): into the host tier when it can hold it (hostAllocLocked), else
// below it (sinkLocked). Returns false if nothing can be evicted.
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
		c.freeTracked(c.pool, key)
		c.stats.ModulesEvicted++
		if em := c.moduleForKeyLocked(key); em != nil {
			if c.hostPool != nil && c.hostAllocLocked(key, em.size()) {
				em.state = stateDemoted
				c.stats.ModulesDemoted++
			} else {
				c.sinkLocked(key, em)
			}
		}
		return true
	}
}

// hostAllocLocked reserves host-tier space for a module's states. When
// the host is full it makes room by sending its oldest-demoted occupants
// — the coldest states it holds — one tier down (sinkLocked). It returns
// false when the states cannot fit the host.
func (c *Cache) hostAllocLocked(key string, size int64) bool {
	if capacity := c.hostPool.Capacity(); capacity > 0 && size > capacity {
		return false
	}
	for {
		err := c.hostPool.Alloc(key, size)
		if err == nil {
			c.demoted.Touch(key, size)
			return true
		}
		if !errors.Is(err, memory.ErrOutOfMemory) {
			return false
		}
		old, ok := c.demoted.Victim()
		if !ok {
			return false
		}
		c.freeHostLocked(old)
		if oem := c.moduleForKeyLocked(old); oem != nil && oem.state == stateDemoted {
			c.sinkLocked(old, oem)
		}
	}
}

// sinkLocked sends a module evicted from the device or host tier below
// the host: it spills to the disk tier, or drops when there is none or
// the spill fails. A mined module cannot re-encode, so its drop is
// terminal: it is removed and the observer told.
func (c *Cache) sinkLocked(key string, em *EncodedModule) {
	if c.disk != nil && c.spillLocked(key, em) == nil {
		em.state = stateDisk
		c.stats.ModulesSpilled++
	} else {
		em.state = stateDropped
	}
	em.KV = nil
	if em.Mined != nil && em.state == stateDropped {
		c.dropMinedLocked(key, em)
	}
}

// freeHostLocked releases key's host-tier reservation, if it holds one.
func (c *Cache) freeHostLocked(key string) {
	c.demoted.Remove(key)
	if c.hostPool != nil && c.hostPool.Has(key) {
		c.freeTracked(c.hostPool, key)
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
// (evicting others if needed). It releases its host reservation first,
// so the device's victims can demote into the room it leaves — a swap,
// even through a host one module wide. When the device cannot take it,
// the module goes back into the host, or below it if a victim took its
// room; its states stay valid for a read-through either way. A failed
// host-pool release is counted in TierAccountErrors rather than
// discarded, so the host occupancy counter cannot drift silently.
func (c *Cache) promoteLocked(key string, em *EncodedModule) error {
	c.demoted.Remove(key)
	c.freeTracked(c.hostPool, key)
	if err := c.reserveLocked(key, em.size()); err != nil {
		if !c.hostAllocLocked(key, em.size()) {
			c.sinkLocked(key, em)
		}
		return err
	}
	em.state = stateResident
	c.stats.ModulesPromoted++
	return nil
}

// acquireLocked runs one module through the tier state machine for the
// serve planning phase, every kind alike: it returns the module's states
// as a servePart safe to read outside the lock. The happy path promotes
// into the primary pool and pins the module, making it immune to
// eviction until unpinModules runs. When the pool cannot
// hold the serve's whole working set at once — the remaining eviction
// victims are all pinned, typically by this very serve — it degrades to
// a read-through: demoted states are snapshotted straight from the host
// tier without claiming primary-pool residency, so a working set larger
// than the pool still serves. A disk-resident module returns a pending
// part for resolvePart; a dropped one is unavailableLocked's.
func (c *Cache) acquireLocked(key string, em *EncodedModule) (servePart, error) {
	if em == nil {
		return servePart{}, fmt.Errorf("%w: no module %q", ErrBadPrompt, key)
	}
	switch em.state {
	case stateDropped:
		return c.unavailableLocked(key, em)
	case stateDemoted:
		kv := em.KV
		if err := c.promoteLocked(key, em); err != nil {
			if !errors.Is(err, ErrCapacity) {
				return servePart{}, err
			}
			// Host-tier read-through without promotion. The snapshot
			// reference stays valid even if the module is later dropped:
			// eviction only clears the module's fields, never the
			// underlying states.
			c.stats.ModulesReused++
			return servePart{key: key, kv: kv}, nil
		}
	case stateDisk:
		// The blob read is disk IO and must not run under the cache-wide
		// lock: return a pending part; the serve resolves it off-lock
		// (resolvePart) and re-locks briefly to promote and pin.
		return servePart{key: key, pending: em}, nil
	}
	c.policy.Touch(key, em.size())
	c.stats.ModulesReused++
	return em.pin(key), nil
}

// errMinedMiss reports a mined module whose states cannot be had; the
// mined splice turns it into a miss, never a failed serve.
var errMinedMiss = errors.New("core: mined module states unavailable")

// unavailableLocked serves a module whose states are gone (dropped, or a
// disk blob that failed to read). A declared module or scaffold
// re-encodes its stream: it returns a pending part, which resolvePart
// encodes outside the lock and installs. A mined module cannot — its
// states came from a live serve — so the serve counts a miss, and a
// mined module dropped for good is removed.
func (c *Cache) unavailableLocked(key string, em *EncodedModule) (servePart, error) {
	if em.Mined != nil {
		if em.state == stateDropped && c.moduleForKeyLocked(key) == em {
			c.dropMinedLocked(key, em)
		}
		return servePart{}, errMinedMiss
	}
	return servePart{key: key, pending: em}, nil
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
