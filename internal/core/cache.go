// Package core implements Prompt Cache itself (§3): schema registration
// and prompt-module encoding (§3.3), storage of encoded modules in a
// simulated memory tier with LRU eviction, scaffolding, and cached
// inference (§3.4) that splices precomputed attention states into new
// prompts, computing attention only for uncached text.
package core

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/kvcache"
	"repro/internal/mining"
	"repro/internal/model"
	"repro/internal/pml"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
)

// EncodedModule is one cached attention state: a declared prompt module
// or a scaffold (§3.3). Both kinds run through the one tier state machine
// (tierStore); they differ only in data on the module — the stream its
// states encode (rows, encodeStates) and its spill codec (spillCodec).
// Unavailable states of either kind re-encode from the stream.
type EncodedModule struct {
	// Name is the module's name within its schema: a declared module's
	// tag, or scaffoldPrefix plus a scaffold's name.
	Name   string
	Schema string
	// KV holds the module's attention states (text and parameter <unk>
	// buffers; nested children are cached separately). Positions are
	// absolute per the schema layout. States are fp32 wherever they are
	// resident (§4.1); nil once evicted past the host tier.
	KV *kvcache.Cache
	// Toks and Pos are the (token, position) stream the states encode: a
	// declared module's own tokens (moduleTokens), or a scaffold's
	// members' streams in schema order.
	Toks, Pos []int
	// Layout is a declared module's compiled layout entry; nil for
	// scaffolds, whose states exist for output exactness and so spill
	// fp32 whatever the disk codec.
	Layout *pml.ModuleLayout
	// state and pins are the tier store's, guarded by Cache.mu. pins
	// counts open serves whose KV views read this module's states
	// outside the cache lock; eviction never selects a pinned module, so
	// the viewed buffers stay intact from planning until every
	// ServeResult holding a view is closed (or materialized).
	state moduleState
	pins  int
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
// for a declared module; fp32 for scaffold states, which are bit-exact
// by contract (a scaffold reproduces the full-attention baseline).
func (m *EncodedModule) spillCodec(tier Codec) Codec {
	if m.Layout == nil {
		return CodecFP32
	}
	return tier
}

// schemaEntry is one registered schema with its compiled layout. Its
// modules, of every kind, live in the tier store under "schema/name".
type schemaEntry struct {
	schema *pml.Schema
	layout *pml.Layout
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
	e := &schemaEntry{schema: schema, layout: layout, src: src}
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
// template, the schema registry, and the tier store module states live
// in (tierStore: residency, pools, eviction and the disk index).
//
// It is safe for concurrent use, and serving is genuinely parallel: mu
// guards only metadata (schema registry, the tier store, stats). A serve
// holds it just long enough to validate the prompt and pin the modules
// it needs, then stitches zero-copy views over their states and runs the
// prefill outside the lock; pinned modules are immune to eviction until
// the serve's result closes (views read module memory in place). The
// Cache produces every state the store lacks outside the lock:
// RegisterSchema encodes a schema's modules concurrently and installs
// them under one short hold, a serve that needs a disk-resident or
// dropped module reads its blob or re-encodes it off the lock
// (resolvePart), and SaveAll writes off the lock after a short cut.
type Cache struct {
	m    *model.Model
	tok  *tokenizer.Tokenizer
	tmpl *pml.Template

	// sched is the decode loop Generate/GenerateStream run, each request
	// on its caller's goroutine. It holds the speculation draft source,
	// if any. It synchronizes itself and never takes mu.
	sched *Scheduler

	// draft, when non-nil, is WithSpeculation's draft-source config;
	// NewCache builds the draft onto sched.
	draft *mining.DraftConfig

	// adm, when non-nil, bounds concurrent serving (WithAdmission):
	// requests acquire a slot before any engine work and excess load is
	// shed with ErrOverloaded. It synchronizes itself and never takes mu.
	adm *admission

	// inject, when non-nil, is the fault-injection hook layer
	// (WithFaultInjection): the disk tier consults it before blob IO so
	// tests drive slow-IO, corruption, ENOSPC and transient-error paths
	// deterministically. Nil in production; Fire on nil is a no-op.
	inject *faultinject.Injector

	// saveMu runs SaveAll calls one at a time. It is taken before mu,
	// never under it.
	saveMu sync.Mutex

	mu      sync.Mutex
	schemas map[string]*schemaEntry
	// store owns module residency; its methods run under mu.
	store tierStore
	stats Stats
}

// Option configures a Cache.
type Option func(*Cache)

// WithDeviceCapacity caps the device (GPU-modelled) tier at capacity
// bytes, 0 for uncapped: states that outgrow it evict the least recently
// used unpinned module (§4.1's GPU-memory configuration).
func WithDeviceCapacity(capacity int64) Option {
	return func(c *Cache) { c.store.device = newLedger(capacity) }
}

// WithHostTier enables two-tier storage (§4.1): modules evicted from the
// device demote into a host tier of capacity bytes, 0 for uncapped (a
// model of terabyte-scale host DRAM), with their states intact, and
// promote back on reuse without re-encoding.
func WithHostTier(capacity int64) Option {
	return func(c *Cache) { c.store.host = newLedger(capacity) }
}

// WithDiskTier adds a durable disk tier below the host pool (or directly
// below the device pool when no host tier is configured): a module whose
// eviction would otherwise drop its states spills them to a
// content-addressed file under dir, quantized per codec (CodecFP32 for
// bit-exact spills), and the next serve that needs it reads the file back
// and promotes it like any host-tier hit — no re-encode. The same dir is
// what SaveAll/OpenDir persist warm-restart snapshots into.
func WithDiskTier(dir string, codec Codec) Option {
	return func(c *Cache) { c.store.disk = newDiskTier(dir, codec) }
}

// WithDecodeScheduler selected the fused decode run loop, which is gone:
// every generation decodes on its caller's goroutine.
//
// Deprecated: it changes nothing and is removed once no caller passes it.
func WithDecodeScheduler(int) Option { return func(*Cache) {} }

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
		store:   tierStore{device: newLedger(0), modules: make(map[string]*EncodedModule)},
		sched:   newScheduler(m),
	}
	for _, o := range opts {
		o(c)
	}
	c.store.stats = &c.stats
	// Option order must not matter: wire the injector into the disk tier
	// and build the draft source into the decode loop after all options
	// ran, whichever order they came in.
	if c.store.disk != nil {
		c.store.disk.inject = c.inject
	}
	if c.draft != nil {
		c.sched.draft = mining.NewDraft(*c.draft)
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
	return slices.Sorted(maps.Keys(c.schemas))
}

// RegisterSchema parses a PML schema, compiles its position layout, and
// eagerly encodes every prompt module and scaffold (§3.3: "Prompt Cache
// populates its cache when a schema is loaded"). The encodes run outside
// the cache lock, concurrently (encodeAll); one short hold then installs
// them all (installSchemaLocked), so serves keep planning meanwhile.
// Re-registering a schema name replaces the old entry; a replacement that
// fails — a bad schema, a failed encode, or a state eviction cannot make
// room for — leaves the old entry serving.
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
	if err := c.installSchemaLocked(entry, ems, kvs); err != nil {
		return nil, err
	}
	return layout, nil
}

// installSchemaLocked installs a schema's encoded modules in place of its
// old entry, if any. States the device pool could not hold with the old
// entry gone and every evictable byte freed would fail after the old
// entry is dropped, so they are refused first (tierStore.fits), leaving
// the old entry serving. The modules install unpinned, so each evicts
// the ones before it if it must.
func (c *Cache) installSchemaLocked(entry *schemaEntry, ems []*EncodedModule, kvs []*kvcache.Cache) error {
	name := entry.schema.Name
	for _, em := range ems {
		c.store.countEncode(em)
	}
	if err := c.store.fits(name, kvs...); err != nil {
		return fmt.Errorf("schema %s: %w", name, err)
	}
	if _, ok := c.schemas[name]; ok {
		c.dropSchemaLocked(name, ems)
	}
	c.schemas[name] = entry
	for i, em := range ems {
		if err := c.store.place(em, kvs[i]); err != nil {
			c.dropSchemaLocked(name, nil)
			return err
		}
	}
	return nil
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

// dropSchemaLocked forgets a schema: its modules leave every tier (one
// that next repeats hands its blob to its successor, tierStore.dropSchema),
// and the draft source forgets its traffic.
func (c *Cache) dropSchemaLocked(name string, next []*EncodedModule) {
	if d := c.sched.draft; d != nil {
		// The draft source's learned phrasing dies with the schema too.
		d.DropClassPrefix(classPrefix(name))
	}
	c.store.dropSchema(name, next)
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
// outside Cache.mu; storage and counting (tierStore.countEncode) are the
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

// unpinModules releases serve pins taken during planning, making the
// modules evictable again.
func (c *Cache) unpinModules(ems []*EncodedModule) {
	if len(ems) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store.release(ems)
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
