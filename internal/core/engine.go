package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/pml"
)

// ServeOpts controls cached inference.
type ServeOpts struct {
	// DisableScaffolds skips scaffold override even when every member of
	// a scaffold is imported (for the §3.3 masking-effect ablation).
	DisableScaffolds bool
}

// ServeResult is the outcome of assembling a prompt's attention states.
type ServeResult struct {
	// KV is the prompt's attention-state sequence, ready for decoding.
	// Cached serves hold a *kvcache.Seq — zero-copy segment views into
	// the pinned modules' buffers plus a private tail for the serve's own
	// tokens; baseline serves hold a flat *kvcache.Cache.
	KV kvcache.KV
	// Logits are the final-token logits (feed to Generate).
	Logits []float32
	// CachedTokens counts tokens whose states were reused from the cache;
	// NewTokens counts tokens computed at serve time (arguments + new
	// text). TTFT saving is the story of this ratio (§3.4).
	CachedTokens, NewTokens int
	// Modules lists imported modules (including anonymous ones) in
	// position order; Scaffolds lists scaffold overrides applied.
	Modules   []string
	Scaffolds []string

	// pins, when non-nil, holds the modules this result's KV views point
	// into, pinned against eviction until Close (or Materialize).
	pins *pinSet

	// spliced lists the precomputed states buffers the KV views alias,
	// one per spliced part; ServeBatch's footprint accounting reads it.
	spliced []*kvcache.Cache

	// class is the serve's serving-class key (see servingClass), set when
	// speculation is active. Generate hands it to the decode loop so
	// draft-source lookups stay scoped to streams whose attention context
	// matches.
	class string
}

// pinSet ties a serve's module pins to the lifetime of the results
// reading them. Continue shares it between the old and new result, so
// releasing is idempotent and closing either releases exactly once.
type pinSet struct {
	cache *Cache
	pins  []*EncodedModule
	once  sync.Once
}

func (p *pinSet) release() {
	if p == nil {
		return
	}
	p.once.Do(func() { p.cache.unpinModules(p.pins) })
}

// Close releases the module pins backing this result's KV views, making
// the modules evictable again. Call it when done decoding from the
// result; a Session does so when it closes. Closing is idempotent, safe
// on results without pins (baselines), and must not race with reads of
// the result's KV.
func (r *ServeResult) Close() {
	if r != nil {
		r.pins.release()
	}
}

// Materialize replaces the result's segmented view with a flat, owned
// copy of the full sequence and releases the module pins. It is the
// escape hatch from view lifetime rules — use it before snapshotting a
// result or parking a session for so long that pinning its modules
// against eviction would be rude. Costs the O(prefix) copy that ordinary
// serves no longer pay.
func (r *ServeResult) Materialize() {
	if seq, ok := r.KV.(*kvcache.Seq); ok {
		r.KV = seq.Materialize()
	}
	r.pins.release()
}

// importBinding is one resolved module import with validated arguments.
type importBinding struct {
	name string
	args map[string]string // param name -> value text
}

// Serve performs cached inference for a PML prompt (§3.4): it validates
// the prompt against its schema, stitches zero-copy views over the
// cached module states, computes attention states only for uncached
// tokens (parameter arguments and new text), and returns a result ready
// for token generation. Cancelling ctx aborts the prefill mid-flight.
//
// The result views pinned module memory: callers must Close (or
// Materialize) it when done decoding, or the viewed modules stay
// unevictable for the life of the cache. The promptcache layer does
// this automatically.
func (c *Cache) Serve(ctx context.Context, promptSrc string, opts ServeOpts) (*ServeResult, error) {
	prompt, err := pml.ParsePrompt(promptSrc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPrompt, err)
	}
	return c.ServeParsed(ctx, prompt, opts)
}

// ServeParsed is Serve for an already-parsed prompt. It holds the cache
// lock only for the metadata phase (validation, module lookup, pinning);
// the view stitching and the prefill run outside it, so serves overlap
// freely.
//
// The cached prefix is never copied: the result's KV is a segmented view
// into the pinned modules' buffers, and the pins stay held until the
// result is Closed (a Session closes its result when it closes; Infer
// closes after generation). Materialize converts to an owned copy when a
// result must outlive its pins.
func (c *Cache) ServeParsed(ctx context.Context, prompt *pml.Prompt, opts ServeOpts) (*ServeResult, error) {
	c.mu.Lock()
	plan, err := c.planServeLocked(prompt, opts)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	// Disk-tier and dropped modules were planned as pending parts: read
	// their blobs back or re-encode them outside the lock, then promote
	// (pinning) or read through.
	if err := c.resolveParts(plan); err != nil {
		c.unpinModules(plan.pinned)
		return nil, err
	}
	newToks, newPos, err := c.gatherNewTokens(plan.layout, prompt, plan.bindings, plan.included)
	if err != nil {
		c.unpinModules(plan.pinned)
		return nil, err
	}

	var class string
	if c.sched.draft != nil {
		class = servingClass(prompt.SchemaName, plan)
	}
	ps := &pinSet{cache: c, pins: plan.pinned}

	// Stitch the cached prefix outside the lock: O(#segments) slice
	// headers, not O(prefix) rows. The pins guarantee every part's
	// states stay intact while the views are readable.
	seq := c.m.NewSeq(plan.tailCap)
	spliced := make([]*kvcache.Cache, len(plan.parts))
	for i, part := range plan.parts {
		spliced[i] = part.states()
		addViews(seq, spliced[i], plan.excluded)
	}
	res, err := c.finishServe(ctx, plan, seq, newToks, newPos)
	if err != nil {
		ps.release()
		return nil, err
	}
	res.spliced = spliced
	res.class = class
	res.pins = ps
	return res, nil
}

// servePart is one stretch of precomputed attention states to splice
// into a served prompt, in emission order.
type servePart struct {
	// key names the states ("schema/module" or "schema/scaffold/name").
	key string
	// em is a pinned resident module; its States() may be read outside
	// the cache lock until the pin is released.
	em *EncodedModule
	// kv is an immutable snapshot — states read through from the host
	// tier, the disk tier or a transient re-encode — used when em is nil.
	kv *kvcache.Cache
	// pending marks a module whose states must be produced before
	// assembly — read from its disk blob, or re-encoded when they are
	// gone — which resolvePart does outside the cache lock. A resolved
	// plan has no pending parts left.
	pending *EncodedModule
}

// states materializes the part's attention states. Safe outside the
// cache lock: em is pinned against eviction, kv is immutable.
func (p servePart) states() *kvcache.Cache {
	if p.em != nil {
		return p.em.KV
	}
	return p.kv
}

// servePlan is the product of the metadata-only planning phase: every
// decision that needed the cache lock, captured so state assembly and
// the prefill can run without it.
type servePlan struct {
	layout    *pml.Layout
	bindings  []importBinding
	included  []string
	scaffolds []string // scaffold overrides applied, in schema order
	excluded  map[int]bool
	parts     []servePart
	pinned    []*EncodedModule // unpin when the serve's result closes
	tailCap   int              // tail reservation for the serve's own tokens
}

// planServeLocked validates the prompt, selects scaffold overrides, and
// pins every module the serve needs. Callers hold c.mu; the returned
// plan is read entirely outside it. On error no pins are retained.
func (c *Cache) planServeLocked(prompt *pml.Prompt, opts ServeOpts) (*servePlan, error) {
	e, ok := c.schemas[prompt.SchemaName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSchema, prompt.SchemaName)
	}

	bindings, err := c.resolveImports(e, prompt)
	if err != nil {
		return nil, err
	}
	included := c.includedModules(e, bindings)

	// Union exclusivity (§3.2.3).
	seenUnion := map[int]string{}
	for _, name := range included {
		ml := e.layout.Modules[name]
		if ml.UnionID >= 0 {
			if prev, clash := seenUnion[ml.UnionID]; clash {
				return nil, fmt.Errorf("%w: modules %q and %q are exclusive union members", ErrBadPrompt, prev, name)
			}
			seenUnion[ml.UnionID] = name
		}
	}

	// Positions of supplied parameter slots must be excluded from the
	// cached states: the argument's freshly computed states replace the
	// <unk> buffer rows (§3.3).
	excluded := map[int]bool{}
	for _, b := range bindings {
		ml := e.layout.Modules[b.name]
		for pname := range b.args {
			seg := ml.ParamSegment(pname)
			for _, p := range seg.Pos {
				excluded[p] = true
			}
		}
	}

	plan := &servePlan{
		layout:   e.layout,
		bindings: bindings,
		included: included,
		excluded: excluded,
		// The tail holds only serve-time tokens (arguments, new text,
		// decoded reply) — the cached prefix lives in views. Argument
		// slots bound the argument volume; 64 covers typical new text
		// and the tail doubles beyond it.
		tailCap: 64 + len(excluded),
	}

	// Scaffold override (§3.3): if every member of a scaffold is
	// imported, its co-encoded states replace the members' individual
	// states, spliced in at the first covered member.
	cover := map[string]string{} // member -> covering scaffold's module name
	if !opts.DisableScaffolds {
		for _, sc := range e.schema.Scaffolds {
			overlaps := slices.ContainsFunc(sc.Modules, func(m string) bool { return cover[m] != "" })
			if overlaps || !allIncluded(sc.Modules, included) {
				continue
			}
			for _, m := range sc.Modules {
				cover[m] = scaffoldPrefix + sc.Name
			}
			plan.scaffolds = append(plan.scaffolds, sc.Name)
		}
	}

	// Acquire the parts in schema position order, scaffolds like any
	// module.
	spliced := map[string]bool{}
	for _, name := range included {
		if sc := cover[name]; sc != "" {
			if spliced[sc] {
				continue
			}
			spliced[sc] = true
			name = sc
		}
		part, err := c.store.acquire(prompt.SchemaName + "/" + name)
		if err != nil {
			c.store.release(plan.pinned)
			return nil, err
		}
		if part.em != nil {
			plan.pinned = append(plan.pinned, part.em)
		}
		plan.parts = append(plan.parts, part)
	}
	return plan, nil
}

// finishServe completes a planned serve outside the cache lock: run the
// already-gathered uncached stream (parameter arguments at their slot
// positions, new text per §3.4) through the prefill into the view's
// tail, and fold the reuse stats back in under a brief re-lock.
func (c *Cache) finishServe(ctx context.Context, plan *servePlan, kv kvcache.KV, newToks, newPos []int) (*ServeResult, error) {
	res := &ServeResult{
		Modules:      plan.included,
		Scaffolds:    plan.scaffolds,
		CachedTokens: kv.Len(),
		NewTokens:    len(newToks),
	}
	if len(newToks) == 0 {
		return nil, fmt.Errorf("%w: prompt adds no new tokens; add instruction text or parameter arguments", ErrBadPrompt)
	}
	logits, err := c.m.PrefillCtx(ctx, newToks, newPos, kv)
	if err != nil {
		return nil, wrapDeadline(err)
	}
	c.mu.Lock()
	c.stats.TokensReused += res.CachedTokens
	c.mu.Unlock()
	res.KV = kv
	res.Logits = logits
	return res, nil
}

// resolveImports validates the prompt's import tree against the schema
// and flattens it to bindings.
func (c *Cache) resolveImports(e *schemaEntry, prompt *pml.Prompt) ([]importBinding, error) {
	var out []importBinding
	var walk func(items []pml.PromptItem, parent string) error
	walk = func(items []pml.PromptItem, parent string) error {
		for _, it := range items {
			imp, ok := it.(*pml.Import)
			if !ok {
				if parent != "" {
					return fmt.Errorf("%w: module %q may contain only nested imports, not text", ErrBadPrompt, parent)
				}
				continue
			}
			ml, ok := e.layout.Modules[imp.Name]
			if !ok {
				return fmt.Errorf("%w: schema %q has no module %q", ErrBadPrompt, e.schema.Name, imp.Name)
			}
			if ml.Parent != parent {
				if parent == "" {
					return fmt.Errorf("%w: module %q is nested inside %q; import it within its parent", ErrBadPrompt, imp.Name, ml.Parent)
				}
				return fmt.Errorf("%w: module %q is not a child of %q", ErrBadPrompt, imp.Name, parent)
			}
			// Validate in sorted key order: with two bad arguments, which
			// error a caller sees must not depend on map iteration order.
			keys := make([]string, 0, len(imp.Args))
			for k := range imp.Args {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			args := map[string]string{}
			for _, k := range keys {
				v := imp.Args[k]
				p := ml.Param(k)
				if p == nil {
					return fmt.Errorf("%w: module %q has no parameter %q", ErrBadPrompt, imp.Name, k)
				}
				n := len(c.tok.Encode(v))
				if n > p.Len {
					return fmt.Errorf("%w: argument %q of %s is %d tokens, exceeding len=%d",
						ErrArgTooLong, k, imp.Name, n, p.Len)
				}
				args[k] = v
			}
			out = append(out, importBinding{name: imp.Name, args: args})
			if err := walk(imp.Children, imp.Name); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(prompt.Items, ""); err != nil {
		return nil, err
	}
	return out, nil
}

// includedModules returns anonymous modules plus imported ones, sorted by
// layout start (ties broken by schema order).
func (c *Cache) includedModules(e *schemaEntry, bindings []importBinding) []string {
	pick := map[string]bool{}
	for _, name := range e.layout.AnonymousModules() {
		pick[name] = true
	}
	for _, b := range bindings {
		pick[b.name] = true
	}
	orderIdx := map[string]int{}
	for i, n := range e.layout.Order {
		orderIdx[n] = i
	}
	out := make([]string, 0, len(pick))
	for n := range pick {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := e.layout.Modules[out[i]], e.layout.Modules[out[j]]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return orderIdx[out[i]] < orderIdx[out[j]]
	})
	return out
}

// gatherNewTokens collects the uncached token/position streams in prompt
// order: parameter arguments adopt their slot positions (§3.3); new text
// takes positions after the preceding module, falling back past the
// global maximum when the natural slot is occupied (§3.4). It reads only
// the immutable layout and the tokenizer, so it needs no lock.
func (c *Cache) gatherNewTokens(layout *pml.Layout, prompt *pml.Prompt, bindings []importBinding, included []string) ([]int, []int, error) {
	// Occupied ranges: included modules' spans.
	type span struct{ lo, hi int }
	var occupied []span
	maxEnd := 0
	for _, name := range included {
		ml := layout.Modules[name]
		occupied = append(occupied, span{ml.Start, ml.Start + ml.Len})
		if ml.Start+ml.Len > maxEnd {
			maxEnd = ml.Start + ml.Len
		}
	}
	overlaps := func(lo, hi int) bool {
		for _, s := range occupied {
			if lo < s.hi && s.lo < hi && lo != hi {
				return true
			}
		}
		return false
	}

	bind := map[string]map[string]string{}
	for _, b := range bindings {
		bind[b.name] = b.args
	}

	var toks, pos []int
	cursor := 0
	var walk func(items []pml.PromptItem) error
	walk = func(items []pml.PromptItem) error {
		for _, it := range items {
			switch v := it.(type) {
			case *pml.Import:
				ml := layout.Modules[v.Name]
				// Supplied arguments: tokens at the slot's positions,
				// emitted in the module's segment order. (A map-order walk
				// here once made the token stream nondeterministic for
				// imports with two or more supplied parameters.)
				args := bind[v.Name]
				for _, seg := range ml.Segments {
					if seg.Kind != pml.SegParam {
						continue
					}
					value, supplied := args[seg.Param]
					if !supplied {
						continue
					}
					if _, here := v.Args[seg.Param]; !here {
						continue
					}
					argToks := c.tok.Encode(value)
					for i, at := range argToks {
						toks = append(toks, at)
						pos = append(pos, seg.Pos[i])
					}
				}
				if ml.Start+ml.Len > cursor {
					cursor = ml.Start + ml.Len
				}
				if err := walk(v.Children); err != nil {
					return err
				}
			case *pml.PromptText:
				t := c.tmpl.Wrap(v.Role, c.tok.Encode(v.Content))
				if len(t) == 0 {
					continue
				}
				start := cursor
				if overlaps(start, start+len(t)) {
					start = maxEnd
				}
				if start+len(t) > c.m.Cfg.MaxSeq {
					return fmt.Errorf("%w: prompt text exceeds model max positions (%d)", ErrPromptTooLong, c.m.Cfg.MaxSeq)
				}
				for i, tt := range t {
					toks = append(toks, tt)
					pos = append(pos, start+i)
				}
				occupied = append(occupied, span{start, start + len(t)})
				if start+len(t) > maxEnd {
					maxEnd = start + len(t)
				}
				cursor = start + len(t)
			}
		}
		return nil
	}
	if err := walk(prompt.Items); err != nil {
		return nil, nil, err
	}
	return toks, pos, nil
}

// addViews appends src's rows to seq as zero-copy segment views,
// splitting around excluded positions (supplied parameter buffers): an
// excluded row costs a segment boundary, not a row-by-row copy of
// everything around it.
func addViews(seq *kvcache.Seq, src *kvcache.Cache, excluded map[int]bool) {
	if len(excluded) == 0 {
		seq.AddView(src, 0, src.Len())
		return
	}
	lo := -1
	for i, p := range src.Pos {
		if excluded[p] {
			if lo >= 0 {
				seq.AddView(src, lo, i)
				lo = -1
			}
			continue
		}
		if lo < 0 {
			lo = i
		}
	}
	if lo >= 0 {
		seq.AddView(src, lo, src.Len())
	}
}

func allIncluded(members, included []string) bool {
	for _, m := range members {
		if !slices.Contains(included, m) {
			return false
		}
	}
	return true
}

// BaselineServe computes the same prompt with ordinary full prefill (the
// paper's KV-Cache baseline): the identical token/position sequence —
// module tokens with arguments substituted inline, then new text — run
// through one full-attention prefill with no reuse. Comparing its output
// against Serve's isolates the §3.3 masking effect.
//
// The baseline touches no cached states at all — it reads only the
// immutable layout and the tokenizer — so the lock is held just long
// enough to resolve the schema; the full prefill runs outside it.
func (c *Cache) BaselineServe(ctx context.Context, promptSrc string) (*ServeResult, error) {
	prompt, err := pml.ParsePrompt(promptSrc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPrompt, err)
	}
	c.mu.Lock()
	e, ok := c.schemas[prompt.SchemaName]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownSchema, prompt.SchemaName)
	}
	bindings, err := c.resolveImports(e, prompt)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	included := c.includedModules(e, bindings)
	layout := e.layout
	c.mu.Unlock()

	bind := map[string]map[string]string{}
	for _, b := range bindings {
		bind[b.name] = b.args
	}

	var toks, pos []int
	for _, name := range included {
		ml := layout.Modules[name]
		for _, seg := range ml.Segments {
			switch seg.Kind {
			case pml.SegText:
				toks = append(toks, seg.Tokens...)
				pos = append(pos, seg.Pos...)
			case pml.SegParam:
				if value, ok := bind[name][seg.Param]; ok {
					argToks := c.tok.Encode(value)
					for i, at := range argToks {
						toks = append(toks, at)
						pos = append(pos, seg.Pos[i])
					}
				} else {
					// Unsupplied parameter: the <unk> buffer stands in
					// for whitespace, as at encode time.
					toks = append(toks, seg.Tokens...)
					pos = append(pos, seg.Pos...)
				}
			}
		}
	}
	// New text only: arguments were already inlined at their slots above,
	// so gather with no bindings.
	textToks, textPos, err := c.gatherNewTokens(layout, prompt, nil, included)
	if err != nil {
		return nil, err
	}
	toks = append(toks, textToks...)
	pos = append(pos, textPos...)
	if len(toks) == 0 {
		return nil, fmt.Errorf("%w: baseline prompt is empty", ErrBadPrompt)
	}
	kv := c.m.NewCache(len(toks) + 64)
	logits, err := c.m.PrefillCtx(ctx, toks, pos, kv)
	if err != nil {
		return nil, wrapDeadline(err)
	}
	return &ServeResult{
		KV:        kv,
		Logits:    logits,
		NewTokens: len(toks),
		Modules:   included,
	}, nil
}

// Generate continues autoregressively from a Serve or BaselineServe
// result; it is GenerateStream without a sink.
func (c *Cache) Generate(ctx context.Context, res *ServeResult, opts model.GenerateOpts) ([]int, error) {
	return c.GenerateStream(ctx, res, opts, nil)
}

// Continue appends a follow-up user turn to an already-served session and
// returns an updated result ready for Generate — multi-turn conversation
// over one KV cache, the standard decode-phase reuse (§2.2) composed with
// Prompt Cache's prefill reuse. The new turn takes consecutive positions
// after the session's maximum position ID. On error — including ctx
// cancellation mid-prefill — the session's KV cache is rolled back to its
// pre-call state, so the session stays usable.
func (c *Cache) Continue(ctx context.Context, res *ServeResult, userText string) (*ServeResult, error) {
	if res == nil || res.KV == nil {
		return nil, fmt.Errorf("%w: Continue on an unserved result", ErrBadPrompt)
	}
	content := c.tok.Encode(userText)
	if len(content) == 0 {
		return nil, fmt.Errorf("%w: Continue with empty text", ErrBadPrompt)
	}
	toks := c.tmpl.Wrap(pml.RoleUser, content)
	start := res.KV.MaxPos() + 1
	if start+len(toks) > c.m.Cfg.MaxSeq {
		return nil, fmt.Errorf("%w: session exceeds model max positions (%d)", ErrPromptTooLong, c.m.Cfg.MaxSeq)
	}
	pos := make([]int, len(toks))
	for i := range pos {
		pos[i] = start + i
	}
	mark := res.KV.Len()
	logits, err := c.m.PrefillCtx(ctx, toks, pos, res.KV)
	if err != nil {
		res.KV.Truncate(mark)
		return nil, wrapDeadline(err)
	}
	// Per-turn reuse accounting: everything already in the session's KV
	// cache was reused; only this turn's text was computed. The pin set
	// is shared, not duplicated: the old and new result wrap the same
	// views, and closing either releases exactly once.
	return &ServeResult{
		KV:           res.KV,
		Logits:       logits,
		CachedTokens: mark,
		NewTokens:    len(toks),
		Modules:      res.Modules,
		Scaffolds:    res.Scaffolds,
		pins:         res.pins,
		class:        res.class,
	}, nil
}

// GenerateStream generates token by token, calling emit (when non-nil)
// with each token's decoded text as soon as it is sampled; returning
// false stops. Cancelling ctx aborts between decode steps. The request
// decodes as one lane of the decode loop (see Scheduler) on the caller's
// goroutine, and emit runs there too: a sink that blocks paces this
// request's decode and no other's.
func (c *Cache) GenerateStream(ctx context.Context, res *ServeResult, opts model.GenerateOpts, emit func(text string) bool) ([]int, error) {
	var detok func(int) bool
	if emit != nil {
		detok = func(tok int) bool { return emit(c.tok.Decode([]int{tok})) }
	}
	ids, err := c.sched.Generate(ctx, res.class, res.KV, res.Logits, opts, detok)
	return ids, wrapDeadline(err)
}
