package mining

import (
	"math"
	"strconv"
	"strings"
	"sync"
)

// Draft is the speculative-decoding draft source: a back-off n-gram
// predictor over the token streams decode actually produced, keyed by
// the same serving-class strings as the module-mining radix tree. It is
// not a second model — proposals come from counting which token followed
// which context in earlier replies of the same class, with the miner's
// exponential logical-clock decay so stale phrasing ages out.
//
// The predictor only ever *proposes*; the engine's verify step scores
// every proposal with the real model and accepts exactly the prefix solo
// decode would have produced. A wrong draft therefore costs wasted
// verify width, never a wrong token, which is why a statistics table
// this cheap is a sound draft source.
//
// Like Miner, a Draft synchronizes itself and all methods are leaf
// calls, so callers may hold their own locks across it.
type Draft struct {
	cfg DraftConfig

	mu      sync.Mutex
	classes map[string]*draftClass
	entries int
	tick    uint64
}

// DraftConfig bounds the predictor and sets the proposal policy.
type DraftConfig struct {
	// Context is the maximum n-gram context length: predictions condition
	// on up to this many preceding tokens, backing off to shorter
	// contexts when a long one was never observed (default 3).
	Context int
	// MaxDraft caps tokens proposed per call when the caller does not
	// pass a tighter bound (default 4).
	MaxDraft int
	// MinHits is the decayed observation count a (context, token)
	// transition needs before it is proposed; colder transitions — and a
	// cold tree — propose nothing (default 2).
	MinHits float64
	// HalfLife is the decay half-life in observations (logical ticks),
	// matching the miner's clock semantics (default 512).
	HalfLife float64
	// MaxEntries bounds distinct contexts across all classes; once
	// reached, new contexts are not created (existing ones still update),
	// so memory stays bounded under adversarial traffic (default 65536).
	MaxEntries int
	// MaxStreamTokens truncates observed streams (default 512).
	MaxStreamTokens int
}

// Defaults for unset DraftConfig fields.
const (
	DefaultDraftContext    = 3
	DefaultDraftMaxDraft   = 4
	DefaultDraftMinHits    = 2
	DefaultDraftHalfLife   = 512
	DefaultDraftMaxEntries = 65536
)

func (c DraftConfig) withDefaults() DraftConfig {
	if c.Context <= 0 {
		c.Context = DefaultDraftContext
	}
	if c.MaxDraft <= 0 {
		c.MaxDraft = DefaultDraftMaxDraft
	}
	if c.MinHits <= 0 {
		c.MinHits = DefaultDraftMinHits
	}
	if c.HalfLife <= 0 {
		c.HalfLife = DefaultDraftHalfLife
	}
	if c.MaxEntries <= 0 {
		c.MaxEntries = DefaultDraftMaxEntries
	}
	if c.MaxStreamTokens <= 0 {
		c.MaxStreamTokens = DefaultMaxStreamTokens
	}
	return c
}

// draftClass is one serving class's context table.
type draftClass struct {
	ctxs map[string]*draftEntry
}

// draftEntry is the successor statistics of one observed context.
type draftEntry struct {
	succ map[int]*draftSucc
}

// draftSucc is a decayed count for one (context, next-token) transition.
type draftSucc struct {
	hits     float64
	lastTick uint64
}

// DraftStats is a snapshot of draft-source activity.
type DraftStats struct {
	Enabled bool `json:"enabled"`
	// Observed counts Observe calls (logical ticks).
	Observed uint64 `json:"observed"`
	// Classes and Contexts size the table.
	Classes  int `json:"classes"`
	Contexts int `json:"contexts"`
}

// NewDraft builds a Draft; zero DraftConfig fields take the documented
// defaults.
func NewDraft(cfg DraftConfig) *Draft {
	return &Draft{
		cfg:     cfg.withDefaults(),
		classes: make(map[string]*draftClass),
	}
}

// ctxKey encodes a context token run as a map key.
func ctxKey(toks []int) string {
	var b strings.Builder
	for i, t := range toks {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(t))
	}
	return b.String()
}

// decayed returns s's hit count decayed to the current tick.
func (d *Draft) decayed(s *draftSucc) float64 {
	if s.lastTick == d.tick {
		return s.hits
	}
	dt := float64(d.tick - s.lastTick)
	return s.hits * math.Exp2(-dt/d.cfg.HalfLife)
}

// Observe records one accepted decode stream: for every token it counts
// a hit on each (suffix context of length 1..Context, token) transition,
// so the predictor learns all back-off orders at once. Call it with the
// tokens a generation actually emitted (draft proposals that were
// rejected must not be fed back, or the predictor would reinforce its
// own mistakes).
func (d *Draft) Observe(class string, toks []int) {
	if len(toks) < 2 {
		return
	}
	if len(toks) > d.cfg.MaxStreamTokens {
		toks = toks[:d.cfg.MaxStreamTokens]
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tick++
	dc := d.classes[class]
	if dc == nil {
		dc = &draftClass{ctxs: make(map[string]*draftEntry)}
		d.classes[class] = dc
	}
	for i := 1; i < len(toks); i++ {
		for c := 1; c <= d.cfg.Context && c <= i; c++ {
			key := ctxKey(toks[i-c : i])
			e := dc.ctxs[key]
			if e == nil {
				if d.entries >= d.cfg.MaxEntries {
					continue
				}
				e = &draftEntry{succ: make(map[int]*draftSucc)}
				dc.ctxs[key] = e
				d.entries++
			}
			s := e.succ[toks[i]]
			if s == nil {
				s = &draftSucc{}
				e.succ[toks[i]] = s
			}
			s.hits = d.decayed(s) + 1
			s.lastTick = d.tick
		}
	}
}

// Propose predicts up to max tokens that will follow ctx in the given
// class, longest-context-first with back-off, greedily extending its own
// prediction. It returns nil when the class was never observed or no
// transition clears MinHits — a cold or decayed tree proposes nothing,
// which keeps the verify step exactly a single-token decode step.
//
// The selection is deterministic: among successors with the same decayed
// count the lowest token id wins, so map iteration order cannot leak
// into proposals (and therefore cannot leak into which prefix the verify
// step accepts — not that it could change output, but determinism keeps
// benchmarks and golden tests replayable).
func (d *Draft) Propose(class string, ctx []int, max int) []int {
	if max <= 0 || max > d.cfg.MaxDraft {
		max = d.cfg.MaxDraft
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	dc := d.classes[class]
	if dc == nil || len(ctx) == 0 {
		return nil
	}
	// cur holds the rolling context window: the tail of ctx, extended by
	// each accepted proposal.
	start := len(ctx) - d.cfg.Context
	if start < 0 {
		start = 0
	}
	cur := append([]int(nil), ctx[start:]...)
	var out []int
	for len(out) < max {
		tok, ok := d.bestLocked(dc, cur)
		if !ok {
			break
		}
		out = append(out, tok)
		cur = append(cur, tok)
		if len(cur) > d.cfg.Context {
			cur = cur[1:]
		}
	}
	return out
}

// bestLocked finds the hottest qualifying successor of the longest
// observed suffix of cur, backing off to shorter contexts when a longer
// one has no qualifying successor.
func (d *Draft) bestLocked(dc *draftClass, cur []int) (int, bool) {
	for c := len(cur); c >= 1; c-- {
		if c > d.cfg.Context {
			continue
		}
		e := dc.ctxs[ctxKey(cur[len(cur)-c:])]
		if e == nil {
			continue
		}
		bestTok, bestHits, found := 0, 0.0, false
		//pclint:ignore maporder max-with-lowest-token-id tie-break: the selected successor is the same in every iteration order
		for tok, s := range e.succ {
			h := d.decayed(s)
			if h <= d.cfg.MinHits-1 {
				continue
			}
			if !found || h > bestHits || (h == bestHits && tok < bestTok) {
				bestTok, bestHits, found = tok, h, true
			}
		}
		if found {
			return bestTok, true
		}
	}
	return 0, false
}

// DropClassPrefix removes every class whose key starts with prefix — the
// draft-side counterpart of Miner.DropClassPrefix, called when a schema
// is dropped or replaced so its learned phrasing dies with it.
func (d *Draft) DropClassPrefix(prefix string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for class, dc := range d.classes {
		if !strings.HasPrefix(class, prefix) {
			continue
		}
		d.entries -= len(dc.ctxs)
		delete(d.classes, class)
	}
}

// Stats snapshots draft-source activity.
func (d *Draft) Stats() DraftStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DraftStats{
		Enabled:  true,
		Observed: d.tick,
		Classes:  len(d.classes),
		Contexts: d.entries,
	}
}
