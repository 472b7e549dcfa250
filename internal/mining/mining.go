// Package mining discovers undeclared shared prefixes in live serving
// traffic and promotes the hot ones to anonymous cached modules.
//
// The paper's reuse model is explicit: someone authors a PML schema
// before any KV state is shared. Production traffic is full of shared
// prefixes nobody declared — system prompts, RAG boilerplate, few-shot
// headers — that re-encode on every request. This package is the
// discovery layer: a concurrency-safe radix tree observes the
// (token, position) streams the engine computes at serve time, scores
// nodes by reuse rate × prefix length (the re-encode cost a hit saves)
// with exponential time decay, and nominates prefixes above a
// configurable threshold for promotion. The engine registers each
// promoted prefix as an anonymous module that flows through the
// existing pin/eviction/disk-spill/warm-restart machinery unchanged;
// when a promoted prefix goes cold, the tree nominates it for demotion
// and the engine garbage-collects it.
//
// Streams are keyed within a class — an opaque string capturing
// everything that determines the attention states of a token run
// (schema, included modules, scaffold overrides, excluded positions) —
// so a mined prefix is only ever spliced into serves whose states it
// reproduces bit-for-bit. Within a class, tree edges are keyed by
// (token, position) pairs: a prefix only matches when both the token
// ids and their position ids agree, which is exactly the condition for
// KV-state equality.
//
// The tree uses a logical clock (one tick per observation) rather than
// wall time, so scoring is deterministic and replayable offline.
package mining

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Config bounds the observer and sets the promotion policy.
type Config struct {
	// MinHits is the observation count a node needs before its prefix
	// qualifies for promotion: a node qualifies once its decayed hit
	// count exceeds MinHits-1, so MinHits tightly clustered
	// observations are enough even though each tick decays a little
	// (default 3).
	MinHits float64
	// MinTokens is the shortest prefix worth promoting: below it the
	// splice saves less than its bookkeeping costs (default 16).
	MinTokens int
	// MaxModules caps live promoted prefixes; promoting past the cap
	// demotes the coldest existing one first (default 64).
	MaxModules int
	// HalfLife is the decay half-life in observations (logical ticks):
	// a node untouched for HalfLife observations counts half as hot.
	// Non-positive selects the default (256).
	HalfLife float64
	// MaxNodes bounds the tree; once reached, new branches are not
	// created (existing paths still update), so memory stays bounded
	// under adversarial traffic (default 4096).
	MaxNodes int
	// MaxStreamTokens truncates observed streams: prefixes longer than
	// this are never candidates, keeping per-observe work O(bounded)
	// (default 512).
	MaxStreamTokens int
}

// Defaults for unset Config fields.
const (
	DefaultMinHits         = 3
	DefaultMinTokens       = 16
	DefaultMaxModules      = 64
	DefaultHalfLife        = 256
	DefaultMaxNodes        = 4096
	DefaultMaxStreamTokens = 512
)

func (c Config) withDefaults() Config {
	if c.MinHits <= 0 {
		c.MinHits = DefaultMinHits
	}
	if c.MinTokens <= 0 {
		c.MinTokens = DefaultMinTokens
	}
	if c.MaxModules <= 0 {
		c.MaxModules = DefaultMaxModules
	}
	if c.HalfLife <= 0 {
		c.HalfLife = DefaultHalfLife
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = DefaultMaxNodes
	}
	if c.MaxStreamTokens <= 0 {
		c.MaxStreamTokens = DefaultMaxStreamTokens
	}
	return c
}

// tokpos is one stream element: a token id at a position id. Both must
// match for two streams to share attention states.
type tokpos struct{ tok, pos int }

// node is one radix-tree node: a compressed run of stream elements.
// Its depth (root-path token count through the end of its edge) is the
// length of the prefix it represents.
type node struct {
	edge     []tokpos
	children map[tokpos]*node
	parent   *node

	// hits is the decayed observation count, valid as of lastTick.
	hits     float64
	lastTick uint64
	depth    int // tokens from the root through this node's edge

	// promoted is the anonymous module name this node's prefix was
	// promoted under ("" when not promoted). pending marks a promotion
	// offered to the engine but not yet confirmed, so concurrent
	// observes do not double-nominate.
	promoted string
	pending  bool
}

// classTree is one class's radix tree.
type classTree struct {
	root *node
}

// Candidate is a prefix nominated for promotion. The engine owns the
// expensive half (capturing the prefix's attention states) and reports
// back with Promoted or PromoteFailed.
type Candidate struct {
	Class string
	// Toks and Pos are the prefix's token and position ids, the
	// concatenation of edge labels along the nominated node's root path.
	Toks, Pos []int

	miner *Miner
	node  *node
}

// Result is what one observation produced: at most one promotion
// nomination, plus any promoted prefixes that have gone cold and should
// be demoted (garbage-collected) by the engine.
type Result struct {
	Promote *Candidate
	// Demote lists anonymous module names whose prefixes went cold.
	// The engine confirms each removal with Demoted; unconfirmed names
	// are re-offered on later observations.
	Demote []string
}

// Stats is a snapshot of observer activity.
type Stats struct {
	Enabled bool `json:"enabled"`
	// Observed counts Observe calls (logical ticks).
	Observed uint64 `json:"observed"`
	// Classes and Nodes size the tree.
	Classes int `json:"classes"`
	Nodes   int `json:"nodes"`
	// Candidates counts nodes currently past the promotion threshold
	// but not (yet) promoted.
	Candidates int `json:"candidates"`
	// Promoted is the number of live promoted prefixes.
	Promoted int `json:"promoted"`
	// Promotions/Demotions are lifetime confirmation counts.
	Promotions uint64 `json:"promotions"`
	Demotions  uint64 `json:"demotions"`
}

// Miner is the traffic observer. It synchronizes itself: Observe,
// Lookup and the confirmation calls may run from any goroutine. All
// methods are leaf calls — the miner never calls back into the engine —
// so callers may hold their own locks across it.
type Miner struct {
	cfg Config

	mu      sync.Mutex
	classes map[string]*classTree
	// promoted indexes live promoted nodes by module name, for
	// demotion confirmations and adoption bookkeeping.
	promoted map[string]*node
	nodes    int
	tick     uint64

	promotions uint64
	demotions  uint64
}

// New builds a Miner; zero Config fields take the documented defaults.
func New(cfg Config) *Miner {
	return &Miner{
		cfg:      cfg.withDefaults(),
		classes:  make(map[string]*classTree),
		promoted: make(map[string]*node),
	}
}

// qualifies reports whether a decayed hit count clears the promotion
// bar (and, symmetrically, whether a promoted node is still warm).
func (m *Miner) qualifies(hits float64) bool { return hits > m.cfg.MinHits-1 }

// decayedHits returns n's hit count decayed to the current tick.
func (m *Miner) decayedHits(n *node) float64 {
	if n.lastTick == m.tick {
		return n.hits
	}
	dt := float64(m.tick - n.lastTick)
	return n.hits * math.Exp2(-dt/m.cfg.HalfLife)
}

// touch decays n to the current tick and adds one hit.
func (m *Miner) touch(n *node) {
	n.hits = m.decayedHits(n) + 1
	n.lastTick = m.tick
}

// Observe records one serve's uncached (token, position) stream and
// returns any promotion nomination and pending demotions it produced.
// Streams longer than MaxStreamTokens are truncated. len(pos) must
// equal len(toks); extra positions are ignored, missing ones truncate.
func (m *Miner) Observe(class string, toks, pos []int) Result {
	if len(pos) < len(toks) {
		toks = toks[:len(pos)]
	}
	// A serve matching a mined prefix must keep at least one uncached
	// token (the engine needs something to prefill), so a full-stream
	// prefix is useless to promote: cap nominations one short of the
	// stream — unless the stream was truncated, in which case the real
	// stream extends past everything we saw anyway.
	budget := len(toks)
	if len(toks) > m.cfg.MaxStreamTokens {
		toks = toks[:m.cfg.MaxStreamTokens]
		pos = pos[:m.cfg.MaxStreamTokens]
	} else {
		budget--
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tick++
	var res Result
	if len(toks) > 0 {
		path := m.insertLocked(class, toks, pos)
		if cand := m.nominateLocked(class, path, budget); cand != nil {
			res.Promote = cand
		}
	}
	res.Demote = m.coldPromotedLocked()
	return res
}

// insertLocked threads the stream through class's tree, splitting edges
// at divergence points and counting a hit on every fully matched node.
// It returns the matched path (root excluded), deepest last.
func (m *Miner) insertLocked(class string, toks, pos []int) []*node {
	ct := m.classes[class]
	if ct == nil {
		ct = &classTree{root: &node{children: make(map[tokpos]*node)}}
		m.classes[class] = ct
		m.nodes++ // the root counts toward the budget
	}
	var path []*node
	cur := ct.root
	i := 0
	for i < len(toks) {
		key := tokpos{toks[i], pos[i]}
		child := cur.children[key]
		if child == nil {
			if m.nodes >= m.cfg.MaxNodes {
				return path // budget exhausted: count what matched, grow nothing
			}
			child = &node{
				edge:     streamElems(toks[i:], pos[i:]),
				children: make(map[tokpos]*node),
				parent:   cur,
				depth:    cur.depth + len(toks) - i,
			}
			cur.children[key] = child
			m.nodes++
			m.touch(child)
			return append(path, child)
		}
		// Walk the child's edge as far as it matches.
		n := 0
		for n < len(child.edge) && i+n < len(toks) &&
			child.edge[n] == (tokpos{toks[i+n], pos[i+n]}) {
			n++
		}
		if n < len(child.edge) {
			// Partial match: split the edge at n so hit counts attach to
			// an exact boundary.
			if m.nodes >= m.cfg.MaxNodes {
				return path
			}
			child = m.splitAt(child, n)
		}
		m.touch(child)
		path = append(path, child)
		i += len(child.edge)
		cur = child
	}
	return path
}

// splitAt splits child's edge after n elements (0 < n < len(edge)),
// inserting a new upper node that inherits the child's statistics:
// every stream that passed through the child also passed through its
// first n elements. Returns the upper node. Caller checks MaxNodes.
func (m *Miner) splitAt(child *node, n int) *node {
	upper := &node{
		edge:     child.edge[:n:n],
		children: map[tokpos]*node{child.edge[n]: child},
		parent:   child.parent,
		depth:    child.depth - (len(child.edge) - n),
		hits:     child.hits,
		lastTick: child.lastTick,
	}
	child.parent.children[upper.edge[0]] = upper
	child.edge = child.edge[n:]
	child.parent = upper
	m.nodes++
	return upper
}

func streamElems(toks, pos []int) []tokpos {
	out := make([]tokpos, len(toks))
	for i := range toks {
		out[i] = tokpos{toks[i], pos[i]}
	}
	return out
}

// nominateLocked picks the deepest node on the just-observed path, at
// most budget tokens deep, that qualifies for promotion and is not
// already promoted (or pending). Returning the deepest maximizes
// spliced tokens per hit; shallower qualifying ancestors stay
// candidates and can promote on later observations if the deep branch
// cools off. A qualifying node deeper than the budget has its edge
// split at the budget boundary so a usable prefix exists — this is how
// a stream observed repeatedly verbatim still yields a promotable
// (length-1) prefix.
func (m *Miner) nominateLocked(class string, path []*node, budget int) *Candidate {
	if budget < m.cfg.MinTokens {
		return nil
	}
	if len(m.promoted) >= m.cfg.MaxModules && !m.canEvictColdestLocked() {
		return nil
	}
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if n.depth > budget {
			if n.depth-len(n.edge) >= budget {
				continue // the whole edge is past the budget
			}
			if n.promoted != "" || n.pending || !m.qualifies(m.decayedHits(n)) {
				continue
			}
			if m.nodes >= m.cfg.MaxNodes {
				continue
			}
			n = m.splitAt(n, budget-(n.depth-len(n.edge)))
		} else {
			if n.promoted != "" || n.pending {
				return nil // a promoted/pending ancestor covers this path
			}
			if !m.qualifies(m.decayedHits(n)) {
				continue
			}
		}
		if n.depth < m.cfg.MinTokens {
			return nil // everything shallower is shorter still
		}
		n.pending = true
		toks, pos := rootPath(n)
		return &Candidate{Class: class, Toks: toks, Pos: pos, miner: m, node: n}
	}
	return nil
}

// canEvictColdestLocked reports whether the cap can make room: true when
// some promoted node is colder than MinHits (it will be in the next
// demote sweep).
func (m *Miner) canEvictColdestLocked() bool {
	for _, n := range m.promoted {
		if !m.qualifies(m.decayedHits(n)) {
			return true
		}
	}
	return false
}

// rootPath reconstructs the token/position prefix a node represents:
// the concatenation of edge labels from the root down to (and
// including) the node. This is the invariant the fuzzer checks: a
// promoted prefix always equals this concatenation.
func rootPath(n *node) (toks, pos []int) {
	var chain []*node
	for ; n != nil && n.parent != nil; n = n.parent {
		chain = append(chain, n)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		for _, e := range chain[i].edge {
			toks = append(toks, e.tok)
			pos = append(pos, e.pos)
		}
	}
	return toks, pos
}

// coldPromotedLocked returns promoted module names whose decayed hits
// fell below MinHits — the demotion nominations. Names are returned
// sorted so demotion order is deterministic.
func (m *Miner) coldPromotedLocked() []string {
	var out []string
	for name, n := range m.promoted {
		if !m.qualifies(m.decayedHits(n)) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Promoted confirms a candidate: the engine captured its states and
// registered module name for it. The node starts its promoted life as
// hot as the threshold demands, so it is not instantly re-demoted.
func (c *Candidate) Promoted(name string) {
	m := c.miner
	m.mu.Lock()
	defer m.mu.Unlock()
	c.node.pending = false
	c.node.promoted = name
	if !m.qualifies(m.decayedHits(c.node)) {
		c.node.hits = m.cfg.MinHits
		c.node.lastTick = m.tick
	}
	m.promoted[name] = c.node
	m.promotions++
}

// PromoteFailed releases a nomination the engine could not act on
// (capacity pressure, racing schema drop); the node may be nominated
// again later.
func (c *Candidate) PromoteFailed() {
	m := c.miner
	m.mu.Lock()
	defer m.mu.Unlock()
	c.node.pending = false
}

// Demoted confirms the engine garbage-collected a promoted prefix. The
// node's statistics reset so an immediate re-promotion needs fresh
// evidence.
func (m *Miner) Demoted(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.promoted[name]
	if !ok {
		return
	}
	delete(m.promoted, name)
	n.promoted = ""
	n.hits = 0
	n.lastTick = m.tick
	m.demotions++
}

// Lookup finds the longest promoted prefix of the stream, at most
// maxTokens long, and returns its module name and token length. It does
// not count as an observation (the caller observes the full stream
// separately) but it refreshes the matched node's heat so serving
// traffic keeps its mined modules warm.
func (m *Miner) Lookup(class string, toks, pos []int, maxTokens int) (name string, n int, ok bool) {
	if len(pos) < len(toks) {
		toks = toks[:len(pos)]
	}
	if maxTokens < len(toks) {
		toks = toks[:maxTokens]
		pos = pos[:maxTokens]
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ct := m.classes[class]
	if ct == nil {
		return "", 0, false
	}
	cur := ct.root
	i := 0
	var best *node
	for i < len(toks) {
		child := cur.children[tokpos{toks[i], pos[i]}]
		if child == nil {
			break
		}
		k := 0
		for k < len(child.edge) && i+k < len(toks) &&
			child.edge[k] == (tokpos{toks[i+k], pos[i+k]}) {
			k++
		}
		if k < len(child.edge) {
			break // stream ends or diverges mid-edge: child's prefix not covered
		}
		if child.promoted != "" {
			best = child
		}
		i += k
		cur = child
	}
	if best == nil {
		return "", 0, false
	}
	m.touch(best)
	return best.promoted, best.depth, true
}

// Adopt registers an externally restored prefix (a warm-restarted mined
// module) as promoted, recreating its path in the tree. It is the
// restore-side counterpart of Promoted.
func (m *Miner) Adopt(class string, toks, pos []int, name string) error {
	if len(toks) == 0 || len(toks) != len(pos) {
		return fmt.Errorf("mining: adopt %q: bad stream (%d toks, %d pos)", name, len(toks), len(pos))
	}
	if len(toks) > m.cfg.MaxStreamTokens {
		return fmt.Errorf("mining: adopt %q: %d tokens exceeds MaxStreamTokens %d", name, len(toks), m.cfg.MaxStreamTokens)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tick++
	path := m.insertLocked(class, toks, pos)
	if len(path) == 0 || path[len(path)-1].depth != len(toks) {
		return fmt.Errorf("mining: adopt %q: tree budget exhausted", name)
	}
	n := path[len(path)-1]
	if n.promoted != "" && n.promoted != name {
		return fmt.Errorf("mining: adopt %q: prefix already promoted as %q", name, n.promoted)
	}
	n.promoted = name
	if n.hits < m.cfg.MinHits {
		n.hits = m.cfg.MinHits
		n.lastTick = m.tick
	}
	m.promoted[name] = n
	return nil
}

// DropClassPrefix removes every class whose key starts with prefix —
// the engine calls it when a schema is dropped or replaced, with the
// schema's class-key prefix — and returns the names of promoted
// prefixes that vanished with them (already gone from the cache; no
// Demoted confirmation needed).
func (m *Miner) DropClassPrefix(prefix string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var dropped []string
	for class, ct := range m.classes {
		if !strings.HasPrefix(class, prefix) {
			continue
		}
		m.nodes -= countNodes(ct.root)
		delete(m.classes, class)
		for name, n := range m.promoted {
			if treeContains(ct.root, n) {
				delete(m.promoted, name)
				dropped = append(dropped, name)
			}
		}
	}
	sort.Strings(dropped)
	return dropped
}

func countNodes(n *node) int {
	total := 1
	for _, c := range n.children {
		total += countNodes(c)
	}
	return total
}

func treeContains(root, n *node) bool {
	for ; n != nil; n = n.parent {
		if n == root {
			return true
		}
	}
	return false
}

// Stats snapshots observer activity. Candidate counting walks the tree;
// the node budget bounds the walk.
func (m *Miner) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		Enabled:    true,
		Observed:   m.tick,
		Classes:    len(m.classes),
		Nodes:      m.nodes,
		Promoted:   len(m.promoted),
		Promotions: m.promotions,
		Demotions:  m.demotions,
	}
	for _, ct := range m.classes {
		st.Candidates += m.countCandidates(ct.root)
	}
	return st
}

func (m *Miner) countCandidates(n *node) int {
	total := 0
	if n.parent != nil && n.promoted == "" && !n.pending &&
		n.depth >= m.cfg.MinTokens && m.qualifies(m.decayedHits(n)) {
		total++
	}
	for _, c := range n.children {
		total += m.countCandidates(c)
	}
	return total
}
