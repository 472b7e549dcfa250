// Package evict provides cache-replacement policies for prompt-module
// storage, the §6 future-work direction ("GPU cache replacement
// strategies optimized to achieve the latency lower bound made possible
// by Prompt Cache"). Policies rank resident modules for eviction when a
// capacity-limited tier (GPU HBM) fills; internal/core plugs them in via
// WithEvictionPolicy, and internal/serving compares them under
// trace-driven workloads.
package evict

import (
	"container/list"
	"fmt"
)

// Policy ranks cached entries for eviction. Implementations are not
// thread-safe; callers serialize access (core holds its own lock).
type Policy interface {
	// Touch records an access to key (inserting it if new) with its
	// storage size. Re-touching an existing key updates the stored size
	// (a re-encoded module may have a different footprint) even in
	// policies whose ranking ignores recency.
	Touch(key string, size int64)
	// Victim proposes the entry to evict next, without removing it.
	// ok is false when the policy tracks nothing.
	Victim() (key string, ok bool)
	// VictimExcluding proposes the best victim for which excluded
	// returns false, without removing it and without disturbing the
	// ranking of skipped entries. Serving pins in-use modules and
	// passes the pin check here so eviction never frees states a
	// concurrent prefill is reading. A nil excluded behaves like
	// Victim; ok is false when every tracked entry is excluded.
	VictimExcluding(excluded func(key string) bool) (key string, ok bool)
	// Remove forgets an entry (after eviction or explicit free).
	Remove(key string)
}

// --- LRU ---

type lruEntry struct {
	key  string
	size int64
}

// LRU evicts the least recently used entry — the paper's implicit
// default.
type LRU struct {
	ll  *list.List // front = most recent
	idx map[string]*list.Element
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU {
	return &LRU{ll: list.New(), idx: map[string]*list.Element{}}
}

// Touch implements Policy.
func (p *LRU) Touch(key string, size int64) {
	if el, ok := p.idx[key]; ok {
		el.Value.(*lruEntry).size = size
		p.ll.MoveToFront(el)
		return
	}
	p.idx[key] = p.ll.PushFront(&lruEntry{key: key, size: size})
}

// victimFromList walks a back-to-front ranked list (back = next victim)
// and returns the first key not excluded — the shared exclusion walk of
// the list-backed policies (LRU, FIFO).
func victimFromList(ll *list.List, excluded func(string) bool) (string, bool) {
	for el := ll.Back(); el != nil; el = el.Prev() {
		key := el.Value.(*lruEntry).key
		if excluded == nil || !excluded(key) {
			return key, true
		}
	}
	return "", false
}

// Victim implements Policy.
func (p *LRU) Victim() (string, bool) { return p.VictimExcluding(nil) }

// VictimExcluding implements Policy: least recent entry not excluded.
func (p *LRU) VictimExcluding(excluded func(string) bool) (string, bool) {
	return victimFromList(p.ll, excluded)
}

// Remove implements Policy.
func (p *LRU) Remove(key string) {
	if el, ok := p.idx[key]; ok {
		p.ll.Remove(el)
		delete(p.idx, key)
	}
}

// --- FIFO ---

// FIFO evicts the oldest-inserted entry regardless of use.
type FIFO struct {
	ll  *list.List
	idx map[string]*list.Element
}

// newFIFO returns an empty FIFO policy.
func newFIFO() *FIFO {
	return &FIFO{ll: list.New(), idx: map[string]*list.Element{}}
}

// Touch implements Policy. Re-touching keeps the insertion order fixed
// but still refreshes the stored size: a re-encoded module's footprint
// may have changed, and the policy must not keep reporting a stale one.
func (p *FIFO) Touch(key string, size int64) {
	if el, ok := p.idx[key]; ok {
		el.Value.(*lruEntry).size = size
		return
	}
	p.idx[key] = p.ll.PushFront(&lruEntry{key: key, size: size})
}

// Victim implements Policy.
func (p *FIFO) Victim() (string, bool) { return p.VictimExcluding(nil) }

// VictimExcluding implements Policy: oldest insertion not excluded.
func (p *FIFO) VictimExcluding(excluded func(string) bool) (string, bool) {
	return victimFromList(p.ll, excluded)
}

// Remove implements Policy.
func (p *FIFO) Remove(key string) {
	if el, ok := p.idx[key]; ok {
		p.ll.Remove(el)
		delete(p.idx, key)
	}
}

// --- LFU ---

type lfuEntry struct {
	key   string
	size  int64
	count int64
	seq   int64 // recency tiebreak
}

// LFU evicts the least frequently used entry (ties broken by recency).
type LFU struct {
	entries map[string]*lfuEntry
	clock   int64
}

// newLFU returns an empty LFU policy.
func newLFU() *LFU { return &LFU{entries: map[string]*lfuEntry{}} }

// Touch implements Policy.
func (p *LFU) Touch(key string, size int64) {
	p.clock++
	if e, ok := p.entries[key]; ok {
		e.count++
		e.seq = p.clock
		e.size = size
		return
	}
	p.entries[key] = &lfuEntry{key: key, size: size, count: 1, seq: p.clock}
}

// Victim implements Policy.
func (p *LFU) Victim() (string, bool) { return p.VictimExcluding(nil) }

// VictimExcluding implements Policy: least frequent entry not excluded.
func (p *LFU) VictimExcluding(excluded func(string) bool) (string, bool) {
	var best *lfuEntry
	for _, e := range p.entries {
		if excluded != nil && excluded(e.key) {
			continue
		}
		if best == nil || e.count < best.count || (e.count == best.count && e.seq < best.seq) {
			best = e
		}
	}
	if best == nil {
		return "", false
	}
	return best.key, true
}

// Remove implements Policy.
func (p *LFU) Remove(key string) { delete(p.entries, key) }

// --- GDSF ---

type gdsfEntry struct {
	key      string
	size     int64
	count    int64
	priority float64
	seq      int64
}

// GDSF is Greedy-Dual-Size-Frequency: priority = L + frequency/size, so
// small, hot modules survive while large, cold ones go first — the right
// bias for prompt modules whose sizes span orders of magnitude (a system
// message vs a 5K-token document).
type GDSF struct {
	entries map[string]*gdsfEntry
	l       float64 // aging floor: priority of the last victim
	clock   int64
}

// newGDSF returns an empty GDSF policy.
func newGDSF() *GDSF { return &GDSF{entries: map[string]*gdsfEntry{}} }

// Touch implements Policy.
func (p *GDSF) Touch(key string, size int64) {
	p.clock++
	if size <= 0 {
		size = 1
	}
	e, ok := p.entries[key]
	if !ok {
		e = &gdsfEntry{key: key, size: size}
		p.entries[key] = e
	}
	e.count++
	e.size = size
	e.seq = p.clock
	e.priority = p.l + float64(e.count)/float64(e.size)
}

// Victim implements Policy.
func (p *GDSF) Victim() (string, bool) { return p.VictimExcluding(nil) }

// VictimExcluding implements Policy: lowest priority entry not excluded.
func (p *GDSF) VictimExcluding(excluded func(string) bool) (string, bool) {
	var best *gdsfEntry
	for _, e := range p.entries {
		if excluded != nil && excluded(e.key) {
			continue
		}
		if best == nil || e.priority < best.priority ||
			(e.priority == best.priority && e.seq < best.seq) {
			best = e
		}
	}
	if best == nil {
		return "", false
	}
	return best.key, true
}

// Remove implements Policy. Removing the current victim advances the
// aging floor so long-resident entries eventually become evictable.
func (p *GDSF) Remove(key string) {
	if e, ok := p.entries[key]; ok {
		if e.priority > p.l {
			p.l = e.priority
		}
		delete(p.entries, key)
	}
}

// New constructs a policy by name: "lru", "fifo", "lfu" or "gdsf".
func New(name string) (Policy, error) {
	switch name {
	case "lru":
		return NewLRU(), nil
	case "fifo":
		return newFIFO(), nil
	case "lfu":
		return newLFU(), nil
	case "gdsf":
		return newGDSF(), nil
	}
	return nil, fmt.Errorf("evict: unknown policy %q", name)
}

// Names lists the available policies.
func Names() []string { return []string{"lru", "fifo", "lfu", "gdsf"} }
