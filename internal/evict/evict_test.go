package evict

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

func TestLRUOrder(t *testing.T) {
	p := NewLRU()
	p.Touch("a", 1)
	p.Touch("b", 1)
	p.Touch("c", 1)
	p.Touch("a", 1) // a becomes most recent
	if v, _ := p.Victim(); v != "b" {
		t.Fatalf("victim = %q, want b", v)
	}
	p.Remove("b")
	if v, _ := p.Victim(); v != "c" {
		t.Fatalf("victim = %q, want c", v)
	}
}

func TestFIFOIgnoresReuse(t *testing.T) {
	p := newFIFO()
	p.Touch("a", 1)
	p.Touch("b", 1)
	p.Touch("a", 1) // does not refresh insertion order
	if v, _ := p.Victim(); v != "a" {
		t.Fatalf("victim = %q, want a (oldest insert)", v)
	}
}

func TestLFUFrequency(t *testing.T) {
	p := newLFU()
	p.Touch("hot", 1)
	p.Touch("hot", 1)
	p.Touch("hot", 1)
	p.Touch("cold", 1)
	if v, _ := p.Victim(); v != "cold" {
		t.Fatalf("victim = %q, want cold", v)
	}
	// Tie → older access evicted first.
	q := newLFU()
	q.Touch("x", 1)
	q.Touch("y", 1)
	if v, _ := q.Victim(); v != "x" {
		t.Fatalf("tie victim = %q, want x", v)
	}
}

func TestGDSFPrefersEvictingLargeCold(t *testing.T) {
	p := newGDSF()
	p.Touch("small-hot", 10)
	p.Touch("small-hot", 10)
	p.Touch("large-cold", 10000)
	if v, _ := p.Victim(); v != "large-cold" {
		t.Fatalf("victim = %q, want large-cold", v)
	}
}

func TestGDSFAging(t *testing.T) {
	p := newGDSF()
	p.Touch("old", 10)
	for i := 0; i < 50; i++ {
		p.Touch("old", 10) // very hot early
	}
	// Evict something to raise the floor, then add a new entry.
	p.Touch("filler", 10)
	v, _ := p.Victim()
	if v != "filler" {
		t.Fatalf("victim = %q, want filler (cold)", v)
	}
	p.Remove(v)
	p.Touch("new", 10)
	// The aging floor means "new" isn't immediately doomed by "old"'s
	// historical frequency: one more eviction round must pick between
	// them by priority, not raw count.
}

func TestEmptyVictim(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.Victim(); ok {
			t.Fatalf("%s: victim on empty policy", name)
		}
		p.Remove("ghost") // must not panic
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("belady"); err == nil {
		t.Fatal("unknown policy should error")
	}
}

// access is one cache reference in a trace.
type access struct {
	key  string
	size int64
}

// hitRate replays trace against a cache of capacity bytes governed by p
// and returns the share of accesses that hit. A miss evicts p's victims
// until the entry fits; an entry larger than the capacity never does.
func hitRate(p Policy, capacity int64, trace []access) float64 {
	resident := map[string]int64{}
	var used int64
	hits := 0
	for _, a := range trace {
		if _, ok := resident[a.key]; ok {
			hits++
			p.Touch(a.key, a.size)
			continue
		}
		if a.size > capacity {
			continue
		}
		for used+a.size > capacity {
			victim, ok := p.Victim()
			if !ok {
				break
			}
			used -= resident[victim]
			delete(resident, victim)
			p.Remove(victim)
		}
		resident[a.key] = a.size
		used += a.size
		p.Touch(a.key, a.size)
	}
	return float64(hits) / float64(len(trace))
}

// zipfTrace builds a skewed module-access trace: popularity rank r is
// accessed proportionally to 1/r^s.
func zipfTrace(r *rng.RNG, modules int, accesses int, s float64, size func(i int) int64) []access {
	weights := make([]float64, modules)
	var total float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), s)
		total += weights[i]
	}
	var trace []access
	for a := 0; a < accesses; a++ {
		u := r.Float64() * total
		acc := 0.0
		pick := modules - 1
		for i, w := range weights {
			acc += w
			if u < acc {
				pick = i
				break
			}
		}
		trace = append(trace, access{key: fmt.Sprintf("m%d", pick), size: size(pick)})
	}
	return trace
}

func TestPoliciesOnZipfTrace(t *testing.T) {
	r := rng.New(99)
	uniform := func(int) int64 { return 10 }
	trace := zipfTrace(r, 50, 4000, 1.1, uniform)
	results := map[string]float64{}
	for _, name := range Names() {
		p, _ := New(name)
		hr := hitRate(p, 200, trace) // room for 20 of 50 modules
		results[name] = hr
		if hr <= 0.2 {
			t.Errorf("%s: hit rate %.2f implausibly low", name, hr)
		}
	}
	// On a skewed, uniform-size trace, LFU and GDSF (frequency-aware)
	// should not lose badly to FIFO.
	if results["lfu"] < results["fifo"]-0.05 {
		t.Errorf("lfu %.3f far below fifo %.3f", results["lfu"], results["fifo"])
	}
	t.Logf("hit rates: %v", results)
}

func TestGDSFBeatsLRUOnSkewedSizes(t *testing.T) {
	// Hot small modules + cold huge ones: size-aware GDSF should keep
	// the small hot set resident and beat LRU.
	r := rng.New(7)
	size := func(i int) int64 {
		if i < 10 {
			return 10 // hot ranks are small
		}
		return 500
	}
	trace := zipfTrace(r, 60, 6000, 1.0, size)
	lru := hitRate(NewLRU(), 1000, trace)
	gdsf := hitRate(newGDSF(), 1000, trace)
	t.Logf("lru=%.3f gdsf=%.3f", lru, gdsf)
	if gdsf <= lru {
		t.Fatalf("gdsf %.3f should beat lru %.3f under skewed sizes", gdsf, lru)
	}
}

// TestFIFOReTouchUpdatesSize: FIFO keeps insertion order on re-touch but
// must still refresh the stored size — a re-encoded module's footprint
// changes, and the policy reporting a stale one corrupts accounting.
func TestFIFOReTouchUpdatesSize(t *testing.T) {
	p := newFIFO()
	p.Touch("a", 10)
	p.Touch("b", 20)
	p.Touch("a", 99) // re-encode with a different footprint
	if v, ok := p.Victim(); !ok || v != "a" {
		t.Fatalf("victim = %q, want a (insertion order must not refresh)", v)
	}
	if got := p.idx["a"].Value.(*lruEntry).size; got != 99 {
		t.Fatalf("stored size = %d, want 99 after re-touch", got)
	}
}

// TestVictimExcluding: every policy must skip excluded (pinned) entries
// without disturbing its ranking, and report no victim when everything
// is excluded.
func TestVictimExcluding(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		p.Touch("a", 1)
		p.Touch("b", 2)
		p.Touch("c", 3)

		pinned := map[string]bool{}
		excluded := func(k string) bool { return pinned[k] }
		first, ok := p.Victim()
		if !ok {
			t.Fatalf("%s: no victim", name)
		}
		var order []string
		for len(pinned) < 3 {
			v, ok := p.VictimExcluding(excluded)
			if !ok {
				t.Fatalf("%s: no victim with %d/3 pinned", name, len(pinned))
			}
			if pinned[v] {
				t.Fatalf("%s: proposed pinned victim %q", name, v)
			}
			order = append(order, v)
			pinned[v] = true
		}
		if order[0] != first {
			t.Fatalf("%s: VictimExcluding(nil-equivalent) = %q, Victim = %q", name, order[0], first)
		}
		if _, ok := p.VictimExcluding(excluded); ok {
			t.Fatalf("%s: victim proposed with everything pinned", name)
		}
		// Skipping must not reorder: with pins lifted, the original
		// victim stands.
		clear(pinned)
		if v, _ := p.Victim(); v != first {
			t.Fatalf("%s: ranking disturbed by exclusion scans (%q -> %q)", name, first, v)
		}
	}
}
