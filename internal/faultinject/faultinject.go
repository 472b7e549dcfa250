// Package faultinject is a deterministic fault-injection hook layer:
// production code plants named points (Fire) on its IO paths at zero
// cost — a nil *Injector is a no-op — and robustness tests arm those
// points with rules that delay calls, fail them transiently, corrupt
// them, or exhaust space, probabilistically (seeded, reproducible) or
// on exact call schedules. The engine's disk tier threads an injector
// through its blob reads and writes so overload and degradation tests
// can prove the retry, re-encode and spill-fallthrough paths work
// without ever touching a real failing disk.
package faultinject

import (
	"errors"
	"sync"
	"time"

	"repro/internal/rng"
)

// The standard injected error kinds. Callers of Fire classify with
// errors.Is: a transient error is retryable, a corrupt one is not, and
// no-space fails writes the way a full filesystem would.
var (
	// ErrTransient models a momentary IO failure (EIO, a flaky mount):
	// the underlying data is fine and a retry may succeed.
	ErrTransient = errors.New("faultinject: transient io error")
	// ErrCorrupt models proven data corruption: retrying is pointless
	// and the consumer should invalidate and regenerate.
	ErrCorrupt = errors.New("faultinject: corrupt data")
	// ErrNoSpace models filesystem exhaustion (ENOSPC) on writes.
	ErrNoSpace = errors.New("faultinject: no space left on device")
)

// Rule arms one injection point. The zero value never fires; Err and/or
// Delay give the rule its effect, the remaining fields gate when.
type Rule struct {
	// Err is returned from Fire when the rule fires (nil for
	// delay-only rules, which model slow IO without failing it).
	Err error
	// Delay is slept before returning when the rule fires.
	Delay time.Duration
	// Prob fires the rule on each call with this probability
	// (0 or >= 1 means always, subject to Times/Every). Draws come from
	// the injector's seeded generator, so runs reproduce exactly.
	Prob float64
	// Times caps how often the rule fires (0 = unlimited). A Times: 2
	// transient rule fails the first two calls and heals — the shape
	// retry tests want.
	Times int
	// Every fires only on every Nth call (0 = every call), counting
	// from the first: Every: 3 fires on calls 3, 6, 9, ...
	Every int
}

// ruleState is one point's armed rule plus its call/fire counters.
type ruleState struct {
	rule  Rule
	calls int
	fired int
}

// Injector holds armed rules by point name. It is safe for concurrent
// use; a nil *Injector is valid and never fires.
type Injector struct {
	mu    sync.Mutex
	rng   *rng.RNG
	rules map[string]*ruleState
}

// New returns an injector whose probabilistic draws derive from seed.
//
//pclint:ignore unreached test seam: robustness tests build the injector the disk tier consults; production caches run without one
func New(seed uint64) *Injector {
	return &Injector{rng: rng.New(seed), rules: make(map[string]*ruleState)}
}

// Set arms (or replaces) the rule at point, resetting its counters.
//
//pclint:ignore unreached test seam: robustness tests arm fault points through it
func (in *Injector) Set(point string, r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[point] = &ruleState{rule: r}
}

// Clear disarms point (a no-op when it was never armed).
//
//pclint:ignore unreached test seam: robustness tests disarm fault points through it
func (in *Injector) Clear(point string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.rules, point)
}

// Fire consults the rule at point: when it fires, Fire sleeps the
// rule's Delay and returns its Err (which may be nil for delay-only
// rules). Unarmed points — and every point of a nil Injector — return
// nil immediately, so production paths pay one nil check.
func (in *Injector) Fire(point string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	rs, ok := in.rules[point]
	if !ok {
		in.mu.Unlock()
		return nil
	}
	rs.calls++
	fire := true
	if rs.rule.Times > 0 && rs.fired >= rs.rule.Times {
		fire = false
	}
	if fire && rs.rule.Every > 0 && rs.calls%rs.rule.Every != 0 {
		fire = false
	}
	if fire && rs.rule.Prob > 0 && rs.rule.Prob < 1 && in.rng.Float64() >= rs.rule.Prob {
		fire = false
	}
	if !fire {
		in.mu.Unlock()
		return nil
	}
	rs.fired++
	delay, err := rs.rule.Delay, rs.rule.Err
	in.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return err
}

// Fired reports how many times point's rule has fired.
//
//pclint:ignore unreached test seam: robustness tests assert how often a fault fired
func (in *Injector) Fired(point string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if rs, ok := in.rules[point]; ok {
		return rs.fired
	}
	return 0
}

// Calls reports how many times point was consulted (fired or not).
//
//pclint:ignore unreached test seam: robustness tests assert how often a point was consulted
func (in *Injector) Calls(point string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if rs, ok := in.rules[point]; ok {
		return rs.calls
	}
	return 0
}
