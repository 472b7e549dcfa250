// Package serving simulates the LLM serving system the paper sketches as
// future work (§6): Prompt Cache as a building block under a two-tier
// memory hierarchy — scarce GPU HBM in front of abundant host DRAM — with
// pluggable cache-replacement policies deciding which prompt modules stay
// device-resident.
//
// The simulator replays a skewed (Zipf) request stream over a module
// universe. Every request imports k modules and adds an uncached suffix;
// its TTFT is assembled from the calibrated hardware model
// (internal/hw): device-to-device copies for HBM-resident modules,
// host-to-device uploads (plus promotion and possible evictions) for the
// rest, and suffix attention compute. Comparing policies and capacities
// against the no-reuse baseline quantifies how far a replacement policy
// gets toward the "latency lower bound made possible by Prompt Cache".
package serving

import (
	"fmt"
	"math"
	"time"

	"repro/internal/evict"
	"repro/internal/hw"
	"repro/internal/rng"
)

// ModuleSpec is one cacheable prompt module in the universe.
type ModuleSpec struct {
	Name   string
	Tokens int
}

// Config parameterizes a simulation run.
type Config struct {
	Device *hw.Device
	Model  hw.Model

	Modules []ModuleSpec
	// Requests is the stream length; each request imports
	// ModulesPerRequest distinct modules chosen by Zipf(ZipfS) popularity
	// and appends SuffixTokens of uncached text.
	Requests          int
	ModulesPerRequest int
	SuffixTokens      int
	ZipfS             float64
	Seed              uint64

	// GPUCapacity bounds the HBM tier in bytes (0 = no GPU tier: every
	// module ships from host DRAM, the paper's "CPU memory" setup).
	GPUCapacity int64
	// Policy governs HBM replacement; nil defaults to LRU.
	Policy evict.Policy
}

// Stats summarizes a run.
type Stats struct {
	Requests      int
	ModuleLookups int
	HBMHits       int
	Evictions     int
	BytesUploaded int64

	MeanTTFT, P50TTFT, P99TTFT time.Duration
	// BaselineMeanTTFT is the same stream served with no attention reuse
	// (full prefill per request).
	BaselineMeanTTFT time.Duration
}

// HitRate returns the HBM hit fraction over module lookups.
func (s Stats) HitRate() float64 {
	if s.ModuleLookups == 0 {
		return 0
	}
	return float64(s.HBMHits) / float64(s.ModuleLookups)
}

// Speedup returns baseline mean TTFT / cached mean TTFT.
func (s Stats) Speedup() float64 {
	if s.MeanTTFT == 0 {
		return 0
	}
	return float64(s.BaselineMeanTTFT) / float64(s.MeanTTFT)
}

// DefaultUniverse builds a module universe of n documents whose sizes are
// drawn log-uniformly between minTok and maxTok — spanning the system
// message / template / long-document range real schemas mix.
func DefaultUniverse(n, minTok, maxTok int, seed uint64) []ModuleSpec {
	r := rng.New(seed)
	out := make([]ModuleSpec, n)
	lnMin, lnMax := math.Log(float64(minTok)), math.Log(float64(maxTok))
	for i := range out {
		t := int(math.Exp(lnMin + r.Float64()*(lnMax-lnMin)))
		out[i] = ModuleSpec{Name: fmt.Sprintf("mod%03d", i), Tokens: t}
	}
	return out
}

// ComparePolicies replays base's generated stream under each named
// policy at the given HBM capacity and returns stats per policy name,
// plus the host-only ("CPU memory") and unbounded-HBM reference points.
func ComparePolicies(base Config, capacity int64) (map[string]Stats, error) {
	trace, err := GenerateTrace(base)
	if err != nil {
		return nil, err
	}
	out := map[string]Stats{}
	run := func(name string, capacity int64, p evict.Policy) error {
		cfg := base
		cfg.GPUCapacity = capacity
		cfg.Policy = p
		st, err := RunTrace(cfg, trace)
		out[name] = st
		return err
	}
	for _, name := range evict.Names() {
		p, err := evict.New(name)
		if err != nil {
			return nil, err
		}
		if err := run(name, capacity, p); err != nil {
			return nil, err
		}
	}
	if err := run("host-only", 0, nil); err != nil {
		return nil, err
	}
	if err := run("unbounded-hbm", 1<<60, nil); err != nil {
		return nil, err
	}
	return out, nil
}
