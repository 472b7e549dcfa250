package serving

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/evict"
	"repro/internal/hw"
	"repro/internal/rng"
)

// Request is one serving-trace record: the modules a prompt imports and
// its uncached suffix length. Traces can be recorded, persisted as JSONL
// and replayed, so policy comparisons run over identical streams and
// production-like traces can be studied offline.
type Request struct {
	Modules []string `json:"modules"`
	Suffix  int      `json:"suffix"`
}

// GenerateTrace materializes cfg's Zipf stream as an explicit trace.
func GenerateTrace(cfg Config) ([]Request, error) {
	if len(cfg.Modules) == 0 {
		return nil, fmt.Errorf("serving: modules required")
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 1000
	}
	if cfg.ModulesPerRequest <= 0 {
		cfg.ModulesPerRequest = 2
	}
	if cfg.ModulesPerRequest > len(cfg.Modules) {
		cfg.ModulesPerRequest = len(cfg.Modules)
	}
	if cfg.SuffixTokens <= 0 {
		cfg.SuffixTokens = 120
	}
	if cfg.ZipfS <= 0 {
		cfg.ZipfS = 1.0
	}
	r := rng.New(cfg.Seed)
	weights := make([]float64, len(cfg.Modules))
	var totalW float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), cfg.ZipfS)
		totalW += weights[i]
	}
	pick := func() int {
		u := r.Float64() * totalW
		acc := 0.0
		for i, w := range weights {
			acc += w
			if u < acc {
				return i
			}
		}
		return len(weights) - 1
	}
	trace := make([]Request, cfg.Requests)
	for q := range trace {
		chosen := map[int]bool{}
		for len(chosen) < cfg.ModulesPerRequest {
			chosen[pick()] = true
		}
		idxs := make([]int, 0, len(chosen))
		for i := range chosen {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		req := Request{Suffix: cfg.SuffixTokens}
		for _, i := range idxs {
			req.Modules = append(req.Modules, cfg.Modules[i].Name)
		}
		trace[q] = req
	}
	return trace, nil
}

// WriteTrace persists a trace as JSON lines.
func WriteTrace(w io.Writer, trace []Request) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, req := range trace {
		if err := enc.Encode(req); err != nil {
			return fmt.Errorf("serving: writing trace line %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadTrace loads a JSONL trace.
func ReadTrace(r io.Reader) ([]Request, error) {
	var trace []Request
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			if err == io.EOF {
				return trace, nil
			}
			return nil, fmt.Errorf("serving: reading trace line %d: %w", len(trace), err)
		}
		if len(req.Modules) == 0 {
			return nil, fmt.Errorf("serving: trace line %d has no modules", len(trace))
		}
		trace = append(trace, req)
	}
}

// RunTrace replays an explicit trace against cfg's device, model, tier
// and policy (cfg's stream-generation fields are ignored). Module names
// in the trace must exist in cfg.Modules.
func RunTrace(cfg Config, trace []Request) (Stats, error) {
	if cfg.Device == nil || len(cfg.Modules) == 0 {
		return Stats{}, fmt.Errorf("serving: device and modules required")
	}
	if len(trace) == 0 {
		return Stats{}, fmt.Errorf("serving: empty trace")
	}
	byName := make(map[string]ModuleSpec, len(cfg.Modules))
	for _, m := range cfg.Modules {
		byName[m.Name] = m
	}
	policy := cfg.Policy
	if policy == nil {
		policy = evict.NewLRU()
	}
	resident := map[string]int64{}
	var hbmUsed int64
	var st Stats
	ttfts := make([]time.Duration, 0, len(trace))
	var baselineSum time.Duration

	for qi, req := range trace {
		var copyTime time.Duration
		suffix := req.Suffix
		if suffix <= 0 {
			suffix = 120
		}
		totalTokens := suffix
		for _, name := range req.Modules {
			m, ok := byName[name]
			if !ok {
				return Stats{}, fmt.Errorf("serving: trace request %d names unknown module %q", qi, name)
			}
			totalTokens += m.Tokens
			b := int64(m.Tokens) * cfg.Model.BytesPerToken()
			st.ModuleLookups++
			if _, hit := resident[m.Name]; hit && cfg.GPUCapacity > 0 {
				st.HBMHits++
				copyTime += cfg.Device.Local.TransferTime(b)
				policy.Touch(m.Name, b)
				continue
			}
			copyTime += cfg.Device.Upload.TransferTime(b)
			st.BytesUploaded += b
			if cfg.GPUCapacity <= 0 || b > cfg.GPUCapacity {
				continue
			}
			for hbmUsed+b > cfg.GPUCapacity {
				victim, ok := policy.Victim()
				if !ok {
					break
				}
				policy.Remove(victim)
				hbmUsed -= resident[victim]
				delete(resident, victim)
				st.Evictions++
			}
			resident[m.Name] = b
			hbmUsed += b
			policy.Touch(m.Name, b)
		}
		compute := time.Duration(cfg.Model.SuffixFLOPs(suffix, totalTokens) / cfg.Device.EffFLOPs() * float64(time.Second))
		ttfts = append(ttfts, cfg.Device.Overhead+copyTime+compute)
		baselineSum += hw.BaselineTTFT(cfg.Device, cfg.Model, totalTokens)
	}
	st.Requests = len(trace)
	sort.Slice(ttfts, func(i, j int) bool { return ttfts[i] < ttfts[j] })
	var sum time.Duration
	for _, t := range ttfts {
		sum += t
	}
	st.MeanTTFT = sum / time.Duration(len(ttfts))
	st.P50TTFT = ttfts[len(ttfts)/2]
	st.P99TTFT = ttfts[len(ttfts)*99/100]
	st.BaselineMeanTTFT = baselineSum / time.Duration(len(trace))
	return st, nil
}
