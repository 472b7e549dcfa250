package main

import (
	"time"

	"repro/internal/tokenizer"
)

// Fixed constants of the benchmark. They are absolute numbers, never
// recalibrated at run time, so a parent commit and a change are offered
// identical load. (BENCHMARK.json has a closed key set, so the constants
// the issue wanted there live here.)
const (
	vocabSize   = tokenizer.WordBase + 2048
	modelSeed   = 1
	defaultSeed = 11

	scratchTokens  = 64 // tokens in tiered.churn's replaced schema
	mixBlock       = 20 // mixed.open deals its mix in blocks of this many requests
	replayRequests = 16 // requests checked against the reference client before the window

	// Admission bounds for mixed.open (the only workload with admission on).
	admitConcurrent = 4
	admitQueue      = 8

	// Latency limits for slo_attainment, frozen from the seed commit on the
	// 2-core reference box: 4 × chat.uncached ttft_p50_ms and
	// 4 × decode.long tpot_p50_ms, rounded.
	ttftLimitMs = 190.0
	gapLimitMs  = 2.0

	// A fixed rate counts towards max_rate_in_slo_rps when at least this
	// share of the requests sent met both limits and no backlog was growing.
	sloTarget = 0.90
)

// mixedRates are mixed.open's offered rates in requests per second:
// about 30 %, 50 % and 70 % of the seed commit's closed-loop capacity for
// this mix with two connections, frozen as integers.
var mixedRates = []int{12, 21, 29}

// plan sizes a run. The benchmark of record runs fullPlan; the smoke
// test shrinks every size so the whole suite takes seconds.
type plan struct {
	window time.Duration // measured window (the traced run's concurrent window is half of it)
	setups int           // set-ups per timed run; setup_s is their median
	traced int           // requests the traced run decomposes
	scale  int           // divisor of module, question and reply sizes and of warm-up counts
}

func fullPlan(seconds int) plan {
	return plan{window: time.Duration(seconds) * time.Second, setups: 3, traced: 64, scale: 1}
}

// traffic is one request type of a workload.
type traffic struct {
	class string // schema name, module-name prefix and request class
	// stream labels the random streams of the type's module text and
	// requests; workloads that share it receive identical inputs.
	stream         string
	modules        int     // modules in the schema
	moduleTokens   int     // tokens per module
	imports        int     // modules each prompt imports
	zipf           float64 // module popularity exponent; 0 = uniform
	questionTokens int     // never-repeated user text per prompt
	outputTokens   int     // exact reply length
	perBlock       int     // requests per mixBlock (mixed workloads only)
}

// workloadSpec is one named workload: its traffic and the server it runs
// against.
type workloadSpec struct {
	name    string
	traffic []traffic
	warmup  int // closed-loop requests sent before the window opens
	scale   int // the size divisor the spec was built with

	speculation   bool  // WithSpeculation on top of the scheduler
	admission     bool  // WithAdmission(admitConcurrent, admitQueue)
	tiers         bool  // device 1/3 + host 1/3 of the working set, fp32 disk tier
	registerEvery int   // every n-th operation is a POST /schemas
	rates         []int // open loop at these fixed rates when set
}

func docQA(stream string) traffic {
	return traffic{class: classDocQA, stream: stream, modules: 8, moduleTokens: 1000,
		imports: 2, questionTokens: 16, outputTokens: 16}
}

func chat(stream string) traffic {
	return traffic{class: classChat, stream: stream, modules: 1, moduleTokens: 32,
		imports: 1, questionTokens: 256, outputTokens: 8}
}

func decodeLong(stream string) traffic {
	return traffic{class: classDecode, stream: stream, modules: 1, moduleTokens: 128,
		imports: 1, questionTokens: 8, outputTokens: 128}
}

// workloads lists the benchmark's workloads in report order, sizes
// divided by scale (1 for the benchmark of record). README.md records
// why each was chosen.
func workloads(scale int) []*workloadSpec {
	mixed := []traffic{docQA("mixed.open/doc_qa"), chat("mixed.open/chat"), decodeLong("mixed.open/decode")}
	mixed[0].perBlock, mixed[1].perBlock, mixed[2].perBlock = 12, 5, 3
	all := []*workloadSpec{
		{name: "doc_qa.cached", traffic: []traffic{docQA("doc_qa.cached")}, warmup: 32},
		{name: "chat.uncached", traffic: []traffic{chat("chat.uncached")}, warmup: 16},
		{name: "decode.long", traffic: []traffic{decodeLong("decode.long")}, warmup: 16},
		// Same stream label as decode.long: the exact same request list.
		{name: "decode.spec", traffic: []traffic{decodeLong("decode.long")}, warmup: 16, speculation: true},
		{name: "tiered.churn", traffic: []traffic{{class: "churn", stream: "tiered.churn",
			modules: 24, moduleTokens: 256, imports: 2, zipf: 1.1, questionTokens: 16, outputTokens: 8}},
			warmup: 96, tiers: true, registerEvery: 20},
		{name: "mixed.open", traffic: mixed, warmup: 40, admission: true, rates: mixedRates},
	}
	shrink := func(n int) int { return max(n/scale, min(n, 8)) }
	for _, w := range all {
		w.scale = scale
		w.warmup = shrink(w.warmup)
		for i := range w.traffic {
			t := &w.traffic[i]
			t.moduleTokens, t.questionTokens, t.outputTokens = shrink(t.moduleTokens), shrink(t.questionTokens), shrink(t.outputTokens)
		}
	}
	return all
}

func workloadByName(name string, scale int) *workloadSpec {
	for _, w := range workloads(scale) {
		if w.name == name {
			return w
		}
	}
	return nil
}
